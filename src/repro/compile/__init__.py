"""The stack-machine backend (``backend="stack"``, the default).

Flattens translated SXML into instruction sequences driven by an explicit
control stack (:mod:`repro.compile.stackmachine`); pure straight-line
segments are staged into slot-indexed Python closures by
:mod:`repro.compile.closures`.  See README "Backends" for how to select a
backend.
"""

from repro.compile.stackmachine import StackClosure, StackReader, StackSelfAdjusting

__all__ = ["StackClosure", "StackReader", "StackSelfAdjusting"]
