"""Exceptions raised by the self-adjusting computation runtime."""


class SacError(Exception):
    """Base class for all runtime errors in :mod:`repro.sac`."""


class WriteOutsideModError(SacError):
    """A ``write`` targeted a destination outside any ``mod`` scope.

    Translated code maintains the invariant (paper Section 2.2) that every
    ``write`` happens within the dynamic scope of a ``mod``.  The engine
    checks this invariant to catch compiler bugs early.
    """


class ReadOutsideModError(SacError):
    """A ``read`` was issued outside the dynamic scope of any ``mod``."""


class UnwrittenModError(SacError):
    """A ``mod`` body finished without writing to its destination."""


class PropagationError(SacError):
    """Change propagation encountered an inconsistent trace."""


class EnginePoisonedError(SacError):
    """The engine is poisoned and refuses all further work.

    An engine poisons itself when a failure recovery could not restore a
    consistent trace (e.g. the cleanup after an aborted re-execution
    itself raised).  Every subsequent operation on the engine raises this
    error instead of computing on a corrupt dependence graph.  Recovery
    from a poisoned engine means rebuilding from scratch, e.g.
    ``Session.propagate(on_error="rebuild")`` or a fresh ``Engine``.

    Attributes:
        reason: human-readable description of the poisoning failure.
    """

    def __init__(self, message: str, *, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class ReexecutionError(PropagationError):
    """A re-executed reader raised instead of running to completion.

    Change propagation (:meth:`repro.sac.engine.Engine.propagate`)
    re-executes dirty read bodies transactionally: if the reader raises,
    the engine splices the edge's whole interval back out (both the
    partially rebuilt new trace and the not-yet-reused old trace), restores
    the cursor and reuse zone, re-queues the edge as dirty, and raises this
    error carrying the original exception (also chained as ``__cause__``).

    When ``consistent`` is True the trace is structurally well-formed
    again: the failing edge is staged for retry and the engine remains
    usable -- retry after fixing the environment, roll the inputs back
    (:meth:`repro.sac.engine.Engine.rollback`), or rebuild from scratch.
    When False, the abort cleanup itself failed and the engine has been
    poisoned (see :class:`EnginePoisonedError`).

    Attributes:
        edge: the :class:`repro.sac.trace.ReadEdge` whose reader raised;
        original: the exception raised by the reader;
        consistent: whether the trace was restored to a consistent state;
        reexecuted: read edges successfully re-executed before the failure;
        pending: dirty-queue entries remaining (the failing edge included).
    """

    def __init__(
        self,
        message: str,
        *,
        edge=None,
        original: BaseException = None,
        consistent: bool = True,
        reexecuted: int = 0,
        pending: int = 0,
    ):
        super().__init__(message)
        self.edge = edge
        self.original = original
        self.consistent = consistent
        self.reexecuted = reexecuted
        self.pending = pending


class RecursionReexecutionError(ReexecutionError):
    """A re-executed reader overflowed the Python stack.

    Self-adjusting readers nest one Python frame per traced cell, so deep
    inputs need a high interpreter recursion limit.  The engine raises the
    limit to ``Engine.RECURSION_LIMIT`` (overridable through the
    ``REPRO_RECURSION_LIMIT`` environment variable); hitting it anyway
    usually means the input outgrew the configured limit -- raise the
    limit or reduce the input size.  Raised as a typed
    :class:`ReexecutionError` so it carries the same recovery guarantees
    (interval spliced out, edge re-queued) instead of unwinding the
    propagation loop raw.
    """


class PropagationBudgetExceeded(SacError):
    """Change propagation stopped at its budget or deadline before draining
    the dirty queue.

    Raised by :meth:`repro.sac.engine.Engine.propagate` when a ``budget``
    (maximum read re-executions) or ``deadline`` (wall-clock seconds) is
    given and the queue still holds real work when the limit is reached.
    The trace is left *consistent*: every re-execution that started has
    finished, and the remaining dirty reads stay queued, so calling
    ``propagate`` again resumes exactly where the previous call stopped.

    Attributes:
        reexecuted: read edges re-executed before the limit hit;
        pending: dirty-queue entries remaining (including stale ones).
    """

    def __init__(self, message: str, *, reexecuted: int = 0, pending: int = 0):
        super().__init__(message)
        self.reexecuted = reexecuted
        self.pending = pending
