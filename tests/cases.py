"""Execution cases for tests that run one scenario per backend.

``interp`` and ``stack`` are the two backends.  ``compiled`` is the
stack machine on a session rebuilt from its own checkpoint right after
the initial run: the staged pure segments of ``repro.compile.closures``
are compiled Python lambdas, a snapshot stores their code, and the codec
rebinds their globals by module at restore.  The scenario that follows
then runs on compiled code that came back through the codec, as every
document a ``SessionPool`` reopens does.
"""

import os
import tempfile

from repro.api import Session

CASES = ["interp", "compiled", "stack"]


def checkpointed(session):
    """Snapshot ``session`` and return the session restored from it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "session.snap")
        session.snapshot(path)
        return Session.restore(path)


def start(app, case, data, **kwargs):
    """Open a session on ``app`` for ``case`` and run it on ``data``."""
    backend = "stack" if case == "compiled" else case
    session = Session(app, backend=backend, **kwargs)
    session.run(data=data)
    if case == "compiled":
        session = checkpointed(session)
        assert session.backend == "stack"
    return session
