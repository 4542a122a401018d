"""Execution cases for tests that run one scenario per backend.

``interp`` and ``stack`` are the two backends.  ``compiled`` means
"reopened from its checkpoint": a stack session checkpointed right after
the initial run and restored from that file, which runs the app from
scratch on the recorded inputs and rebinds the handles and counters.  The
scenario that follows then runs on a session built the way every
document a ``SessionPool`` reopens is.
"""

import os
import tempfile

from repro.api import Session

CASES = ["interp", "compiled", "stack"]


def checkpointed(session):
    """Checkpoint ``session`` and return the session reopened from it."""
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
