"""``repro.server``: many concurrent incremental sessions, one process.

The service layer over :class:`repro.api.Session` (DESIGN.md Section 9):

* :class:`~repro.server.pool.SessionPool` -- hosts one engine per client
  document, drains them in fair budgeted slices, and contains faults
  per-document (rollback, escalating to rebuild);
* :class:`~repro.server.scheduler.FairScheduler` -- the round-robin ring
  those slices run under;
* :mod:`repro.server.protocol` -- newline-delimited JSON frames over
  TCP / unix sockets (``serve``), plus the matching asyncio
  :class:`~repro.server.protocol.Client`.

Start one from the command line with ``python -m repro serve``.
"""

from repro.server.pool import (
    CellTypeError,
    DocError,
    DocFailedError,
    PooledDoc,
    QuotaExceededError,
    SessionPool,
    UnknownDocError,
)
from repro.server.protocol import (
    Client,
    FrameTooLargeError,
    ServerError,
    serve,
)
from repro.server.scheduler import FairScheduler

__all__ = [
    "CellTypeError",
    "Client",
    "DocError",
    "DocFailedError",
    "FairScheduler",
    "FrameTooLargeError",
    "PooledDoc",
    "QuotaExceededError",
    "ServerError",
    "SessionPool",
    "UnknownDocError",
    "serve",
]
