"""Deterministic fault injection for the self-adjusting engine.

Change propagation re-executes user code (read bodies), and the engine's
failure model (DESIGN.md Section 7) promises that an exception thrown at
*any* point of a re-execution leaves the trace consistent and the session
recoverable.  A promise like that is only worth what its test harness
proves, so this module provides:

* :class:`FaultInjector` -- a :class:`~repro.obs.events.TraceHook` that
  raises a planted exception at the Nth occurrence of a chosen trace
  *site* (read start, mod allocation, write, memo hit, ...), restricted
  to an execution window (during propagation, during initial runs, or
  anywhere).  Hook callbacks run synchronously inside the engine, so the
  raise surfaces exactly where a failing user function would.
* :class:`SiteCounter` -- the passive twin: counts site events in the
  same window, so a probe run can enumerate every injectable position.
* :func:`chaos_app` -- the chaos driver: for one app and backend, inject
  a fault at selected positions of each site during the first
  propagation, recover through ``Session.propagate(on_error=...)``
  (``rollback`` and ``rebuild``), propagate the remaining edits, and
  check the final output against a from-scratch oracle and the app's
  reference function, with :mod:`repro.obs.invariants` riding along.

Faults are deterministic: the same (app, n, seed, site, at) quintuple
always fires at the same trace event, so every chaos failure replays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.obs.events import FanoutHook, TraceHook
from repro.obs.invariants import InvariantChecker, check_trace

__all__ = [
    "SITES",
    "CORRUPTIONS",
    "ChaosError",
    "ChaosResult",
    "FaultInjector",
    "PersistChaosResult",
    "PlantedFault",
    "SiteCounter",
    "chaos_app",
    "chaos_persist",
    "corrupt_file",
]


class PlantedFault(RuntimeError):
    """The default exception planted by :class:`FaultInjector`."""


#: Injectable trace sites: site name -> the hook callback that marks it.
SITES: Dict[str, str] = {
    "read": "on_read_start",
    "mod": "on_mod_create",
    "write": "on_write",
    "memo-hit": "on_memo_hit",
    "memo-miss": "on_memo_miss",
    "change": "on_change",
    "reexec": "on_reexec",
}

_WINDOWS = ("propagate", "run", "any")


class _SiteHook(TraceHook):
    """Map engine callbacks to named site events, filtered by a window.

    ``during="propagate"`` observes only events emitted while the engine
    is propagating (the window a re-executed reader runs in); ``"run"``
    only events outside propagation (initial runs and edits); ``"any"``
    everything.  Subclasses override :meth:`_site`.
    """

    def __init__(self, during: str = "propagate") -> None:
        if during not in _WINDOWS:
            raise ValueError(f"during must be one of {_WINDOWS}, got {during!r}")
        self.during = during

    def _in_window(self) -> bool:
        if self.during == "any":
            return True
        propagating = self.engine is not None and self.engine.propagating
        return propagating if self.during == "propagate" else not propagating

    def _site(self, name: str) -> None:
        raise NotImplementedError

    # -- engine callbacks, one per site --------------------------------------
    def on_read_start(self, edge: Any) -> None:
        self._site("read")

    def on_mod_create(self, mod: Any, is_input: bool, recycled: bool) -> None:
        self._site("mod")

    def on_write(self, dest: Any, value: Any, changed: bool) -> None:
        self._site("write")

    def on_memo_hit(self, entry: Any) -> None:
        self._site("memo-hit")

    def on_memo_miss(self, key: Any) -> None:
        self._site("memo-miss")

    def on_change(self, mod: Any, value: Any, changed: bool) -> None:
        self._site("change")

    def on_reexec(self, edge: Any) -> None:
        self._site("reexec")


class SiteCounter(_SiteHook):
    """Count site events inside the window without interfering.

    A probe run with a ``SiteCounter`` enumerates the injectable positions
    for a later :class:`FaultInjector` with the same ``during`` window.
    """

    def __init__(self, during: str = "propagate") -> None:
        super().__init__(during)
        self.counts: Dict[str, int] = {name: 0 for name in SITES}

    def _site(self, name: str) -> None:
        if self._in_window():
            self.counts[name] += 1

    def total(self) -> int:
        return sum(self.counts.values())


class FaultInjector(_SiteHook):
    """Raise a planted exception at the Nth event of one trace site.

    ``site`` names the trace site (a :data:`SITES` key); ``at`` is the
    zero-based event index within the window at which to fire.  ``exc``
    is the exception to raise -- an instance, or a class instantiated
    with a descriptive message.  One-shot by default (disarms after
    firing, so recovery and later propagations run clean); with
    ``repeat=True`` the fault is *persistent* and fires at every event
    index >= ``at``, which is how you drive recovery itself into the
    ground (e.g. to test engine poisoning and ``rebuild``).

    ``fired`` counts raises; ``counts`` mirrors :class:`SiteCounter`.
    """

    def __init__(
        self,
        site: str,
        at: int = 0,
        exc: Union[BaseException, type] = PlantedFault,
        *,
        during: str = "propagate",
        repeat: bool = False,
    ) -> None:
        super().__init__(during)
        if site not in SITES:
            raise ValueError(f"unknown site {site!r}; expected one of {sorted(SITES)}")
        self.site = site
        self.at = at
        self.exc = exc
        self.repeat = repeat
        self.armed = True
        self.fired = 0
        self.counts: Dict[str, int] = {name: 0 for name in SITES}

    def _site(self, name: str) -> None:
        if not self._in_window():
            return
        idx = self.counts[name]
        self.counts[name] = idx + 1
        if name != self.site or not self.armed:
            return
        if idx == self.at or (self.repeat and idx > self.at):
            self.fired += 1
            if not self.repeat:
                self.armed = False
            exc = self.exc
            if isinstance(exc, type):
                exc = exc(f"planted fault at {name}[{idx}]")
            raise exc


# ----------------------------------------------------------------------
# The chaos driver


class ChaosError(AssertionError):
    """A chaos scenario produced a wrong output or a corrupt trace."""


@dataclass
class ChaosResult:
    """Outcome of one :func:`chaos_app` sweep."""

    name: str
    backend: str
    n: int
    scenarios: int
    fired: int
    #: sites that emitted no events during the probed propagation (nothing
    #: to inject there for this app/size; reported, not silently dropped).
    skipped_sites: List[str] = field(default_factory=list)
    invariant_checks: int = 0

    def __str__(self) -> str:
        text = (
            f"chaos {self.name} [{self.backend}] n={self.n}: "
            f"{self.scenarios} scenarios, {self.fired} faults fired and "
            f"recovered, {self.invariant_checks} invariant checks"
        )
        if self.skipped_sites:
            text += f" (no events at: {', '.join(self.skipped_sites)})"
        return text


def _positions(count: int, positions: Optional[Sequence[int]]) -> List[int]:
    if positions is not None:
        return [p for p in positions if 0 <= p < count]
    if count == 0:
        return []
    # First, middle, last: the boundary positions where cleanup bugs live.
    return sorted({0, count // 2, count - 1})


def chaos_app(
    app: Any,
    n: int,
    *,
    backend: Optional[str] = None,
    sites: Sequence[str] = ("read", "mod", "write", "memo-hit"),
    modes: Sequence[str] = ("rollback", "rebuild"),
    changes: int = 3,
    seed: int = 0,
    positions: Optional[Sequence[int]] = None,
    check_invariants: bool = True,
    propagation: str = "eager",
) -> ChaosResult:
    """Fault-inject one app on one backend and prove it recovers.

    A probe run applies all ``changes`` random edits, counting the trace
    events each site emits during propagation.  Then, for every ``site``,
    probed position, and recovery ``mode``, a fresh session replays the
    exact same run with a one-shot :class:`FaultInjector` planted at that
    position (the event stream is deterministic, so the fault fires
    during whichever propagation reaches it); every propagation goes
    through ``Session.propagate(on_error=mode)``.  The final output must
    match both a from-scratch rerun of the same compiled program (the
    oracle) and the app's reference function, with the trace passing the
    structural invariant check.

    ``propagation="lazy"`` runs the whole sweep on lazy sessions: each
    change is followed by a full-output demand
    (``Session.demand(on_error=mode)``) instead of an eager propagation,
    so faults fire *inside demand walks* -- the injection window keys on
    ``engine.propagating``, which a demand pass also sets.

    Returns a :class:`ChaosResult`; raises :class:`ChaosError` on any
    divergence.  Deterministic in ``seed``.
    """
    from repro.api import Session, values_close  # deferred: api imports obs lazily

    from repro.apps import REGISTRY

    if isinstance(app, str):
        app = REGISTRY[app]
    for site in sites:
        if site not in SITES:
            raise ValueError(f"unknown site {site!r}")
    if propagation not in ("eager", "lazy"):
        raise ValueError(
            f'propagation must be "eager" or "lazy", got {propagation!r}'
        )
    lazy = propagation == "lazy"

    # Probe: enumerate the injectable positions over all propagations.
    rng = random.Random(seed)
    data = app.make_data(n, rng)
    counter = SiteCounter(during="propagate")
    probe = Session(app, backend=backend, hook=counter, mode=propagation)
    probe.run(data=data)
    for step in range(changes):
        app.apply_change(probe.input_handle, rng, step)
        if lazy:
            probe.demand()
        else:
            probe.propagate()
    counts = dict(counter.counts)
    resolved_backend = probe.backend

    scenarios = fired = invariant_checks = 0
    skipped = [site for site in sites if not _positions(counts[site], positions)]

    for site in sites:
        for at in _positions(counts[site], positions):
            for mode in modes:
                scenarios += 1
                # Replay the exact same run: same seed, data, change stream.
                rng = random.Random(seed)
                data = app.make_data(n, rng)
                checker = InvariantChecker() if check_invariants else None
                injector = FaultInjector(site, at=at)
                hooks: List[TraceHook] = [h for h in (checker, injector) if h]
                session = Session(
                    app,
                    backend=backend,
                    hook=FanoutHook(hooks),
                    mode=propagation,
                )
                session.run(data=data)

                for step in range(changes):
                    app.apply_change(session.input_handle, rng, step)
                    if lazy:
                        stats = session.demand(on_error=mode)
                    else:
                        stats = session.propagate(on_error=mode)
                    if stats.path not in ("propagate", "demand"):
                        fired += 1
                    if stats.path == "rollback":
                        # Rollback left the edit re-staged; the fault was
                        # one-shot, so applying it now succeeds.
                        if lazy:
                            session.demand()
                        else:
                            session.propagate()

                scenario = (
                    f"{app.name} [{resolved_backend}] site={site} at={at} "
                    f"mode={mode} seed={seed}"
                )
                current = app.handle_data(session.input_handle)
                got = app.readback(session.output)
                scratch = Session(session.program, backend=session.backend)
                scratch.app = app
                oracle = app.readback(scratch.run(data=current))
                if not values_close(got, oracle):
                    raise ChaosError(
                        f"chaos {scenario}: output diverges from a "
                        f"from-scratch rerun\n  recovered:    {got!r}\n"
                        f"  from scratch: {oracle!r}"
                    )
                expected = app.reference(current)
                if not values_close(got, expected):
                    raise ChaosError(
                        f"chaos {scenario}: output diverges from reference\n"
                        f"  recovered: {got!r}\n  expected:  {expected!r}"
                    )
                if lazy:
                    # A full-output demand may leave work that feeds
                    # nothing in the output queued; flush it and require
                    # the flush to land on a fully clean trace.  The
                    # fault under test targets the demand walks, so
                    # disarm before flushing (a one-shot fault whose
                    # position was deferred past every demand would
                    # otherwise fire here instead).
                    check_trace(session.engine, expect_empty_queue=False)
                    injector.armed = False
                    session.propagate()
                check_trace(session.engine, expect_empty_queue=True)
                if checker is not None:
                    invariant_checks += checker.total_checks()

    return ChaosResult(
        name=app.name,
        backend=resolved_backend,
        n=n,
        scenarios=scenarios,
        fired=fired,
        skipped_sites=skipped,
        invariant_checks=invariant_checks,
    )


# ----------------------------------------------------------------------
# Persistence chaos: corrupt snapshots and journals, prove detection
#
# The durability layer's failure model (DESIGN.md Section 10) is the
# mirror image of the propagation one: a snapshot or journal damaged at
# *any* byte must either restore correctly (damage past the live data),
# fail with a typed :class:`repro.persist.PersistError` -- never a wrong
# value, never a crash of the host -- or, for a journal, replay exactly a
# clean *prefix* of the acknowledged edits.  These fault sites drive
# those promises the way :class:`FaultInjector` drives the engine's.


def _corrupt_truncate_half(blob: bytes, rng: "random.Random") -> bytes:
    return blob[: len(blob) // 2]

def _corrupt_truncate_tail(blob: bytes, rng: "random.Random") -> bytes:
    return blob[: max(0, len(blob) - rng.randrange(1, 64))]

def _corrupt_flip_byte(blob: bytes, rng: "random.Random") -> bytes:
    if not blob:
        return blob
    # Flip inside the payload (past the magic + most of the header) so
    # the damage lands in CRC-guarded bytes, not trivially in the magic.
    i = rng.randrange(len(blob) // 4, len(blob))
    return blob[:i] + bytes([blob[i] ^ 0x40]) + blob[i + 1 :]

def _corrupt_magic(blob: bytes, rng: "random.Random") -> bytes:
    return b"#not-a-snapshot 9\n" + blob[18:]

def _corrupt_empty(blob: bytes, rng: "random.Random") -> bytes:
    return b""


#: Corruption kinds for :func:`corrupt_file`: name -> bytes transformer.
CORRUPTIONS: Dict[str, Any] = {
    "truncate-half": _corrupt_truncate_half,
    "truncate-tail": _corrupt_truncate_tail,
    "flip-byte": _corrupt_flip_byte,
    "bad-magic": _corrupt_magic,
    "empty": _corrupt_empty,
}


def corrupt_file(path: str, kind: str, seed: int = 0) -> None:
    """Damage ``path`` in place with the named corruption (deterministic
    in ``seed``)."""
    with open(path, "rb") as f:
        blob = f.read()
    with open(path, "wb") as f:
        f.write(CORRUPTIONS[kind](blob, random.Random(seed)))


@dataclass
class PersistChaosResult:
    """Outcome of one :func:`chaos_persist` sweep."""

    name: str
    backend: str
    mode: str
    n: int
    scenarios: int
    detected: int
    survived: int  # corruptions the restore legitimately shrugged off

    def __str__(self) -> str:
        return (
            f"persist-chaos {self.name} [{self.backend}/{self.mode}] "
            f"n={self.n}: {self.scenarios} corruption scenarios, "
            f"{self.detected} detected, {self.survived} harmless"
        )


def chaos_persist(
    app: Any,
    n: int,
    *,
    backend: Optional[str] = None,
    mode: str = "eager",
    changes: int = 2,
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
    dir: Optional[str] = None,
) -> PersistChaosResult:
    """Corrupt a live snapshot every way we know and prove each outcome.

    One session runs ``changes`` random edits and snapshots.  First the
    *intact* snapshot must restore to a session whose output matches the
    live one and the app's reference (the oracle for everything after),
    and whose meters equal a fresh session's run on the recorded inputs.
    Then, per corruption kind, a damaged copy must either raise a typed
    :class:`repro.persist.PersistError` (detection) or -- when the damage
    misses the live bytes -- restore to the oracle output.  Any other
    outcome (wrong value, foreign exception) is a :class:`ChaosError`.
    """
    import os
    import shutil
    import tempfile

    from repro.api import Session, values_close
    from repro.apps import REGISTRY
    from repro.persist import PersistError

    if isinstance(app, str):
        app = REGISTRY[app]
    kinds = tuple(kinds) if kinds is not None else tuple(CORRUPTIONS)
    for kind in kinds:
        if kind not in CORRUPTIONS:
            raise ValueError(f"unknown corruption {kind!r}")

    tmp = dir or tempfile.mkdtemp(prefix="repro-chaos-persist-")
    try:
        rng = random.Random(seed)
        session = Session(app, backend=backend, mode=mode)
        session.run(data=app.make_data(n, rng))
        for step in range(changes):
            app.apply_change(session.input_handle, rng, step)
            if mode == "lazy":
                session.demand()
            else:
                session.propagate()
        snap = os.path.join(tmp, f"{app.name}.snap")
        session.snapshot(snap)
        oracle = app.readback(session.output)
        expected = app.reference(app.handle_data(session.input_handle))
        if not values_close(oracle, expected):
            raise ChaosError(
                f"persist-chaos {app.name}: live session diverges from "
                f"reference before any corruption"
            )

        # The intact snapshot is the baseline: restore must reproduce it,
        # as a from-scratch run on the recorded inputs.
        restored = Session.restore(snap, app)
        got = app.readback(restored.output)
        if not values_close(got, oracle):
            raise ChaosError(
                f"persist-chaos {app.name} [{session.backend}]: intact "
                f"snapshot restored to {got!r}, live session has {oracle!r}"
            )
        fresh = Session(app, backend=session.backend, mode=mode)
        fresh.run(data=app.handle_data(session.input_handle))
        if restored.engine.meter.snapshot() != fresh.engine.meter.snapshot():
            raise ChaosError(
                f"persist-chaos {app.name} [{session.backend}]: intact "
                f"restore is not meter-exact against a fresh run on the "
                f"recorded inputs"
            )

        scenarios = detected = survived = 0
        for kind in kinds:
            scenarios += 1
            damaged = os.path.join(tmp, f"{app.name}.{kind}.snap")
            shutil.copyfile(snap, damaged)
            corrupt_file(damaged, kind, seed=seed + scenarios)
            try:
                recovered = Session.restore(damaged, app)
            except PersistError:
                detected += 1
                continue
            except Exception as exc:  # noqa: BLE001 - the failed promise
                raise ChaosError(
                    f"persist-chaos {app.name} [{session.backend}] "
                    f"kind={kind}: restore escaped the typed error model "
                    f"with {type(exc).__name__}: {exc}"
                ) from exc
            got = app.readback(recovered.output)
            if not values_close(got, oracle):
                raise ChaosError(
                    f"persist-chaos {app.name} [{session.backend}] "
                    f"kind={kind}: corruption went UNDETECTED and "
                    f"restored a wrong value\n  got:    {got!r}\n"
                    f"  oracle: {oracle!r}"
                )
            survived += 1
        return PersistChaosResult(
            name=app.name,
            backend=session.backend,
            mode=mode,
            n=n,
            scenarios=scenarios,
            detected=detected,
            survived=survived,
        )
    finally:
        if dir is None:
            shutil.rmtree(tmp, ignore_errors=True)


def chaos_journal(
    app: Any,
    n: int,
    *,
    backend: Optional[str] = None,
    mode: str = "eager",
    edits: int = 6,
    seed: int = 0,
    kinds: Optional[Sequence[str]] = None,
    dir: Optional[str] = None,
) -> PersistChaosResult:
    """Damage a write-ahead journal every way we know and prove each outcome.

    A session runs, snapshots, then journals ``edits`` acknowledged cell
    edits and settles: that readback is the oracle.  Per corruption kind,
    a damaged copy of the journal is replayed onto a fresh restore of the
    snapshot.  The journal's promise is *prefix integrity*: replay must
    yield exactly a clean prefix of the acknowledged records -- either
    silently (torn tail, truncation) or via
    :class:`repro.persist.JournalCorruptError` carrying the prefix
    (mid-file damage, counted as ``detected``).  Re-applying the lost
    suffix by hand must then land the restored session on the oracle,
    meter-exact -- proving damage can only ever *shorten* the replay,
    never corrupt a value.  Requires a scalar-cell app (``vec-reduce``):
    journaled edits go through named ``cell:<i>`` handles, as on the
    server.
    """
    import os
    import shutil
    import tempfile

    from repro.api import Session, values_close
    from repro.apps import REGISTRY
    from repro.persist import JournalCorruptError, read_journal

    if isinstance(app, str):
        app = REGISTRY[app]
    kinds = tuple(kinds) if kinds is not None else tuple(CORRUPTIONS)
    for kind in kinds:
        if kind not in CORRUPTIONS:
            raise ValueError(f"unknown corruption {kind!r}")

    def settle(s: Session) -> Any:
        return s.demand() if mode == "lazy" else s.propagate() or s.output

    def bind(s: Session) -> None:
        for i, mod in enumerate(s.input_handle.mods):
            s.handle(mod, f"cell:{i}")

    tmp = dir or tempfile.mkdtemp(prefix="repro-chaos-journal-")
    try:
        rng = random.Random(seed)
        session = Session(app, backend=backend, mode=mode)
        session.run(data=app.make_data(n, rng))
        bind(session)
        snap = os.path.join(tmp, f"{app.name}.snap")
        wal = os.path.join(tmp, f"{app.name}.wal")
        session.snapshot(snap)
        session.enable_journal(wal)
        n_cells = len(session.input_handle.mods)
        for _step in range(edits):
            cell = f"cell:{rng.randrange(n_cells)}"
            session.edit(cell, round(rng.uniform(-100.0, 100.0), 3))
        settle(session)
        session.disable_journal()
        oracle = app.readback(session.output)
        meter_oracle = session.engine.meter.snapshot()
        intact = read_journal(wal)[0]
        if len(intact) != edits:
            raise ChaosError(
                f"journal-chaos {app.name}: intact journal holds "
                f"{len(intact)} records, {edits} were acknowledged"
            )

        scenarios = detected = survived = 0
        for kind in kinds:
            scenarios += 1
            damaged = os.path.join(tmp, f"{app.name}.{kind}.wal")
            shutil.copyfile(wal, damaged)
            corrupt_file(damaged, kind, seed=seed + scenarios)
            restored = Session.restore(snap, app)
            bind(restored)
            try:
                prefix = read_journal(damaged)[0]
                survived += 1
            except JournalCorruptError as exc:
                prefix = exc.records
                detected += 1
            except Exception as exc:  # noqa: BLE001 - the failed promise
                raise ChaosError(
                    f"journal-chaos {app.name} [{session.backend}] "
                    f"kind={kind}: replay escaped the typed error model "
                    f"with {type(exc).__name__}: {exc}"
                ) from exc
            if prefix != intact[: len(prefix)]:
                raise ChaosError(
                    f"journal-chaos {app.name} [{session.backend}] "
                    f"kind={kind}: surviving records are not a clean "
                    f"prefix of the acknowledged stream"
                )
            # Replay the prefix, then re-apply the lost suffix: the damage
            # may only have cost us the tail, never changed a value the
            # prefix carried.
            for _seq, batch in prefix + intact[len(prefix) :]:
                for handle, value in batch:
                    restored.edit(handle, value)
            settle(restored)
            got = app.readback(restored.output)
            if not values_close(got, oracle):
                raise ChaosError(
                    f"journal-chaos {app.name} [{session.backend}] "
                    f"kind={kind}: prefix + suffix replay diverged from "
                    f"the oracle\n  got:    {got!r}\n  oracle: {oracle!r}"
                )
            if restored.engine.meter.snapshot() != meter_oracle:
                raise ChaosError(
                    f"journal-chaos {app.name} [{session.backend}] "
                    f"kind={kind}: replay reached the oracle value but "
                    f"not meter-exactly"
                )
        return PersistChaosResult(
            name=app.name,
            backend=session.backend,
            mode=mode,
            n=n,
            scenarios=scenarios,
            detected=detected,
            survived=survived,
        )
    finally:
        if dir is None:
            shutil.rmtree(tmp, ignore_errors=True)
