"""Profiling harness: where does an app's engine time actually go?

``python -m repro profile <app>`` runs one application end to end --
compile, input marshalling, initial run, change propagation, readback --
and reports, per phase, the wall time, the engine meter counters that
phase consumed, and CPython's cyclic collector as a layer of its own:
collections by generation and the seconds they paused the phase,
recorded through :data:`gc.callbacks`.  After the phases it dumps the
engine's hot-path statistics
(:meth:`repro.sac.engine.Engine.hot_stats`): order-maintenance
structure and relabel counts, dirty-queue pushes/rekeys/peak, the
record free-list reuse counts and the relevance-filter counters.  With
call-site profiling enabled (the default), the propagation
phase additionally runs under :mod:`cProfile` and the report lists the
top engine call sites by internal time -- the first place to look when
propagation regresses.

The harness is deliberately hook-free by default so the measured numbers
are the production configuration (trace-record pooling is disabled while
an observability hook is attached); pass ``events=True`` to attach a
:class:`repro.obs.events.EventLog` and get per-phase structured event
counts at the cost of that overhead.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["PhaseProfile", "ProfileReport", "profile_app"]


@dataclass
class PhaseProfile:
    """One phase of a profiled run: wall time plus meter/event deltas.

    ``gc_collections`` counts the cyclic collector's collections of
    generation 0, 1 and 2 that ran inside the phase; ``gc_seconds`` is the
    wall time they paused it (part of ``seconds``).
    """

    name: str
    seconds: float
    samples: int = 1
    counters: Dict[str, int] = field(default_factory=dict)
    events: Optional[Dict[str, int]] = None
    gc_collections: Tuple[int, int, int] = (0, 0, 0)
    gc_seconds: float = 0.0


@dataclass
class ProfileReport:
    """Everything ``python -m repro profile`` reports, as data."""

    app: str
    backend: str
    n: int
    changes: int
    seed: int
    phases: List[PhaseProfile]
    hot_stats: Dict[str, dict]
    call_sites: List[str] = field(default_factory=list)
    mode: str = "eager"

    #: Meter counters shown as phase columns, in order (a subset: the ones
    #: that distinguish phases; the full snapshot is in ``counters``).
    _COLUMNS = (
        ("mods_created", "mods"),
        ("reads_executed", "reads"),
        ("edges_reexecuted", "reexec"),
        ("writes", "writes"),
        ("changed_writes", "changed"),
        ("memo_hits", "hits"),
        ("memo_misses", "misses"),
        ("queue_drained", "drained"),
    )

    def format(self) -> str:
        """Render the report as aligned text."""
        lines = [
            f"profile: {self.app}  backend={self.backend}  "
            f"mode={self.mode}  n={self.n}  "
            f"changes={self.changes}  seed={self.seed}"
        ]
        header = (
            f"{'phase':<18} {'time (s)':>10} {'gc (s)':>9} {'gc0/1/2':>11} "
            + " ".join(f"{label:>8}" for _, label in self._COLUMNS)
        )
        lines += ["", header, "-" * len(header)]
        for phase in self.phases:
            cells = " ".join(
                f"{phase.counters.get(key, 0):>8}" for key, _ in self._COLUMNS
            )
            gens = "/".join(str(c) for c in phase.gc_collections)
            lines.append(
                f"{phase.name:<18} {phase.seconds:>10.5f} "
                f"{phase.gc_seconds:>9.5f} {gens:>11} {cells}"
            )
        lines.append("")
        for section in ("order", "queue", "pools", "demand"):
            stats = self.hot_stats.get(section, {})
            body = "  ".join(f"{k}={v}" for k, v in stats.items())
            lines.append(f"{section + ':':<7} {body}")
        for phase in self.phases:
            if phase.events:
                body = ", ".join(
                    f"{k}={v}" for k, v in sorted(phase.events.items())
                )
                lines.append(f"events[{phase.name}]: {body}")
        if self.call_sites:
            lines += ["", "top call sites (propagation, by internal time):"]
            lines += [f"  {site}" for site in self.call_sites]
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


class _GcRecorder:
    """A :data:`gc.callbacks` entry: collections by generation and the
    seconds they paused, while registered."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


def _top_call_sites(profiler: cProfile.Profile, top: int) -> List[str]:
    """The ``top`` hottest rows of a propagation profile, pre-formatted."""
    stats = pstats.Stats(profiler)
    rows = sorted(
        stats.stats.items(), key=lambda kv: kv[1][2], reverse=True
    )  # kv[1] = (cc, nc, tottime, cumtime, callers)
    header = f"{'tottime':>9} {'cumtime':>9} {'ncalls':>9}  site"
    out = [header]
    for (filename, lineno, name), (_, ncalls, tot, cum, _) in rows[:top]:
        site = filename.replace("\\", "/")
        marker = "/repro/"
        if marker in site:
            site = site.split(marker, 1)[1]
        out.append(f"{tot:>9.4f} {cum:>9.4f} {ncalls:>9}  {site}:{lineno}({name})")
    return out


def profile_app(
    app: Any,
    *,
    n: int = 64,
    changes: int = 8,
    seed: int = 0,
    backend: Optional[str] = None,
    top: int = 10,
    callsites: bool = True,
    events: bool = False,
    mode: str = "eager",
) -> ProfileReport:
    """Profile one application; returns a :class:`ProfileReport`.

    ``app`` is an :class:`repro.apps.base.App` or a registry name.  The
    phases are compile, input marshalling, the initial run, ``changes``
    random single-change propagations (aggregated), and readback.

    With ``mode="lazy"`` each change is followed by a *demand* of the
    output's top-level modifiable(s) instead of a full propagate, so the
    ``demand:`` line reports live laziness counters (demands served
    clean, entries deferred, relevance-walk visits) instead of zeros.
    """
    from repro.apps import REGISTRY
    from repro.backends import resolve_backend
    from repro.core.pipeline import compile_program
    from repro.sac.engine import Engine
    from repro.sac.gcpause import gc_paused

    if isinstance(app, str):
        if app not in REGISTRY:
            raise ValueError(
                f"unknown app {app!r}; see `python -m repro apps`"
            )
        app = REGISTRY[app]
    backend = resolve_backend(backend)
    rng = random.Random(seed)

    engine = Engine(mode=mode)
    log = None
    if events:
        from repro.obs.events import EventLog

        log = EventLog()
        engine.attach_hook(log)

    phases: List[PhaseProfile] = []

    def run_phase(name: str, fn, samples: int = 1, profiler=None):
        before = engine.meter.snapshot()
        events_before = log.counts() if log is not None else None
        collector = _GcRecorder()
        gc.callbacks.append(collector)
        try:
            if profiler is not None:
                profiler.enable()
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
            if profiler is not None:
                profiler.disable()
        finally:
            gc.callbacks.remove(collector)
        after = engine.meter.snapshot()
        counters = {
            key: after[key] - before.get(key, 0)
            for key in after
            if after[key] != before.get(key, 0)
        }
        delta_events = None
        if log is not None:
            events_after = log.counts()
            delta_events = {
                key: events_after[key] - events_before.get(key, 0)
                for key in events_after
                if events_after[key] != events_before.get(key, 0)
            }
        phases.append(
            PhaseProfile(
                name, seconds, samples, counters, delta_events,
                tuple(collector.collections), collector.seconds,
            )
        )
        return result

    data = app.make_data(n, rng)
    program = run_phase("compile", lambda: compile_program(app.source))
    instance = program._self_adjusting_instance(engine, backend=backend)
    input_value, handle = run_phase(
        "input marshal", lambda: app.make_sa_input(engine, data)
    )
    # Paused as Session.run pauses it: the run builds a trace that all
    # survives.
    output = run_phase(
        "initial run", gc_paused(lambda: instance.apply(input_value))
    )

    profiler = cProfile.Profile() if callsites else None

    if engine.lazy:
        from repro.interp.values import ConValue, RefCell
        from repro.sac.modifiable import Modifiable

        # The output's top-level modifiable(s): stop at the first
        # modifiable on each path -- demanding just the surface is the
        # lazy regime (deeper cells stay staged until someone asks).
        targets: List[Any] = []
        seen, stack = set(), [output]
        while stack:
            v = stack.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            if isinstance(v, Modifiable):
                targets.append(v)
            elif isinstance(v, ConValue):
                if v.arg is not None:
                    stack.append(v.arg)
            elif isinstance(v, tuple):
                stack.extend(v)
            elif isinstance(v, RefCell):
                stack.append(v.value)

        def propagate_all():
            for step in range(changes):
                app.apply_change(handle, rng, step)
                engine.demand(targets)

    else:

        def propagate_all():
            for step in range(changes):
                app.apply_change(handle, rng, step)
                engine.propagate()

    run_phase(
        f"{'demand' if engine.lazy else 'propagate'} x{changes}",
        propagate_all,
        samples=max(changes, 1),
        profiler=profiler,
    )
    run_phase("readback", lambda: app.readback(output))

    return ProfileReport(
        app=app.name,
        backend=backend,
        n=n,
        changes=changes,
        seed=seed,
        phases=phases,
        hot_stats=engine.hot_stats(),
        call_sites=_top_call_sites(profiler, top) if profiler else [],
        mode=mode,
    )
