"""Fault injection: the injector itself, failure events, and the chaos
suite (every app x both backends x every site type x both recovery modes).

The chaos acceptance property: a deterministic fault planted at any trace
site during change propagation, followed by ``rollback`` or ``rebuild``
recovery and the remaining edits, yields exactly the output of a
from-scratch run on the final data, with the trace passing the structural
invariant checker throughout.
"""

import random

import pytest

from repro.api import Session
from repro.apps import REGISTRY
from repro.obs import EventLog, FanoutHook
from repro.obs.faults import (
    CORRUPTIONS,
    SITES,
    ChaosResult,
    FaultInjector,
    PlantedFault,
    SiteCounter,
    chaos_app,
    chaos_journal,
    chaos_persist,
)
from repro.sac import Engine, ReexecutionError

# Input sizes per app family, chosen tiny: every chaos scenario replays a
# full run plus an oracle run, and the suite multiplies sites x positions
# x modes x backends.  (Matrix apps square their input; the raytracer's n
# is the image size.)
SIZES = {
    "map": 12,
    "filter": 12,
    "reverse": 12,
    "split": 12,
    "qsort": 12,
    "msort": 12,
    "vec-reduce": 12,
    "vec-mult": 12,
    "mat-vec-mult": 4,
    "mat-add": 4,
    "transpose": 4,
    "mat-mult": 3,
    "block-mat-mult": 8,  # must be a multiple of the block size
    "raytracer": 4,
}
# Seeds picked so the probed change stream actually re-executes reads
# (e.g. the raytracer's seed-0 changes all cut off at this size).
SEEDS = {"raytracer": 1}
# Apps whose change propagation is *free* (zero re-executions: the output
# shares the input's modifiables, see test_apps.py): propagation runs no
# user code, so there is no site to inject a fault at.
FREE_APPS = {"transpose"}
# Expensive apps get one injection position per site instead of the
# default first/middle/last sweep (a raytracer scenario replays the whole
# scene twice: recovery plus oracle).
POSITIONS = {"raytracer": (0,)}


def doubler(engine, m):
    return engine.mod(
        lambda dest: engine.read(m, lambda v: engine.write(dest, v * 2))
    )


# ----------------------------------------------------------------------
# The injector and counter


def test_site_counter_windows():
    engine = Engine()
    run_counter = SiteCounter(during="run")
    prop_counter = SiteCounter(during="propagate")
    any_counter = SiteCounter(during="any")
    engine.attach_hook(FanoutHook([run_counter, prop_counter, any_counter]))

    m = engine.make_input(3)
    doubler(engine, m)
    assert run_counter.counts["read"] == 1
    assert run_counter.counts["write"] == 1
    assert prop_counter.total() == 0  # nothing propagated yet

    engine.change(m, 5)
    engine.propagate()
    assert prop_counter.counts["reexec"] == 1
    assert prop_counter.counts["write"] == 1
    assert prop_counter.counts["read"] == 0  # re-execution reuses the edge
    assert run_counter.counts["change"] == 1
    assert any_counter.total() == run_counter.total() + prop_counter.total()


def test_injector_is_one_shot_by_default():
    engine = Engine()
    injector = FaultInjector("write", at=0)
    engine.attach_hook(injector)
    m = engine.make_input(3)
    out = doubler(engine, m)  # during="propagate": initial run unaffected
    assert injector.fired == 0

    engine.change(m, 5)
    with pytest.raises(ReexecutionError) as exc_info:
        engine.propagate()
    assert isinstance(exc_info.value.original, PlantedFault)
    assert injector.fired == 1
    assert not injector.armed

    engine.propagate()  # disarmed: the retry converges
    assert out.peek() == 10
    assert injector.fired == 1


def test_injector_repeat_fires_persistently():
    engine = Engine()
    injector = FaultInjector("write", at=0, repeat=True)
    engine.attach_hook(injector)
    m = engine.make_input(3)
    doubler(engine, m)
    engine.change(m, 5)
    for _ in range(3):
        with pytest.raises(ReexecutionError):
            engine.propagate()
    assert injector.fired == 3
    assert injector.armed


def test_injector_fires_at_exact_position():
    """The injector's event numbering matches a probe counter's."""
    app = REGISTRY["msort"]

    def staged(hook):
        rng = random.Random(0)
        data = app.make_data(12, rng)
        session = Session(app, backend="interp", hook=hook)
        session.run(data=data)
        app.apply_change(session.input_handle, rng, 0)
        return session

    counter = SiteCounter()
    staged(counter).propagate()
    total = counter.counts["write"]
    assert total > 2

    injector = FaultInjector("write", at=total - 1)
    session = staged(injector)
    with pytest.raises(ReexecutionError):
        session.propagate()
    # It fired exactly at the last write: counts agree with the probe.
    assert injector.fired == 1
    assert injector.counts["write"] == total


def test_injector_custom_exception_and_window():
    engine = Engine()
    injector = FaultInjector("read", at=0, exc=OSError("disk gone"), during="run")
    engine.attach_hook(injector)
    m = engine.make_input(3)
    with pytest.raises(OSError, match="disk gone"):
        doubler(engine, m)


def test_injector_rejects_unknown_site_and_window():
    with pytest.raises(ValueError):
        FaultInjector("frobnicate")
    with pytest.raises(ValueError):
        FaultInjector("read", during="sometimes")
    assert set(SITES) >= {"read", "mod", "write", "memo-hit"}


# ----------------------------------------------------------------------
# Failure events in the log


def test_event_log_records_abort_and_rollback_and_poison():
    engine = Engine()
    log = EventLog()
    injector = FaultInjector("write", at=0)
    engine.attach_hook(FanoutHook([log, injector]))
    m = engine.make_input(3)
    doubler(engine, m)

    engine.change(m, 5)
    with pytest.raises(ReexecutionError):
        engine.propagate()
    (abort,) = log.of_kind("reexec-abort")
    assert abort.info["consistent"] is True
    assert "PlantedFault" in abort.info["error"]

    engine.rollback()
    (rollback,) = log.of_kind("rollback")
    assert rollback.info["undone"] == 1
    assert rollback.info["restaged"] == 1

    # Poison: fault the next write, and make that abort's cleanup fail.
    injector.at = injector.counts["write"]
    injector.armed = True
    engine._delete_range = lambda a, b: (_ for _ in ()).throw(
        RuntimeError("cleanup failure")
    )
    with pytest.raises(ReexecutionError):
        engine.propagate()
    (poison,) = log.of_kind("poison")
    assert "cleanup failure" in poison.info["reason"]
    assert log.of_kind("reexec-abort")[-1].info["consistent"] is False


# ----------------------------------------------------------------------
# The chaos suite


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_chaos_recovers_every_app(name, backend):
    result = chaos_app(
        REGISTRY[name],
        SIZES[name],
        backend=backend,
        changes=2,
        seed=SEEDS.get(name, 0),
        positions=POSITIONS.get(name),
    )
    assert isinstance(result, ChaosResult)
    # Every scheduled fault fired and was recovered from (chaos_app raises
    # ChaosError/InvariantViolation on any divergence).
    assert result.fired >= result.scenarios
    if name in FREE_APPS:
        # Free propagation: no user code re-runs, nothing to inject.
        assert result.scenarios == 0
        return
    # The core sites must be injectable: a change stream that never
    # re-executes a read would make the whole scenario vacuous.
    assert "write" not in result.skipped_sites, (
        f"{name}: no writes re-executed; pick a different seed/size"
    )
    assert result.scenarios > 0
    assert result.invariant_checks > 0


# ----------------------------------------------------------------------
# Chaos under lazy demand walks

#: The lazy sweep multiplies scenarios the same way, so it runs on a
#: representative subset: keyed sharing (msort), cutoffs (filter), and a
#: matrix app whose output is a tuple-of-mods structure (mat-add).
LAZY_CHAOS_APPS = ["filter", "msort", "mat-add"]


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("name", LAZY_CHAOS_APPS)
def test_chaos_recovers_under_lazy_demand(name, backend):
    """Faults planted inside demand walks (the injection window keys on
    ``engine.propagating``, which demand also sets) must recover through
    ``Session.demand(on_error=...)`` to the from-scratch oracle's output,
    with the suspicion-closure invariant holding throughout."""
    result = chaos_app(
        REGISTRY[name],
        SIZES[name],
        backend=backend,
        changes=2,
        seed=SEEDS.get(name, 0),
        positions=POSITIONS.get(name),
        propagation="lazy",
    )
    assert isinstance(result, ChaosResult)
    assert result.scenarios > 0
    assert result.fired >= 1
    assert result.invariant_checks > 0


def test_chaos_rejects_unknown_propagation():
    with pytest.raises(ValueError):
        chaos_app(REGISTRY["map"], 8, propagation="sometimes")


# ----------------------------------------------------------------------
# Persistence chaos: corrupt snapshots and torn journals vs the oracle

#: Snapshot-corruption sweep apps: keyed sharing over a Cons spine
#: (msort), scalar cells as the server documents use (vec-reduce), and
#: the deepest/widest trace in the registry (raytracer).
PERSIST_CHAOS_APPS = ["msort", "vec-reduce", "raytracer"]
PERSIST_CHAOS_SIZES = {"msort": 12, "vec-reduce": 12, "raytracer": 4}


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("name", PERSIST_CHAOS_APPS)
def test_persist_chaos_every_corruption_detected_or_survived(
    tmp_path, name, backend
):
    """Every corruption kind either raises a typed PersistError or
    restores to the oracle output -- never a wrong value, never a foreign
    exception (chaos_persist raises ChaosError on any other outcome)."""
    result = chaos_persist(
        REGISTRY[name],
        PERSIST_CHAOS_SIZES[name],
        backend=backend,
        changes=2,
        seed=SEEDS.get(name, 0),
        dir=str(tmp_path),
    )
    assert result.scenarios == result.detected + result.survived
    assert result.scenarios > 0
    # Structural damage (bad magic, emptied file, halved file) can never
    # slip past the header checks, whatever the app or backend.
    assert result.detected >= 3


@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_persist_chaos_lazy_matches_eager_promise(tmp_path, mode):
    result = chaos_persist(
        REGISTRY["msort"], 12, mode=mode, changes=2, dir=str(tmp_path)
    )
    assert result.scenarios == result.detected + result.survived
    assert result.detected >= 3


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_journal_chaos_prefix_integrity(tmp_path, backend, mode):
    """Damaged journals replay exactly a clean prefix of the acknowledged
    edits; re-applying the lost suffix reaches the oracle meter-exactly
    (chaos_journal raises ChaosError on any divergence)."""
    result = chaos_journal(
        "vec-reduce",
        12,
        backend=backend,
        mode=mode,
        edits=6,
        seed=3,
        dir=str(tmp_path),
    )
    assert result.scenarios == result.detected + result.survived
    assert result.scenarios == len(CORRUPTIONS)
    # Mid-file damage (flip-byte past the first quarter) must be caught
    # by the per-record CRC, not silently replayed.
    assert result.detected >= 1
