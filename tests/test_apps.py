"""Benchmark-application correctness (the paper's Section 4.3 protocol).

Each app: conventional output == reference, initial self-adjusting output
== reference, and output stays equal to the reference after every one of a
series of random incremental changes.
"""

import pytest

from repro.apps import REGISTRY, get_app
from repro.api import Session, verify_app

LIST_APPS = ["map", "filter", "split", "qsort", "msort"]
VECTOR_APPS = ["vec-reduce", "vec-mult"]


@pytest.mark.parametrize("name", LIST_APPS)
def test_list_apps_verify(name):
    result = verify_app(REGISTRY[name], n=40, changes=14, seed=11)
    assert result.changes == 14


@pytest.mark.parametrize("backend", ["stack", "interp"])
def test_msort_refuses_a_repeated_element_before_running(backend):
    """Equal elements never separate under msort's value-bit division, so
    the run would not end; the data is refused before anything runs."""
    from repro.apps.listops import RepeatedElementError

    session = Session("msort", backend=backend)
    with pytest.raises(RepeatedElementError, match="3 repeats") as exc_info:
        session.run(data=[3, 1, 3, 2])
    assert isinstance(exc_info.value, ValueError)
    assert session.input_handle is None
    assert session.engine.order.n_live == 1  # nothing recorded
    with pytest.raises(RepeatedElementError):
        Session("msort", backend=backend).prepare([7, 7])
    app = REGISTRY["msort"]
    with pytest.raises(RepeatedElementError):
        app.make_conv_input([2, 2])
    # Distinct data with zero and negative values sorts fine.
    data = [0, -5, 3, 2, -1]
    assert app.readback(Session("msort", backend=backend).run(data=data)) == sorted(data)


@pytest.mark.parametrize("name", VECTOR_APPS)
def test_vector_apps_verify(name):
    verify_app(REGISTRY[name], n=40, changes=14, seed=12)


def test_mat_vec_mult_verifies():
    verify_app(REGISTRY["mat-vec-mult"], n=8, changes=10, seed=13)


def test_mat_add_verifies():
    verify_app(REGISTRY["mat-add"], n=8, changes=10, seed=14)


def test_transpose_verifies_and_is_free():
    result = verify_app(REGISTRY["transpose"], n=8, changes=10, seed=15)
    # Transpose only shuffles modifiable pointers: no reads ever re-execute.
    assert result.reexecuted_total == 0


def test_mat_mult_verifies():
    verify_app(REGISTRY["mat-mult"], n=6, changes=8, seed=16)


def test_block_mat_mult_verifies():
    verify_app(REGISTRY["block-mat-mult"], n=16, changes=6, seed=17)


def test_block_mat_mult_other_block_size():
    app = get_app("block-mat-mult", block=4)
    verify_app(app, n=8, changes=6, seed=18)


def test_raytracer_verifies():
    verify_app(REGISTRY["raytracer"], n=6, changes=3, seed=19)


@pytest.mark.parametrize("name", ["map", "qsort"])
def test_unoptimized_variant_verifies(name):
    verify_app(REGISTRY[name], n=24, changes=8, seed=20, optimize_flag=False)


@pytest.mark.parametrize("name", ["map", "filter"])
def test_coarse_variant_verifies(name):
    verify_app(
        REGISTRY[name], n=24, changes=8, seed=21,
        optimize_flag=False, coarse=True,
    )


def test_unmemoized_variant_verifies():
    verify_app(REGISTRY["map"], n=20, changes=6, seed=22, memoize=False)


def test_map_propagation_is_constant_work():
    import random

    app = REGISTRY["map"]
    rng = random.Random(0)
    session = Session(app)
    engine = session.engine
    session.run(data=app.make_data(400, rng))
    before = engine.meter.reads_executed
    for step in range(10):
        app.apply_change(session.input_handle, rng, step)
        session.propagate()
    # ~1 read per insert/delete, independent of n.
    assert engine.meter.reads_executed - before <= 20


def test_msort_speedup_grows_with_input_size():
    """Change propagation beats recomputation by a factor that grows with
    n (the paper's Figure 6 trend).

    Note the known deviation recorded in EXPERIMENTS.md: our merge's memo
    keys pair both input suffixes, so identity disturbances at exhaustion
    boundaries re-key output suffixes and propagation work grows ~linearly
    (with a small constant) rather than polylogarithmically; the paper's
    AFL substrate stabilizes this with keyed destination allocation.  The
    speedup (run work / propagation work) still grows with n.
    """
    import random

    app = REGISTRY["msort"]

    def run_vs_prop(n):
        rng = random.Random(5)
        session = Session(app)
        engine = session.engine
        session.run(data=app.make_data(n, rng))
        run_reads = engine.meter.reads_executed
        before = engine.meter.reads_executed
        for step in range(8):
            app.apply_change(session.input_handle, rng, step)
            session.propagate()
        prop_reads = (engine.meter.reads_executed - before) / 8
        return run_reads / prop_reads

    small, large = run_vs_prop(64), run_vs_prop(512)
    assert large > 1.5 * small
    assert large > 4  # propagation is much cheaper than re-running
