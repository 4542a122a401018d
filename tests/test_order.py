"""Order-maintenance timestamp tests (repro.sac.order)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac.order import BUCKET_CAPACITY, SPACING, Order, Stamp


def test_base_exists():
    order = Order()
    assert order.base.live
    assert order.n_live == 1


def test_insert_after_base_orders():
    order = Order()
    a = order.insert_after(order.base)
    b = order.insert_after(a)
    c = order.insert_after(a)  # between a and b
    assert order.base < a < c < b


def test_append_chain_never_relabels():
    order = Order()
    node = order.base
    for _ in range(1000):
        node = order.insert_after(node)
    assert order.n_relabels == 0
    assert order.n_live == 1001
    order.check()


def test_same_point_insertion_triggers_relabel_but_stays_ordered():
    order = Order()
    anchor = order.insert_after(order.base)
    end = order.insert_after(anchor)
    stamps = [anchor]
    # Insert always immediately after the anchor: worst case for labeling.
    for _ in range(500):
        stamps.insert(1, order.insert_after(anchor))
    assert order.n_relabels > 0
    order.check()
    # anchor < every inserted < end, and inserted are in reverse order of
    # creation (each new one lands closest to the anchor).
    labels = [s.label for s in stamps]
    assert labels == sorted(labels)
    assert stamps[-1] < end


def test_delete_splices_out():
    order = Order()
    a = order.insert_after(order.base)
    b = order.insert_after(a)
    c = order.insert_after(b)
    order.delete(b)
    assert not b.live
    assert a.next is c and c.prev is a
    assert order.n_live == 3
    order.check()


def test_delete_is_idempotent():
    order = Order()
    a = order.insert_after(order.base)
    order.delete(a)
    order.delete(a)
    assert order.n_live == 1


def test_cannot_delete_base():
    order = Order()
    with pytest.raises(ValueError):
        order.delete(order.base)


def test_cannot_insert_after_dead_stamp():
    order = Order()
    a = order.insert_after(order.base)
    order.delete(a)
    with pytest.raises(ValueError):
        order.insert_after(a)


def test_iter_between():
    order = Order()
    a = order.insert_after(order.base)
    b = order.insert_after(a)
    c = order.insert_after(b)
    d = order.insert_after(c)
    between = list(order.iter_between(a, d))
    assert between == [b, c]
    assert list(order.iter_between(a, None)) == [b, c, d]


def test_iter_between_safe_under_deletion():
    order = Order()
    a = order.insert_after(order.base)
    nodes = [order.insert_after(a)]
    for _ in range(5):
        nodes.append(order.insert_after(nodes[-1]))
    for node in order.iter_between(a, None):
        order.delete(node)
    assert order.n_live == 2  # base and a
    order.check()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), max_size=200))
def test_random_ops_match_reference(ops):
    """Random insert/delete sequences keep the order consistent with a
    reference Python list."""
    order = Order()
    reference = [order.base]  # mirrors the live order
    for pick, is_delete in ops:
        if is_delete and len(reference) > 1:
            index = 1 + pick % (len(reference) - 1)
            order.delete(reference.pop(index))
        else:
            index = pick % len(reference)
            new = order.insert_after(reference[index])
            reference.insert(index + 1, new)
    order.check()
    assert reference == list(order)
    labels = [s.label for s in reference]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adversarial_positions_stay_sorted(seed):
    rng = random.Random(seed)
    order = Order()
    live = [order.base]
    for _ in range(300):
        anchor = rng.choice(live)
        live.append(order.insert_after(anchor))
    order.check()


# ----------------------------------------------------------------------
# Seeded stress: interleaved inserts/deletes vs a naive list reference


def test_seeded_random_interleaving_matches_reference():
    """Long seeded interleaving of insert_after (in short monotone runs,
    like re-execution) and deletes, checked against a plain Python list
    mirror and the structural invariant checker at intervals."""
    rng = random.Random(20260806)
    order = Order()
    reference = [order.base]
    for step in range(4000):
        if rng.random() < 0.35 and len(reference) > 1:
            index = rng.randrange(1, len(reference))
            order.delete(reference.pop(index))
        else:
            index = rng.randrange(len(reference))
            anchor = reference[index]
            for _ in range(rng.randrange(1, 8)):
                anchor = order.insert_after(anchor)
                index += 1
                reference.insert(index, anchor)
        if step % 500 == 0:
            order.check()
            assert reference == list(order)
    order.check()
    assert reference == list(order)
    keys = [s.key for s in reference]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    stats = order.stats()
    assert stats["live_stamps"] == len(reference) == order.n_live
    # Two-level structure: the stamps are spread over many buckets, each
    # within capacity, and the dead ones went through the free-list.
    assert stats["buckets"] >= len(reference) // (BUCKET_CAPACITY + 1)
    bucket = order._first_bucket
    while bucket is not None:
        assert 0 <= bucket.count <= BUCKET_CAPACITY
        bucket = bucket.next
    assert stats["stamps_reused"] > 0


def test_forced_relabel_density_same_point():
    """Repeated insertion at one point is the labeling worst case: it
    forces local respaces (and bucket splits) constantly.  The structure
    must stay totally ordered, every relabel must bump the epoch, and the
    relabel count must stay amortized sub-linear in the insert count."""
    order = Order()
    anchor = order.insert_after(order.base)
    end = order.insert_after(anchor)
    inserted = [order.insert_after(anchor) for _ in range(2000)]
    order.check()
    stats = order.stats()
    assert stats["relabels"] > 50  # the pattern really forces relabels
    assert stats["relabels"] < 2000  # ... but amortization keeps them rare
    assert stats["epoch"] == stats["relabels"]
    # Later inserts land closer to the anchor: reverse creation order.
    keys = [s.key for s in reversed(inserted)]
    assert keys == sorted(keys)
    assert anchor.key < keys[0] and keys[-1] < end.key


@pytest.mark.parametrize("k", [1, BUCKET_CAPACITY - 1, BUCKET_CAPACITY, 500, 5000])
def test_forward_run_in_full_bucket_splits_once(k):
    """Re-execution inserts a forward run after a cursor that sits in the
    middle of a full bucket.  The bucket splits once, at the cursor; the
    rest of the run appends to the freed tail and then to fresh buckets,
    so relabels stay at ``2 + k // BUCKET_CAPACITY``."""
    order = Order()
    full = [order.base]
    for _ in range(BUCKET_CAPACITY - 1):
        full.append(order.insert_after(full[-1]))
    assert order.base.bucket.count == BUCKET_CAPACITY
    cursor = full[BUCKET_CAPACITY // 2]
    before = order.n_relabels
    run = []
    for _ in range(k):
        cursor = order.insert_after(cursor)
        run.append(cursor)
    assert order.n_relabels - before <= 2 + k // BUCKET_CAPACITY
    order.check()
    middle = BUCKET_CAPACITY // 2 + 1
    assert list(order) == full[:middle] + run + full[middle:]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_delete_range_matches_per_stamp_deletes(seed):
    """Bulk delete_range(a, b) must leave exactly the state that per-stamp
    deletes of the strict interior would: same survivors, same liveness
    flags, same counts, valid structure.  It hands back the owners of the
    removed stamps, in order."""
    rng = random.Random(seed)
    order = Order()
    reference = [order.base]
    for _ in range(rng.randrange(2, 120)):
        index = rng.randrange(len(reference))
        reference.insert(index + 1, order.insert_after(reference[index]))
    for stamp in reference[1:]:
        if rng.random() < 0.5:
            stamp.owner = object()
    i = rng.randrange(len(reference))
    open_ended = rng.random() < 0.3
    if open_ended:
        j, b = len(reference), None
    else:
        j = rng.randrange(i, len(reference))
        b = reference[j]
    interior = reference[i + 1 : j]
    owners = [s.owner for s in interior if s.owner is not None]
    assert order.delete_range(reference[i], b) == owners
    for stamp in interior:
        assert not stamp.live
        assert stamp.owner is None
    survivors = reference[: i + 1] + reference[max(j, i + 1) :]
    assert list(order) == survivors
    assert order.n_live == len(survivors)
    order.check()
    # Deleting an empty range is a no-op.
    assert order.delete_range(reference[i], b) == []
    assert list(order) == survivors
    order.check()
