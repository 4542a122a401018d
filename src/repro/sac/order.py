"""Order-maintenance timestamps.

The dynamic dependence graph of self-adjusting computation (Acar et al. 2006)
needs a *total order* on trace events that supports:

* ``insert_after(s)`` -- allocate a new timestamp immediately after ``s``;
* ``compare`` -- decide which of two timestamps comes first, in O(1);
* ``delete`` -- remove a timestamp (when its trace segment is discarded).

We implement the classic *two-level indirection* solution (Bender et al.;
the same structure Porter et al. 2025 exploit for incremental typing):
stamps live in a doubly-linked list and are grouped into *buckets* of
bounded size.  Each bucket carries a top-level integer label; each stamp a
small *local* label within its bucket.  Comparison packs the pair into one
integer key (``bucket.label << LOCAL_BITS | local``), cached on the stamp,
so ``a < b`` is a single C-speed integer comparison.

Insertion bisects the local gap between neighbours.  When a bucket's local
label space is exhausted its ≤ ``BUCKET_CAPACITY`` stamps are respread
across the full local range -- an O(1) *amortized* relabel, because the
respread opens gaps of ``LOCAL_MAX / (capacity + 1)`` (many halvings wide)
and touches a bounded number of stamps.  A full bucket splits at the
insertion point: the stamps after ``s`` move, locals unchanged, to a fresh
successor bucket (neither half is respread) and ``s`` ends its bucket, so
the forward run that a re-execution inserts after its advancing cursor
appends into the freed tail and then into fresh buckets.  Only the top
level -- with n / capacity entries -- ever runs the classic list-labeling
window relabel, making relabel storms asymptotically rarer than in the flat
scheme this replaces.

Every operation that changes an existing stamp's cached key (respread,
split, top-level relabel) bumps :attr:`Order.epoch`.  Consumers that
snapshot keys -- the engine's propagation heap stores ``(key, tiebreak)``
entries -- watch the epoch and re-key their snapshots when it moves, instead
of consulting stamps on every heap sift.  Snapshots taken at *different*
epochs are not mutually comparable, which is why the engine re-keys the
whole heap at once rather than validating entries pop-by-pop.

Deleted stamps are recycled through a bounded free-list.  Holders of
possibly-dead stamp references that must detect recycling (the engine's
keyed-allocation table) compare :attr:`Stamp.gen`, which increments each
time a pooled stamp is brought back into service.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

#: Gap between consecutive top-level bucket labels on append.  Appending a
#: bucket at the end of the order never relabels.
SPACING = 1 << 20

#: Bits reserved for the local (within-bucket) label in the packed key.
LOCAL_BITS = 32

#: Local labels live in [0, LOCAL_MAX).
LOCAL_MAX = 1 << LOCAL_BITS

#: Local gap used when appending at the end of a bucket.
LOCAL_GAP = 1 << 16

#: Maximum stamps per bucket before it splits.  Bounds the cost of a local
#: respread (and of re-keying a bucket when its top-level label moves).
BUCKET_CAPACITY = 64

#: Bound on the stamp free-list.
POOL_CAP = 8192


class Bucket:
    """A top-level node: a contiguous run of stamps sharing a high label."""

    __slots__ = ("label", "high", "prev", "next", "count", "first")

    def __init__(self, label: int) -> None:
        self.label = label
        #: ``label << LOCAL_BITS``, cached: packing a stamp key is then one
        #: C-speed ``or`` on the insertion fast path.
        self.high = label << LOCAL_BITS
        self.prev: Optional[Bucket] = None
        self.next: Optional[Bucket] = None
        self.count = 0
        self.first: Optional[Stamp] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Bucket {self.label} x{self.count}>"


class Stamp:
    """A timestamp in the total order.

    Attributes:
        key: packed ``(bucket.label << LOCAL_BITS) | local`` comparison key,
            kept consistent by the order (mutated order-preservingly by
            relabels).  Comparisons use only this one integer.
        local: label within the owning bucket.
        bucket: the owning :class:`Bucket`.
        live: False once deleted.  Dead stamps keep their last key so that
            stale references compare harmlessly.
        gen: recycling generation; bumped when a pooled dead stamp is
            brought back into service, so holders of old references can
            detect the reuse (see :class:`Order` docstring).
        owner: optional trace object anchored at this stamp (a read edge or
            memo entry); the engine discards the owner when the stamp's
            trace segment is deleted.
    """

    __slots__ = ("key", "local", "bucket", "prev", "next", "live", "gen", "owner")

    def __init__(self, bucket: Bucket, local: int) -> None:
        self.bucket = bucket
        self.local = local
        self.key = bucket.high | local
        self.prev: Optional[Stamp] = None
        self.next: Optional[Stamp] = None
        self.live = True
        self.gen = 0
        self.owner = None

    @property
    def label(self) -> int:
        """The packed comparison key (back-compat alias used by
        observability exporters and reprs)."""
        return self.key

    def __lt__(self, other: "Stamp") -> bool:
        return self.key < other.key

    def __le__(self, other: "Stamp") -> bool:
        return self.key <= other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "" if self.live else " dead"
        return f"<Stamp {self.key}{status}>"


class Order:
    """A list of :class:`Stamp` values supporting O(1) ordered insertion.

    The order always contains a *base* stamp that precedes everything and is
    never deleted; fresh computation starts at the base.
    """

    def __init__(self) -> None:
        base_bucket = Bucket(0)
        self.base = Stamp(base_bucket, 0)
        base_bucket.first = self.base
        base_bucket.count = 1
        self._base_bucket = base_bucket
        self._first_bucket = base_bucket
        self._last_bucket = base_bucket
        self._last = self.base
        self.n_live = 1
        self.n_buckets = 1
        self.n_relabels = 0
        #: bumped whenever any existing stamp's cached key changes; heap
        #: snapshots keyed on stamps must be rebuilt when this moves.
        self.epoch = 0
        self._pool: List[Stamp] = []
        self.stamps_allocated = 1
        self.stamps_reused = 0

    # ------------------------------------------------------------------
    # Insertion

    def insert_after(self, s: Stamp) -> Stamp:
        """Allocate and return a fresh stamp immediately after ``s``."""
        if not s.live:
            raise ValueError("cannot insert after a dead stamp")
        while True:
            bucket = s.bucket
            nxt = s.next
            if nxt is None or nxt.bucket is not bucket:
                # ``s`` is the last stamp of its bucket: append locally, or
                # open a fresh bucket right after this one when the bucket
                # is full / its local space is exhausted.
                local = s.local + LOCAL_GAP
                if local >= LOCAL_MAX or bucket.count >= BUCKET_CAPACITY:
                    bucket = self._bucket_after(bucket)
                    local = LOCAL_GAP
            else:
                if bucket.count >= BUCKET_CAPACITY:
                    self._move_tail(s)
                    continue
                # Asymmetric bisection: change propagation inserts
                # monotonically *forward* after an advancing cursor, so
                # splitting near ``s`` leaves most of the gap for the
                # stamps that will follow.  A forward run then sustains
                # ~log_{8/7}(gap) inserts before exhausting the gap --
                # past BUCKET_CAPACITY, so the bucket splits before it
                # ever needs a respace.
                local = s.local + ((nxt.local - s.local) >> 3)
                if local == s.local:
                    self._respace(bucket)
                    continue
            # Place the stamp (inline: this is the engine's hottest call).
            pool = self._pool
            if pool:
                new = pool.pop()
                new.bucket = bucket
                new.local = local
                new.key = bucket.high | local
                new.live = True
                new.gen += 1
                self.stamps_reused += 1
            else:
                new = Stamp(bucket, local)
                self.stamps_allocated += 1
            new.prev = s
            new.next = nxt
            s.next = new
            if nxt is None:
                self._last = new
            else:
                nxt.prev = new
            if bucket.first is None:
                bucket.first = new
            bucket.count += 1
            self.n_live += 1
            return new

    def _respace(self, bucket: Bucket) -> None:
        """Spread ``bucket``'s locals evenly across the full local range."""
        self.n_relabels += 1
        self.epoch += 1
        step = LOCAL_MAX // (bucket.count + 1)
        high = bucket.high
        local = 0
        node = bucket.first
        for _ in range(bucket.count):
            local += step
            node.local = local
            node.key = high | local
            node = node.next

    def _move_tail(self, s: Stamp) -> None:
        """Split ``s``'s full bucket after ``s`` (see the module docstring)."""
        self.n_relabels += 1
        self.epoch += 1
        bucket = s.bucket
        new_bucket = self._bucket_after(bucket)
        high = new_bucket.high
        moved = s.next
        new_bucket.first = moved
        count = 0
        while moved is not None and moved.bucket is bucket:
            moved.bucket = new_bucket
            moved.key = high | moved.local
            count += 1
            moved = moved.next
        bucket.count -= count
        new_bucket.count = count

    def _bucket_after(self, bucket: Bucket) -> Bucket:
        """Insert and return a fresh empty bucket right after ``bucket``."""
        while True:
            nxt = bucket.next
            if nxt is None:
                label = bucket.label + SPACING
            else:
                gap = nxt.label - bucket.label
                if gap < 2:
                    self._relabel_buckets_from(bucket)
                    continue
                label = bucket.label + (gap >> 1)
            new = Bucket(label)
            new.prev = bucket
            new.next = nxt
            bucket.next = new
            if nxt is None:
                self._last_bucket = new
            else:
                nxt.prev = new
            self.n_buckets += 1
            return new

    def _relabel_buckets_from(self, bucket: Bucket) -> None:
        """Renumber a top-level window after ``bucket``.

        Classic list-labeling: the window grows until its label range
        exceeds the square of its length (or the list ends), then its
        labels are spread evenly -- amortized O(log n) over n / capacity
        top-level entries.  Every stamp in a moved bucket gets its cached
        key refreshed (≤ BUCKET_CAPACITY each).
        """
        self.n_relabels += 1
        self.epoch += 1
        window = []
        node = bucket.next
        j = 1
        while node is not None and node.label - bucket.label <= j * j:
            window.append(node)
            node = node.next
            j += 1
        if node is None:
            # Ran off the end: renumber the tail with full spacing.
            label = bucket.label
            for w in window:
                label += SPACING
                self._set_bucket_label(w, label)
            return
        span = node.label - bucket.label
        step = span // (len(window) + 1)
        if step < 1:  # pragma: no cover - density condition prevents this
            raise AssertionError("bucket relabel window too dense")
        label = bucket.label
        for w in window:
            label += step
            self._set_bucket_label(w, label)

    def _set_bucket_label(self, bucket: Bucket, label: int) -> None:
        bucket.label = label
        bucket.high = high = label << LOCAL_BITS
        node = bucket.first
        for _ in range(bucket.count):
            node.key = high | node.local
            node = node.next

    # ------------------------------------------------------------------
    # Deletion

    def delete(self, s: Stamp) -> None:
        """Remove ``s`` from the order.  ``s`` keeps its key but is dead."""
        if s is self.base:
            raise ValueError("cannot delete the base stamp")
        if not s.live:
            return
        s.live = False
        prev, nxt = s.prev, s.next
        assert prev is not None
        prev.next = nxt
        if nxt is None:
            self._last = prev
        else:
            nxt.prev = prev
        s.prev = None
        s.next = None
        s.owner = None
        bucket = s.bucket
        bucket.count -= 1
        if bucket.first is s:
            bucket.first = (
                nxt if nxt is not None and nxt.bucket is bucket else None
            )
        if bucket.count == 0 and bucket is not self._base_bucket:
            self._unlink_bucket(bucket)
        self.n_live -= 1
        pool = self._pool
        if len(pool) < POOL_CAP:
            pool.append(s)

    def _unlink_bucket(self, bucket: Bucket) -> None:
        bprev, bnxt = bucket.prev, bucket.next
        bprev.next = bnxt
        if bnxt is None:
            self._last_bucket = bprev
        else:
            bnxt.prev = bprev
        bucket.prev = None
        bucket.next = None
        self.n_buckets -= 1

    def delete_range(self, a: Stamp, b: Optional[Stamp]) -> list:
        """Remove every stamp strictly between ``a`` and ``b`` (one splice).

        Equivalent to calling :meth:`delete` on each stamp in the range,
        but the surrounding list is spliced once and the live count is
        adjusted once -- trace truncation deletes tens of thousands of
        contiguous stamps, so the per-call bookkeeping is worth hoisting.
        ``b`` may be None to mean "end of the order".  ``a`` and ``b``
        themselves are kept; ``b is a`` names an empty interval.

        Returns the owners the removed stamps carried, in order, so the
        engine retracts them without walking the range a second time.
        """
        owners: list = []
        if b is a:
            return owners
        node = a.next
        if node is None or node is b:
            return owners
        pool = self._pool
        base_bucket = self._base_bucket
        removed = 0
        while node is not None and node is not b:
            nxt = node.next
            owner = node.owner
            if owner is not None:
                owners.append(owner)
                node.owner = None
            node.live = False
            node.prev = None
            node.next = None
            bucket = node.bucket
            bucket.count -= 1
            if bucket.first is node:
                bucket.first = (
                    nxt if nxt is not None and nxt.bucket is bucket else None
                )
            if bucket.count == 0 and bucket is not base_bucket:
                self._unlink_bucket(bucket)
            if len(pool) < POOL_CAP:
                pool.append(node)
            removed += 1
            node = nxt
        a.next = b
        if b is None:
            self._last = a
        else:
            b.prev = a
        self.n_live -= removed
        return owners

    # ------------------------------------------------------------------
    # Inspection helpers (used by the engine and by tests)

    def iter_between(self, a: Stamp, b: Optional[Stamp]) -> Iterator[Stamp]:
        """Yield live stamps strictly between ``a`` and ``b`` in order.

        ``b`` may be None to mean "end of the order".  The iterator is safe
        against deletion of the *yielded* stamp between steps.
        """
        node = a.next
        while node is not None and node is not b:
            nxt = node.next
            yield node
            node = nxt

    def __iter__(self) -> Iterator[Stamp]:
        node: Optional[Stamp] = self.base
        while node is not None:
            yield node
            node = node.next

    def stats(self) -> dict:
        """Structure statistics (consumed by the profiling harness)."""
        return {
            "live_stamps": self.n_live,
            "buckets": self.n_buckets,
            "relabels": self.n_relabels,
            "epoch": self.epoch,
            "stamps_allocated": self.stamps_allocated,
            "stamps_reused": self.stamps_reused,
            "pooled": len(self._pool),
        }

    def check(self) -> None:
        """Verify internal invariants (test hook).

        Keys strictly increase along the stamp list; bucket structure is
        consistent (counts, first pointers, label packing, top-level label
        order); the live count and last pointers are accurate.
        """
        node = self.base
        count = 1
        while node.next is not None:
            nxt = node.next
            if not (node.key < nxt.key):
                raise AssertionError(
                    f"keys out of order: {node.key} !< {nxt.key}"
                )
            if nxt.prev is not node:
                raise AssertionError("broken back link")
            node = nxt
            count += 1
        if node is not self._last:
            raise AssertionError("stale last pointer")
        if count != self.n_live:
            raise AssertionError(f"live count {self.n_live} != walked {count}")
        # Bucket-level invariants.
        bucket = self._first_bucket
        n_buckets = 0
        total = 0
        prev_bucket = None
        while bucket is not None:
            n_buckets += 1
            if prev_bucket is not None:
                if not (prev_bucket.label < bucket.label):
                    raise AssertionError(
                        f"bucket labels out of order: "
                        f"{prev_bucket.label} !< {bucket.label}"
                    )
                if bucket.prev is not prev_bucket:
                    raise AssertionError("broken bucket back link")
            if bucket.count < 0:
                raise AssertionError("negative bucket count")
            if bucket.high != bucket.label << LOCAL_BITS:
                raise AssertionError("stale cached bucket high label")
            if bucket.count:
                node = bucket.first
                if node is None:
                    raise AssertionError("populated bucket without first")
                prev_local = -1
                for _ in range(bucket.count):
                    if node is None or node.bucket is not bucket:
                        raise AssertionError("bucket count overruns members")
                    if not (prev_local < node.local):
                        raise AssertionError("locals out of order in bucket")
                    if node.local >= LOCAL_MAX:
                        raise AssertionError("local label out of range")
                    expected = (bucket.label << LOCAL_BITS) | node.local
                    if node.key != expected:
                        raise AssertionError(
                            f"stale packed key {node.key} != {expected}"
                        )
                    prev_local = node.local
                    node = node.next
                if node is not None and node.bucket is bucket:
                    raise AssertionError("bucket members overrun count")
            elif bucket is not self._base_bucket:
                raise AssertionError("empty non-base bucket left linked")
            total += bucket.count
            prev_bucket = bucket
            bucket = bucket.next
        if prev_bucket is not self._last_bucket:
            raise AssertionError("stale last-bucket pointer")
        if n_buckets != self.n_buckets:
            raise AssertionError(
                f"bucket count {self.n_buckets} != walked {n_buckets}"
            )
        if total != self.n_live:
            raise AssertionError(
                f"bucket totals {total} != live count {self.n_live}"
            )
