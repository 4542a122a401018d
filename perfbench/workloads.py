"""The three benchmark workloads, driven through the public surfaces.

Each workload is a closed loop in one process: the next op starts when
the previous one has answered.  Every workload returns the same raw
record (:class:`Record`): set-up time, op latencies, op-phase wall time,
restart samples, and the oracle's verdicts.  The oracle is pure Python:
``App.reference`` on the current input data (msort) or the benchmark's
own shadow copy of every document (pool-durable).  It never runs the
program's conventional interpreter, which shares the compiler under test.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: name -> (n, mode, full read every k-th op; 0 = never)
MSORT = {
    "msort-eager": (256, "eager", 0),
    "msort-lazy-sparse": (512, "lazy", 16),
}
#: Restarts are spread evenly through the op phase, between op segments:
#: each samples a different session state and a different moment of the
#: host, so the median is not set by one slow stretch, and the op phase
#: itself spans the whole run, so it averages over the host's slow and
#: fast minutes instead of sampling one of them.
MSORT_RESTARTS = 7
POOL_RESTARTS = 7
POOL_DOCS = 200
POOL_N = 64
#: traced runs alternate traced and untraced slices of this many seconds
TRACE_SLICE_S = 1.0


@dataclass
class Record:
    setup_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    op_wall_s: float = 0.0
    restart_s: List[float] = field(default_factory=list)
    first_update_s: List[float] = field(default_factory=list)
    #: msort: seconds inside Session.restore, timed by the restart processes
    restore_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: deterministic counts the benchmark itself takes (snapshot bytes,
    #: journal records replayed, head/full read mix, ...)
    counts: Dict[str, float] = field(default_factory=dict)
    #: time windows for the per-layer split: name -> [(start, end), ...]
    windows: Dict[str, list] = field(default_factory=dict)
    #: traced runs: op counts and wall per slice kind, counter deltas
    slices: Dict[str, float] = field(default_factory=dict)
    slice_counts: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one oracle-checked outcome."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class OpClock:
    """Op-phase clock, possibly over several segments (msort restarts
    between them).  Sums op-phase wall time and counter deltas
    over the segments.  In a traced run it alternates traced and untraced
    slices, so the tracing overhead is measured against interleaved
    untraced ops of the same run, and counter deltas of the traced slices
    are kept apart for the per-layer metrics."""

    def __init__(
        self,
        record: Record,
        tracer: Optional[Tracer],
        counters: Callable[[], Dict[str, float]],
    ) -> None:
        self.record = record
        self.tracer = tracer
        self.counters = counters
        self.traced = False

    def begin(self, seconds: float, max_ops: Optional[int] = None) -> None:
        now = perf_counter()
        self.start = now
        self.deadline = now + seconds
        self.max_ops = max_ops
        self.ops = 0
        self._phase_base = self.counters()
        self._slice_start = now
        self._slice_ops = 0
        if self.tracer is not None:
            self._switch(now, closing=False)

    def _switch(self, now: float, *, closing: bool) -> None:
        rec = self.record
        kind = "traced" if self.traced else "untraced"
        if now > self._slice_start:
            rec.slices[kind + "_s"] = rec.slices.get(kind + "_s", 0.0) + (
                now - self._slice_start
            )
            rec.slices[kind + "_ops"] = (
                rec.slices.get(kind + "_ops", 0) + self._slice_ops
            )
        if self.traced:
            self.tracer.uninstall()
            for key, value in self.counters().items():
                rec.slice_counts[key] = rec.slice_counts.get(key, 0) + (
                    value - self._base.get(key, 0)
                )
            rec.windows.setdefault("op", []).append((self._slice_start, now))
        self.traced = not self.traced and not closing
        if self.traced:
            self._base = self.counters()
            self.tracer.install()
        self._slice_start = now
        self._slice_end = now + TRACE_SLICE_S
        self._slice_ops = 0

    def next_op(self) -> bool:
        """True while the segment should start another op."""
        now = perf_counter()
        if self.max_ops is not None:
            if self.ops >= self.max_ops:
                return False
        elif now >= self.deadline:
            return False
        if self.tracer is not None and now >= self._slice_end:
            self._switch(now, closing=False)
        self.ops += 1
        return True

    def op_done(self) -> None:
        self._slice_ops += 1

    def end(self) -> None:
        now = perf_counter()
        rec = self.record
        rec.op_wall_s += now - self.start
        if self.tracer is not None:
            self._switch(now, closing=True)
        else:
            rec.windows.setdefault("op", []).append((self.start, now))
        for key, value in self.counters().items():
            rec.add("op." + key, value - self._phase_base.get(key, 0))


# -- msort --------------------------------------------------------------


def snapshot_bytes(path: str) -> int:
    """Bytes of a snapshot's sections (its header carries a wall-clock
    timestamp, so the file size is not a deterministic count)."""
    from repro.persist import read_header

    return sum(s["len"] for s in read_header(path)["sections"])


def _head(value: Any) -> Any:
    from repro.sac.modifiable import Modifiable

    while isinstance(value, Modifiable):
        value = value.peek()
    if value.arg is None:
        return None
    return value.arg[0]


def _full_read(session) -> list:
    if session.mode == "lazy":
        session.demand()
    return session.app.readback(session.output)


def _msort_op(session, rng, step: int, full: bool, rec: Record) -> float:
    """One client op: edit, bring the output up to date, read it back.
    Returns its latency; the oracle check runs after the clock stops."""
    app = session.app
    handle = session.input_handle
    t0 = perf_counter()
    try:
        app.apply_change(handle, rng, step)
        if full:
            value = _full_read(session)
        elif session.mode == "lazy":
            value = _head(session.get(session.output))
        else:
            session.propagate()
            value = _head(session.output)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        rec.attempted += 1
        rec.fail(f"op {step}: {type(exc).__name__}: {exc}")
        return perf_counter() - t0
    latency = perf_counter() - t0
    expected = app.reference(app.handle_data(handle))
    if full:
        rec.check(value == expected, f"op {step}: full read differs")
        rec.add("reads.full", 1)
    else:
        rec.check(
            value == (expected[0] if expected else None),
            f"op {step}: head {value!r} != {expected[:1]!r}",
        )
        rec.add("reads.head", 1)
    return latency


def msort_setup(name: str, seed: int):
    """Compile, marshal and run msort on the seed's input, then read the
    output back: the set-up the user waits for.  Returns the session,
    the seconds it took, and whether the output matched the oracle."""
    from repro.api import Session
    from repro.apps import REGISTRY

    n, mode, _full = MSORT[name]
    app = REGISTRY["msort"]
    data = app.make_data(n, random.Random(seed))
    t0 = perf_counter()
    session = Session(app, mode=mode)
    session.prepare(data=data)
    session.run()
    value = _full_read(session)
    seconds = perf_counter() - t0
    return session, t0, seconds, value == app.reference(data)


def run_msort(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    workdir: str,
    max_ops: Optional[int] = None,
    between: Optional[Callable[[int, int], None]] = None,
) -> Record:
    rec = Record()
    if tracer is not None:
        tracer.install()
    session, t_setup, rec.setup_s, ok = msort_setup(name, seed)
    if tracer is not None:
        tracer.uninstall()
    rec.windows["setup"] = [(t_setup, t_setup + rec.setup_s)]
    rec.check(ok, "initial output differs from the oracle")
    m0 = session.engine.meter.snapshot()
    rec.counts["run.reads"] = m0["reads_executed"]
    rec.counts["run.mods"] = m0["mods_created"]

    _n, _mode, full_every = MSORT[name]
    rng = random.Random(seed * 7919 + 1)

    def counters() -> Dict[str, float]:
        engine = session.engine
        counts = dict(engine.meter.snapshot())
        counts["order_relabels"] = engine.order.n_relabels
        return counts

    # Warm restarts between the op segments: snapshot the live session;
    # a fresh process (a fresh heap, as after a crash) restores it from
    # disk, makes one edit and reads the fresh value back.
    clock = OpClock(rec, tracer, counters)
    step = 0
    parts = MSORT_RESTARTS + 1
    for segment in range(parts):
        if segment:
            _msort_restart_cycle(rec, tracer, session, name, seed, step, workdir)
            if between is not None:
                between(segment, parts)
        clock.begin(seconds / parts, _share(max_ops, segment, parts))
        while clock.next_op():
            full = full_every > 0 and step % full_every == full_every - 1
            if tracer is not None:
                tracer.op_id.set(step)
            rec.latencies.append(_msort_op(session, rng, step, full, rec))
            clock.op_done()
            step += 1
        clock.end()
    if tracer is not None:
        tracer.op_id.set(-1)
    rec.check(
        _full_read(session) == session.app.reference(
            session.app.handle_data(session.input_handle)
        ),
        "output after the op phase differs",
    )
    return rec


def _share(total: Optional[int], k: int, parts: int) -> Optional[int]:
    """The ``k``-th of ``parts`` near-equal shares of ``total`` ops."""
    if total is None:
        return None
    return total * (k + 1) // parts - total * k // parts


def _msort_restart_cycle(rec, tracer, session, name, seed, step, workdir) -> None:
    t0 = perf_counter()
    if tracer is not None:
        tracer.op_id.set(-1)
        tracer.install()
    path = os.path.join(workdir, f"{name}-{step}.snap")
    try:
        session.snapshot(path)
        rec.add("snapshot.bytes", snapshot_bytes(path))
        child = _restart_child(name, seed, path, step)
    except (OSError, RuntimeError, ValueError) as exc:
        rec.attempted += 1
        rec.fail(f"restart at op {step}: {type(exc).__name__}: {exc}")
        return
    finally:
        if tracer is not None:
            tracer.uninstall()
        rec.windows.setdefault("restart", []).append((t0, perf_counter()))
        if os.path.exists(path):
            os.remove(path)
    rec.restart_s.append(child["restart_s"])
    rec.first_update_s.append(child["first_update_s"])
    rec.restore_s.append(child["restore_s"])
    rec.attempted += child["attempted"]
    rec.failed += child["failed"]
    rec.errors.extend(f"restart at op {step}: {e}" for e in child["errors"])


def _restart_child(name: str, seed: int, path: str, step: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--restart-from", path, "--step", str(step)],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def msort_restart(name: str, seed: int, path: str, step: int) -> dict:
    """The restart a fresh process makes: restore the snapshot, make one
    edit, read the fresh head back, then check the whole output against
    the oracle."""
    from repro.api import Session
    from repro.apps import REGISTRY

    rec = Record()
    app = REGISTRY["msort"]
    t0 = perf_counter()
    session = Session.restore(path, app)
    restore_s = perf_counter() - t0
    latency = _msort_op(session, random.Random(seed * 7919 + 2 + step), step, False, rec)
    restart_s = perf_counter() - t0
    rec.check(
        _full_read(session) == app.reference(app.handle_data(session.input_handle)),
        "output after the restart differs",
    )
    return {
        "restart_s": restart_s,
        "restore_s": restore_s,
        "first_update_s": latency,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
    }


# -- pool-durable -------------------------------------------------------


class _Conn:
    """A bare frame client: one request in flight, newline-delimited
    JSON.  The benchmark encodes and decodes its own frames so that the
    server's frame layer is the only one the trace times."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.seq = 0

    @classmethod
    async def connect(cls, port: int) -> "_Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=2**22
        )
        return cls(reader, writer)

    async def request(self, frame: dict, frame_id: Optional[int] = None) -> dict:
        self.seq += 1
        frame["id"] = self.seq if frame_id is None else frame_id
        self.writer.write(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _close(a: float, b: float) -> bool:
    return isinstance(a, float) and abs(a - b) <= 1e-9 * max(1.0, abs(b))


class PoolRun:
    """One SessionPool with a checkpoint directory, served over a local
    TCP socket inside this process, plus the benchmark's one client
    connection.  One: the server shares this process and its event loop,
    so a second client adds no parallelism, only queueing behind the
    other's checkpoints, which made p95 bimodal."""

    def __init__(self, seed: int, workdir: str, rec: Record) -> None:
        from repro.apps.vectors import ref_vec_reduce

        self.reference = ref_vec_reduce
        self.rec = rec
        self.ckpt = os.path.join(workdir, "checkpoints")
        rng = random.Random(seed)
        self.docs = [f"doc{i}" for i in range(POOL_DOCS)]
        self.shadow = {
            d: [0.5 + rng.random() for _ in range(POOL_N)] for d in self.docs
        }
        self.pool = None
        self.server = None
        self.conn: Optional[_Conn] = None

    async def start(self) -> None:
        from repro.server import SessionPool, serve

        # The journal is written and flushed on every edit, but not
        # fsync'd: the latency of a disk flush is the shared host's, and
        # it swung update times from run to run far more than the program.
        self.pool = SessionPool(checkpoint_dir=self.ckpt, journal_fsync=False)
        self.server = await serve(self.pool, host="127.0.0.1", port=0)
        port = self.server.sockets[0].getsockname()[1]
        self.conn = await _Conn.connect(port)

    async def open_all(self, *, with_data: bool) -> List[dict]:
        replies = []
        for d in self.docs:
            frame = {"op": "open", "doc": d, "app": "vec-reduce", "n": POOL_N}
            if with_data:
                frame["data"] = self.shadow[d]
            replies.append(await self.conn.request(frame))
        return replies

    def check_opened(self, replies: List[dict], *, recovered: bool) -> None:
        for reply in replies:
            d = reply.get("doc")
            ok = (
                reply.get("ok") is True
                and reply.get("recovered") is recovered
                and _close(reply.get("value"), self.reference(self.shadow[d]))
            )
            self.rec.check(ok, f"open {d}: {reply}")
            self.rec.add("journal.replayed", reply.get("replayed", 0) or 0)

    async def op(self, rng: random.Random, op_id: int, doc: Optional[str] = None) -> float:
        """edit one random cell of ``doc`` (default: a random document),
        then get the document's output; check the reply against the
        shadow."""
        d = doc or rng.choice(self.docs)
        i = rng.randrange(POOL_N)
        v = 0.5 + rng.random()
        conn = self.conn
        t0 = perf_counter()
        try:
            ack = await conn.request(
                {"op": "edit", "doc": d, "cell": f"cell:{i}", "value": v}, op_id
            )
            got = await conn.request({"op": "get", "doc": d, "cell": "out"}, op_id)
        except (ConnectionError, ValueError) as exc:
            self.rec.attempted += 1
            self.rec.fail(f"op {op_id}: {type(exc).__name__}: {exc}")
            return perf_counter() - t0
        latency = perf_counter() - t0
        if ack.get("ok"):
            self.shadow[d][i] = v
        ok = (
            ack.get("ok") is True
            and got.get("ok") is True
            and _close(got.get("value"), self.reference(self.shadow[d]))
        )
        self.rec.check(ok, f"op {op_id}: {ack} {got}")
        return latency

    async def spread_checkpoints(self, rng: random.Random) -> None:
        """Give each document a random number (below the checkpoint
        interval) of acknowledged edits in one ``batch`` frame.

        Every ``open`` checkpoints its document, so right after set-up or
        a restart all documents would reach their next checkpoint at the
        same moment.  A long-running server has them spread out; so does
        the benchmark, and a restart replays a journal suffix of the size
        a crash at a random moment leaves behind."""
        every = self.pool.checkpoint_every
        for d in self.docs:
            edits = [
                [rng.randrange(POOL_N), 0.5 + rng.random()]
                for _ in range(rng.randrange(every))
            ]
            if not edits:
                continue
            reply = await self.conn.request({
                "op": "batch",
                "doc": d,
                "edits": [[f"cell:{i}", v] for i, v in edits],
            })
            if reply.get("ok"):
                for i, v in edits:
                    self.shadow[d][i] = v
            self.rec.check(reply.get("ok") is True, f"batch {d}: {reply}")

    async def warm_up(self, rng: random.Random) -> None:
        """One untimed op on every document: the first op on a freshly
        opened or restored document runs several times slower than the
        ones after it, and would otherwise crowd the op phase's p95."""
        for d in self.docs:
            await self.op(rng, 0, d)

    async def abandon(self) -> None:
        """Drop the pool without a graceful stop: no final checkpoints,
        the journals keep every acknowledged edit since the last one."""
        await self.conn.close()
        self.server.close()
        await self.server.wait_closed()
        for task in asyncio.all_tasks():
            if task.get_name() == "sessionpool-pump":
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self.pool = self.server = self.conn = None

    def counters(self) -> Dict[str, float]:
        pool = self.pool
        out: Dict[str, float] = {"order_relabels": 0, "journal_records": 0}
        for doc in pool.docs.values():
            engine = doc.session.engine
            for key, value in engine.meter.__dict__.items():
                out[key] = out.get(key, 0) + value
            out["order_relabels"] += engine.order.n_relabels
            out["journal_records"] += doc.journal.appended
        out["pool_checkpoints"] = pool.checkpoints
        out["scheduler_rotations"] = pool.scheduler.rotations
        return out


async def pool_setup(seed: int, workdir: str, rec: Record) -> PoolRun:
    """Start the pool and open every document with its first checkpoint."""
    run = PoolRun(seed, workdir, rec)
    t0 = perf_counter()
    await run.start()
    replies = await run.open_all(with_data=True)
    rec.setup_s = perf_counter() - t0
    rec.windows["setup"] = [(t0, t0 + rec.setup_s)]
    run.check_opened(replies, recovered=False)
    return run


async def _run_pool(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    workdir: str,
    max_ops: Optional[int],
    between: Optional[Callable[[int, int], None]],
) -> Record:
    rec = Record()
    if tracer is not None:
        tracer.install()
    run = await pool_setup(seed, workdir, rec)
    if tracer is not None:
        tracer.uninstall()
    rec.counts["run.reads"] = sum(
        d.session.engine.meter.reads_executed for d in run.pool.docs.values()
    )
    rec.counts["run.mods"] = sum(
        d.session.engine.meter.mods_created for d in run.pool.docs.values()
    )

    # Crash-style restarts between the op segments, as for msort.
    # Opening checkpoints every document, so after set-up and after each
    # restart the journal suffixes are spread again, then every document
    # is warmed up.
    rng = random.Random(seed * 1000 + 1)
    restart_rng = random.Random(seed * 1000 + 99)
    await run.spread_checkpoints(random.Random(seed * 1000))
    await run.warm_up(rng)
    clock = OpClock(rec, tracer, run.counters)
    op_id = 0
    parts = POOL_RESTARTS + 1
    for segment in range(parts):
        if segment:
            await _pool_restart(run, rec, tracer, restart_rng, segment)
            await run.spread_checkpoints(restart_rng)
            await run.warm_up(rng)
            if between is not None:
                between(segment, parts)
        clock.begin(seconds / parts, _share(max_ops, segment, parts))
        while clock.next_op():
            op_id += 1
            rec.latencies.append(await run.op(rng, op_id))
            clock.op_done()
        clock.end()
    rec.counts["snapshot.bytes"] = sum(
        snapshot_bytes(os.path.join(run.ckpt, f))
        for f in sorted(os.listdir(run.ckpt))
        if f.endswith(".snap")
    )
    await run.abandon()
    return rec


async def _pool_restart(run: PoolRun, rec: Record, tracer, rng, cycle: int) -> None:
    """Abandon the pool (its garbage is collected before the clock
    starts, as a dead process leaves none), reopen every document from
    its checkpoint plus journal suffix, then one edit and a fresh read."""
    await run.abandon()
    gc.collect()
    if tracer is not None:
        tracer.op_id.set(-1)
        tracer.install()
    t0 = perf_counter()
    await run.start()
    replies = await run.open_all(with_data=False)
    run.check_opened(replies, recovered=True)
    latency = await run.op(rng, -cycle)
    rec.restart_s.append(perf_counter() - t0)
    rec.first_update_s.append(latency)
    if tracer is not None:
        tracer.uninstall()
    rec.windows.setdefault("restart", []).append((t0, perf_counter()))


def run_pool(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    workdir: str,
    max_ops: Optional[int] = None,
    between: Optional[Callable[[int, int], None]] = None,
) -> Record:
    return asyncio.run(_run_pool(seed, seconds, tracer, workdir, max_ops, between))


def pool_setup_only(seed: int, workdir: str) -> Record:
    async def go() -> Record:
        rec = Record()
        run = await pool_setup(seed, workdir, rec)
        await run.abandon()
        return rec

    return asyncio.run(go())


def run_workload(name, seed, seconds, tracer, workdir, max_ops=None, between=None):
    """Run one workload.  ``between(k, parts)``, if given, is called
    after the k-th of ``parts - 1`` restarts, with the op clock
    stopped."""
    os.makedirs(workdir, exist_ok=True)
    try:
        if name in MSORT:
            return run_msort(name, seed, seconds, tracer, workdir, max_ops, between)
        return run_pool(seed, seconds, tracer, workdir, max_ops, between)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
