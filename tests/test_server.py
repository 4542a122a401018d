"""The SessionPool server: pool semantics, frame protocol, fairness, and
multi-session fault isolation.

Everything here runs real asyncio (via ``asyncio.run`` -- no plugin
dependency) against in-process servers on ephemeral ports or unix
sockets.  The correctness bar throughout is the app's reference function
over the document's *current* marshalled data (``app.handle_data``), the
same oracle the chaos harness uses, so a drained document is checked
against from-scratch truth, not against itself.
"""

import asyncio
import json
import os
import random

import pytest

from repro.api import Session, values_close
from repro.apps import REGISTRY
from repro.obs.faults import FaultInjector, PlantedFault
from repro.obs.invariants import check_trace
from repro.persist import (
    SnapshotMismatchError,
    read_header,
    read_snapshot,
    replay_journal,
)
from repro.persist.snapshot import MAGIC, write_snapshot
from repro.server import (
    CellTypeError,
    Client,
    DocError,
    DocFailedError,
    FairScheduler,
    QuotaExceededError,
    ServerError,
    SessionPool,
    UnknownDocError,
    serve,
)


def _expected(pool, name):
    """From-scratch reference value of a pooled document's output."""
    session = pool.docs[name].session
    return session.app.reference(session.app.handle_data(session.input_handle))


# ----------------------------------------------------------------------
# The handle layer (Session API the wire builds on)


def test_handle_bind_resolve_roundtrip():
    session = Session("vec-reduce", mode="lazy")
    rng = random.Random(0)
    out = session.run(data=session.app.make_data(8, rng))
    name = session.handle(session.input_handle.mods[3], "cell:3")
    assert name == "cell:3"
    assert session.resolve("cell:3") is session.input_handle.mods[3]
    # Idempotent: rebinding the same mod returns the same handle.
    assert session.handle(session.input_handle.mods[3]) == "cell:3"
    # Generated names are stable and fresh.
    auto = session.handle(out)
    assert auto.startswith("mod:")
    assert session.resolve(auto) is out
    assert set(session.handles()) == {"cell:3", auto}


def test_handle_conflicts_and_unknowns_raise():
    session = Session("vec-reduce", mode="lazy")
    rng = random.Random(0)
    session.run(data=session.app.make_data(4, rng))
    mods = session.input_handle.mods
    session.handle(mods[0], "a")
    with pytest.raises(ValueError):
        session.handle(mods[0], "b")  # already bound under another name
    with pytest.raises(ValueError):
        session.handle(mods[1], "a")  # name taken by a different mod
    with pytest.raises(KeyError):
        session.resolve("nope")
    with pytest.raises(TypeError):
        session.handle(42)


def test_edit_and_get_accept_handles():
    from repro.apps.vectors import tree_sum

    session = Session("vec-reduce", mode="lazy")
    rng = random.Random(1)
    out = session.run(data=session.app.make_data(8, rng))
    session.handle(session.input_handle.mods[0], "cell:0")
    session.handle(out, "out")
    assert session.edit("cell:0", 3.5) > 0
    data = session.app.handle_data(session.input_handle)
    assert values_close(session.get("out"), tree_sum(data))
    assert session.get("cell:0") == 3.5


# ----------------------------------------------------------------------
# The fair scheduler


def test_scheduler_round_robin_order():
    sched = FairScheduler()
    assert sched.next() is None
    sched.enqueue("a")
    sched.enqueue("b")
    assert sched.enqueue("a") is False  # idempotent admission
    assert len(sched) == 2
    assert sched.next() == "a"
    sched.requeue("a")  # budget ran out: back of the ring
    assert sched.next() == "b"
    assert sched.next() == "a"
    assert sched.next() is None
    assert sched.stats()["rotations"] == 1


def test_scheduler_discard_removes_everywhere():
    sched = FairScheduler()
    for key in ("a", "b", "c"):
        sched.enqueue(key)
    sched.discard("b")
    assert [sched.next(), sched.next(), sched.next()] == ["a", "c", None]


# ----------------------------------------------------------------------
# Pool semantics (no sockets)


def test_pool_open_edit_demand_oracle():
    async def main():
        pool = SessionPool(mode="lazy", slice_budget=64)
        info = pool.open("doc", app="vec-reduce", n=32, seed=7)
        assert info["cells"] == 32
        await pool.edit("doc", "cell:4", 2.0)
        await pool.edit("doc", "cell:9", 0.5)
        result = await pool.demand("doc")
        assert values_close(result["value"], _expected(pool, "doc"))
        one = await pool.get("doc", "cell:4")
        assert one["value"] == 2.0
        both = await pool.demand("doc", ["out", "cell:9"])
        assert values_close(both["values"][0], _expected(pool, "doc"))
        assert both["values"][1] == 0.5
        await pool.close("doc")
        with pytest.raises(UnknownDocError):
            await pool.get("doc", "out")

    asyncio.run(main())


def test_pool_eager_doc_drains_inline_without_pump():
    async def main():
        pool = SessionPool(mode="eager", slice_budget=8)
        pool.open("doc", app="vec-reduce", n=16, seed=2)
        await pool.edit("doc", "cell:0", 1.25)
        assert not pool.docs["doc"].session.engine.queue
        got = await pool.get("doc", "out")
        assert values_close(got["value"], _expected(pool, "doc"))

    asyncio.run(main())


def test_pool_batch_coalesces_and_lazy_defers():
    async def main():
        pool = SessionPool(mode="lazy", slice_budget=64)
        pool.open("doc", app="vec-reduce", n=16, seed=3)
        result = await pool.batch(
            "doc", [["cell:0", 1.0], ["cell:1", 2.0], ["cell:2", 3.0]]
        )
        assert result["changed"] == 3
        # Lazy: the batch staged without draining.
        assert pool.docs["doc"].session.engine.queue
        got = await pool.demand("doc")
        assert values_close(got["value"], _expected(pool, "doc"))

    asyncio.run(main())


def test_pool_many_sessions_fairly_sliced():
    """Many eager documents with staged work and a tiny slice budget:
    every ack arrives, every doc matches its oracle, and the scheduler
    actually rotated (no document drained in one monopoly)."""

    async def main():
        pool = SessionPool(mode="eager", slice_budget=4)
        await pool.start()
        docs = [f"doc{i}" for i in range(12)]
        for i, name in enumerate(docs):
            pool.open(name, app="vec-reduce", n=32, seed=i)

        async def hammer(name, seed):
            rng = random.Random(seed)
            for _ in range(4):
                cell = f"cell:{rng.randrange(32)}"
                await pool.edit(name, cell, 0.5 + rng.random())

        await asyncio.gather(*(hammer(n, i) for i, n in enumerate(docs)))
        for name in docs:
            got = await pool.get(name, "out")
            assert values_close(got["value"], _expected(pool, name))
        assert pool.scheduler.stats()["rotations"] > 0
        await pool.stop()

    asyncio.run(main())


# ----------------------------------------------------------------------
# The frame protocol over real sockets


def test_protocol_roundtrip_tcp():
    async def main():
        pool = SessionPool(mode="lazy", slice_budget=64)
        server = await serve(pool)
        host, port = server.sockets[0].getsockname()[:2]
        client = await Client.connect(host, port)

        info = await client.open("sheet", app="vec-reduce", n=16, seed=5)
        assert info["cells"] == 16 and info["mode"] == "lazy"
        r = await client.edit("sheet", "cell:3", 1.5)
        assert r["dirtied"] >= 1
        assert values_close(
            await client.get("sheet", "out"), _expected(pool, "sheet")
        )
        r = await client.batch("sheet", [["cell:0", 2.0], ["cell:1", 0.25]])
        assert r["changed"] == 2
        r = await client.demand("sheet", ["out", "cell:0"])
        assert values_close(r["values"][0], _expected(pool, "sheet"))
        stats = await client.stats("sheet")
        assert stats["edits"] == 3 and stats["batches"] == 1
        pool_stats = await client.stats()
        assert pool_stats["documents"] == 1
        r = await client.close_doc("sheet")
        assert r["closed"] is True

        await client.close()
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())


def test_protocol_roundtrip_unix_socket(tmp_path):
    async def main():
        pool = SessionPool(mode="lazy")
        path = str(tmp_path / "repro.sock")
        server = await serve(pool, path=path)
        client = await Client.connect_unix(path)
        await client.open("doc", app="vec-reduce", n=8, seed=1)
        await client.edit("doc", "cell:2", 0.75)
        assert values_close(
            await client.get("doc", "out"), _expected(pool, "doc")
        )
        await client.close()
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())


def test_protocol_errors_keep_the_connection_alive():
    async def main():
        pool = SessionPool(mode="lazy")
        server = await serve(pool)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)

        async def roundtrip(raw: bytes) -> dict:
            writer.write(raw)
            await writer.drain()
            return json.loads(await reader.readline())

        # Malformed JSON, unknown op, unknown doc: each answers ok=false
        # on the same connection instead of dropping it.
        bad = await roundtrip(b"{nope\n")
        assert bad["ok"] is False
        bad = await roundtrip(b'{"op":"warp","doc":"d","id":7}\n')
        assert bad["ok"] is False and bad["id"] == 7
        bad = await roundtrip(b'{"op":"get","doc":"ghost","cell":"out"}\n')
        assert bad["ok"] is False and bad["type"] == "UnknownDocError"
        # ... and the connection still serves real work.
        good = await roundtrip(
            b'{"op":"open","doc":"d","app":"vec-reduce","n":8}\n'
        )
        assert good["ok"] is True and good["cells"] == 8

        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())


def test_msort_open_with_a_repeated_element_gets_an_error_frame():
    """Opening msort on data with a repeated element must answer a typed
    error frame instead of hanging the server (the run would not end)."""

    async def main():
        pool = SessionPool()
        server = await serve(pool)
        host, port = server.sockets[0].getsockname()[:2]
        client = await Client.connect(host, port)
        with pytest.raises(ServerError) as exc_info:
            await client.open("bad", app="msort", data=[3, 1, 3, 2])
        assert exc_info.value.exc_type == "RepeatedElementError"
        assert "bad" not in pool.docs
        info = await client.open("good", app="msort", data=[3, 1, 2])
        assert info["value"] == [1, 2, 3]
        await client.close()
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())


def test_many_concurrent_clients_oracle_checked():
    """The spreadsheet-service shape in miniature: concurrent clients on
    separate connections hammer separate documents; every document's
    final output matches its from-scratch reference."""

    async def main():
        pool = SessionPool(mode="lazy", slice_budget=32)
        server = await serve(pool)
        host, port = server.sockets[0].getsockname()[:2]

        async def client_task(idx: int):
            client = await Client.connect(host, port)
            doc = f"doc{idx}"
            await client.open(doc, app="vec-reduce", n=24, seed=idx)
            rng = random.Random(1000 + idx)
            for _ in range(6):
                cell = f"cell:{rng.randrange(24)}"
                await client.edit(doc, cell, 0.5 + rng.random())
                if rng.random() < 0.5:
                    await client.get(doc, "out")
            value = await client.get(doc, "out")
            await client.close()
            return doc, value

        results = await asyncio.gather(*(client_task(i) for i in range(10)))
        for doc, value in results:
            assert values_close(value, _expected(pool, doc))
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Multi-session fault isolation (the chaos satellite)


def test_faulted_doc_recovers_and_siblings_stay_consistent():
    """One pooled document gets a planted fault mid-drain; it recovers by
    rollback, the retry drains clean, and every sibling document stays
    oracle-consistent with an unpoisoned engine."""

    async def main():
        pool = SessionPool(mode="lazy", slice_budget=64, on_error="rollback")
        docs = [f"doc{i}" for i in range(5)]
        for i, name in enumerate(docs):
            pool.open(name, app="vec-reduce", n=16, seed=i)

        victim = pool.docs["doc2"]
        injector = FaultInjector("read", at=1, during="propagate")
        victim.session.engine.attach_hook(injector)

        rng = random.Random(99)
        for name in docs:
            for _ in range(3):
                await pool.edit(name, f"cell:{rng.randrange(16)}", rng.random())
        for name in docs:
            got = await pool.demand(name)
            assert values_close(got["value"], _expected(pool, name))

        assert injector.fired == 1
        assert victim.rollbacks >= 1 and not victim.failed
        snap = pool.stats()
        assert snap["failed"] == 0
        # The fault stayed where it was planted.
        for name in docs:
            doc = pool.docs[name]
            if name != "doc2":
                assert doc.rollbacks == 0 and doc.faults == 0
            assert not doc.session.engine.poisoned
            check_trace(doc.session.engine)

    asyncio.run(main())


def test_persistent_fault_escalates_to_rebuild():
    """A fault that refires on every retry exhausts the rollback budget
    and escalates to a from-scratch rebuild; the document ends healthy
    (rebuild drops the injecting hook) and its handles are re-bound."""

    async def main():
        pool = SessionPool(
            mode="lazy", slice_budget=64, on_error="rollback", max_rollbacks=2
        )
        pool.open("doc", app="vec-reduce", n=16, seed=4)
        doc = pool.docs["doc"]
        doc.session.engine.attach_hook(
            FaultInjector("read", at=0, during="propagate", repeat=True)
        )
        await pool.edit("doc", "cell:5", 2.5)
        got = await pool.demand("doc")
        assert doc.rebuilds == 1
        assert doc.rollbacks <= 2
        assert not doc.failed
        # Handles survived the rebuild by re-binding.
        assert values_close(got["value"], _expected(pool, "doc"))
        await pool.edit("doc", "cell:1", 1.0)
        got = await pool.demand("doc")
        assert values_close(got["value"], _expected(pool, "doc"))

    asyncio.run(main())


def test_mistyped_edit_is_refused_before_staging(tmp_path):
    """A wire edit whose value does not have its cell's type is refused
    with a typed error before it is staged or journaled -- the document
    never faults on it and keeps answering from-scratch-correct values.
    An int still passes for a float cell."""

    async def main():
        pool = SessionPool(checkpoint_dir=str(tmp_path))
        pool.open("doc", app="msort", n=8, seed=1)
        pool.open("vec", app="vec-reduce", n=8, seed=2)
        doc = pool.docs["doc"]
        wal = pool._doc_paths("doc")[1]
        journaled = os.path.getsize(wal)
        with pytest.raises(CellTypeError) as exc:
            await pool.edit("doc", "cell:3", 777)
        assert exc.value.cell == "cell:3"
        assert not doc.session.engine.queue
        assert os.path.getsize(wal) == journaled
        stats = pool.stats("doc")
        assert not stats["failed"]
        assert stats["faults"] == stats["rollbacks"] == stats["edits"] == 0
        got = await pool.get("doc", "out")
        assert doc.session.app.readback(got["value"]) == _expected(pool, "doc")

        # A batch is refused whole: its well-typed edits are not staged.
        before = pool.docs["vec"].session.resolve("cell:0").value
        with pytest.raises(CellTypeError):
            await pool.batch("vec", [["cell:0", 2.0], ["cell:1", "x"]])
        assert pool.docs["vec"].session.resolve("cell:0").value == before
        # An int edit of a float cell is staged as a float, so the cell
        # keeps taking floats after it.
        await pool.edit("vec", "cell:1", 3)
        assert pool.docs["vec"].session.resolve("cell:1").value == 3.0
        assert type(pool.docs["vec"].session.resolve("cell:1").value) is float
        await pool.edit("vec", "cell:1", 2.5)
        got = await pool.get("vec", "out")
        assert values_close(got["value"], _expected(pool, "vec"))

        # A document opened on JSON integers takes float edits too.
        pool.open("ints", app="vec-reduce", data=[1, 2, 3])
        await pool.batch("ints", [["cell:0", 2.5], ["cell:2", 4]])
        got = await pool.get("ints", "out")
        assert values_close(got["value"], _expected(pool, "ints"))
        with pytest.raises(CellTypeError):
            await pool.edit("ints", "cell:1", True)

    asyncio.run(main())


def test_unrecoverable_doc_fails_alone():
    """With on_error="raise" a faulting document fails permanently -- and
    only that document: siblings keep serving."""

    async def main():
        pool = SessionPool(mode="lazy", slice_budget=64, on_error="raise")
        pool.open("bad", app="vec-reduce", n=8, seed=0)
        pool.open("good", app="vec-reduce", n=8, seed=1)
        pool.docs["bad"].session.engine.attach_hook(
            FaultInjector("read", at=0, during="propagate", exc=PlantedFault)
        )
        await pool.edit("bad", "cell:0", 2.0)
        await pool.edit("good", "cell:0", 3.0)
        with pytest.raises(DocFailedError):
            await pool.demand("bad")
        assert pool.docs["bad"].failed
        with pytest.raises(DocFailedError):
            await pool.get("bad", "out")
        got = await pool.demand("good")
        assert values_close(got["value"], _expected(pool, "good"))
        assert pool.stats()["failed"] == 1

    asyncio.run(main())


def test_server_error_surfaces_doc_failure_to_client():
    async def main():
        pool = SessionPool(mode="lazy", on_error="raise")
        server = await serve(pool)
        host, port = server.sockets[0].getsockname()[:2]
        client = await Client.connect(host, port)
        await client.open("doc", app="vec-reduce", n=8, seed=0)
        pool.docs["doc"].session.engine.attach_hook(
            FaultInjector("read", at=0, during="propagate")
        )
        await client.edit("doc", "cell:0", 9.0)
        with pytest.raises(ServerError):
            await client.demand("doc")
        # The connection -- and the rest of the pool -- keeps working.
        info = await client.open("doc2", app="vec-reduce", n=8, seed=1)
        assert info["ok"] is True
        await client.close()
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Durability: checkpoints, restarts, refused opens, quotas, frames


@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_pool_warm_restart_recovers_checkpointed_state(tmp_path, mode):
    """Stop a checkpointing pool, boot a fresh one on the same directory:
    the document comes back recovered (run on the checkpoint's inputs,
    nothing replayed) and oracle-consistent, ignoring the seed
    arguments."""

    async def main():
        pool = SessionPool(mode=mode, checkpoint_dir=str(tmp_path))
        pool.open("doc", app="vec-reduce", n=16, seed=3)
        await pool.edit("doc", "cell:2", 41.5)
        await pool.edit("doc", "cell:7", -3.25)
        before = (await pool.demand("doc"))["value"]
        await pool.stop()  # final checkpoint absorbs the journal

        reborn = SessionPool(mode=mode, checkpoint_dir=str(tmp_path))
        info = reborn.open("doc", app="vec-reduce", n=16, seed=999)
        assert info["recovered"] is True
        assert info["replayed"] == 0
        got = await reborn.demand("doc")
        assert values_close(got["value"], before)
        assert values_close(got["value"], _expected(reborn, "doc"))
        assert (await reborn.get("doc", "cell:2"))["value"] == 41.5
        # The restored document keeps serving edits durably.
        await reborn.edit("doc", "cell:0", 7.0)
        got = await reborn.demand("doc")
        assert values_close(got["value"], _expected(reborn, "doc"))
        await reborn.stop()

    asyncio.run(main())


def test_pool_default_backend_restores_interp_checkpoints(tmp_path, monkeypatch):
    """Checkpoints written by a pool on ``backend="interp"`` reopen
    under a default ``SessionPool()``: a checkpoint names its own backend,
    so the documents come back on ``interp``, while a new document lands
    on the default ``stack``."""
    monkeypatch.delenv("REPRO_BACKEND", raising=False)

    async def main():
        pool = SessionPool(backend="interp", checkpoint_dir=str(tmp_path))
        before = {}
        for name, seed in (("a", 3), ("b", 4)):
            info = pool.open(name, app="vec-reduce", n=16, seed=seed)
            assert info["backend"] == "interp"
            await pool.edit(name, "cell:2", 41.5 + seed)
            before[name] = (await pool.demand(name))["value"]
        await pool.stop()

        reborn = SessionPool(checkpoint_dir=str(tmp_path))
        for name in ("a", "b"):
            info = reborn.open(name, app="vec-reduce")
            assert info["recovered"] is True
            assert info["backend"] == "interp"
            got = await reborn.demand(name)
            assert values_close(got["value"], before[name])
            assert values_close(got["value"], _expected(reborn, name))
        assert reborn.snapshot_failures == 0
        await reborn.edit("a", "cell:0", 7.0)
        got = await reborn.demand("a")
        assert values_close(got["value"], _expected(reborn, "a"))
        info = reborn.open("c", app="vec-reduce", n=8, seed=1)
        assert info["backend"] == "stack"
        await reborn.stop()

    asyncio.run(main())


def test_pool_replays_journal_suffix_after_simulated_kill(tmp_path):
    """A pool abandoned without stop() (the SIGKILL stand-in: every append
    was fsync'd, no final checkpoint ran) loses zero acknowledged edits:
    the next open replays the journal suffix on top of the snapshot."""

    async def main():
        pool = SessionPool(
            mode="lazy", checkpoint_dir=str(tmp_path), checkpoint_every=10_000
        )
        pool.open("doc", app="vec-reduce", n=16, seed=3)
        await pool.edit("doc", "cell:1", 99.5)
        await pool.edit("doc", "cell:8", -2.0)
        # No stop(), no close(): the process just dies here.

        reborn = SessionPool(mode="lazy", checkpoint_dir=str(tmp_path))
        info = reborn.open("doc", app="vec-reduce", n=16, seed=3)
        assert info["recovered"] is True
        assert info["replayed"] == 2
        assert (await reborn.get("doc", "cell:1"))["value"] == 99.5
        got = await reborn.demand("doc")
        assert values_close(got["value"], _expected(reborn, "doc"))
        await reborn.stop()

    asyncio.run(main())


def test_pool_corrupt_checkpoint_refuses_open(tmp_path):
    """A checkpoint is the only copy of the inputs it recorded, so a
    corrupted one refuses the open with a DocError: no silent revert to
    the seed data, the checkpoint and journal stay byte-identical, and a
    sibling document still opens."""
    from repro.obs.faults import corrupt_file

    async def main():
        pool = SessionPool(mode="lazy", checkpoint_dir=str(tmp_path))
        pool.open("doc", app="vec-reduce", n=16, seed=3)
        await pool.edit("doc", "cell:1", 99.5)
        snap, wal = pool._doc_paths("doc")
        corrupt_file(snap, "flip-byte", seed=5)
        files = (open(snap, "rb").read(), open(wal, "rb").read())

        reborn = SessionPool(mode="lazy", checkpoint_dir=str(tmp_path))
        with pytest.raises(DocError, match="recorded inputs are lost"):
            reborn.open("doc", app="vec-reduce", n=16, seed=3)
        assert "doc" not in reborn.docs
        assert (open(snap, "rb").read(), open(wal, "rb").read()) == files
        # The refused open did not poison the pool: a sibling opens fine.
        reborn.open("doc2", app="vec-reduce", n=8, seed=1)
        got = await reborn.demand("doc2")
        assert values_close(got["value"], _expected(reborn, "doc2"))
        await reborn.stop()

    asyncio.run(main())


async def _checkpoint_absorbed_edit(tmp_path):
    """A stopped pool whose final checkpoint absorbed the only edit (the
    journal is empty afterwards); returns (snapshot path, journal path,
    value)."""
    pool = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
    pool.open("d", app="vec-reduce", n=8, seed=0)
    await pool.edit("d", "cell:0", 5.0)
    value = (await pool.demand("d"))["value"]
    await pool.stop()
    snap, wal = pool._doc_paths("d")
    assert os.path.getsize(wal) == 0
    return snap, wal, value


def _rewrite_snapshot(path, *, header_backend=None, drop=()):
    """Rewrite a snapshot with a different header backend and/or without
    some sections (CRCs recomputed, so the file stays well-formed)."""
    header, sections = read_snapshot(path)
    if header_backend is not None:
        header["content"]["backend"] = header_backend
    for name in drop:
        del sections[name]
    write_snapshot(path, header, sections)


@pytest.mark.parametrize("kind", ["flip-byte", "truncate-tail"])
def test_pool_cold_open_keeps_edits_the_checkpoint_absorbed(tmp_path, kind):
    """A damaged checkpoint must not silently revert the acknowledged
    edits it absorbed: the open is refused with the files left as they
    were, and with the intact file back the document reopens on them."""
    from repro.obs.faults import corrupt_file

    async def main():
        snap, wal, before = await _checkpoint_absorbed_edit(tmp_path)
        intact = open(snap, "rb").read()
        corrupt_file(snap, kind, seed=0)
        damaged = open(snap, "rb").read()

        reborn = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
        with pytest.raises(DocError, match="recorded inputs are lost"):
            reborn.open("d", app="vec-reduce", n=8, seed=0)
        assert "d" not in reborn.docs
        assert open(snap, "rb").read() == damaged
        assert os.path.getsize(wal) == 0
        reborn.open("sibling", app="vec-reduce", n=8, seed=1)

        open(snap, "wb").write(intact)
        info = reborn.open("d", app="vec-reduce", n=8, seed=0)
        assert info["recovered"] is True
        assert values_close(info["value"], before)
        assert (await reborn.get("d", "cell:0"))["value"] == 5.0
        assert values_close(info["value"], _expected(reborn, "d"))
        await reborn.stop()

    asyncio.run(main())


def test_pool_refuses_cold_open_when_checkpoint_inputs_are_lost(tmp_path):
    """Damage that reaches the recorded inputs is a typed DocError, and
    the checkpoint files stay exactly as they were."""

    async def main():
        snap, wal, _before = await _checkpoint_absorbed_edit(tmp_path)
        header = read_header(snap)
        blob = open(snap, "rb").read()
        names = [s["name"] for s in header["sections"]]
        assert names == ["inputs"]
        # Flip the first byte of the inputs section (it follows the header).
        i = blob.index(b"\n", len(MAGIC)) + 1
        damaged = blob[:i] + bytes([blob[i] ^ 0x40]) + blob[i + 1 :]
        open(snap, "wb").write(damaged)

        reborn = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
        with pytest.raises(DocError, match="recorded inputs are lost"):
            reborn.open("d", app="vec-reduce", n=8, seed=0)
        assert "d" not in reborn.docs
        assert open(snap, "rb").read() == damaged
        assert os.path.getsize(wal) == 0

    asyncio.run(main())


def test_pool_reopen_with_nothing_to_replay_keeps_the_checkpoint(tmp_path):
    """A document reopened with an empty journal runs on exactly the
    inputs its checkpoint records, so the open writes no new one."""

    async def main():
        snap, _wal, before = await _checkpoint_absorbed_edit(tmp_path)
        blob = open(snap, "rb").read()
        mtime = os.stat(snap).st_mtime_ns

        reborn = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
        info = reborn.open("d", app="vec-reduce", n=8, seed=0)
        assert (info["recovered"], info["replayed"]) == (True, 0)
        assert values_close(info["value"], before)
        assert reborn.checkpoints == 0
        await reborn.stop()
        assert open(snap, "rb").read() == blob
        assert os.stat(snap).st_mtime_ns == mtime

    asyncio.run(main())


def test_pool_checkpoint_naming_a_removed_backend(tmp_path):
    """A checkpoint whose header names a backend this build lacks is a
    snapshot mismatch for ``Session.restore``, but its inputs are still
    good: a pool reopens the document on its own backend.  Without
    recorded inputs the open is refused -- never a bare ValueError."""
    removed = "compiled"  # the closure backend, no longer in BACKENDS

    async def main():
        snap, _wal, before = await _checkpoint_absorbed_edit(tmp_path)
        _rewrite_snapshot(snap, header_backend=removed)
        with pytest.raises(SnapshotMismatchError, match="'compiled'"):
            Session.restore(snap)

        reborn = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
        info = reborn.open("d", app="vec-reduce", n=8, seed=0)
        assert info["recovered"] is True
        assert info["backend"] != removed
        assert values_close(info["value"], before)
        await reborn.stop()

        _rewrite_snapshot(snap, header_backend=removed, drop=("inputs",))
        kept = open(snap, "rb").read()
        again = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
        with pytest.raises(DocError, match="records no inputs"):
            again.open("d", app="vec-reduce", n=8, seed=0)
        assert open(snap, "rb").read() == kept

    asyncio.run(main())


def test_pool_recovery_ladder_uses_restore_rung(tmp_path):
    """A persistent fault exhausts the rollback budget; with a checkpoint
    on disk the pool reopens the document from it (shedding the faulting
    hook with it) instead of rebuilding from scratch."""

    async def main():
        pool = SessionPool(
            mode="lazy",
            checkpoint_dir=str(tmp_path),
            on_error="rollback",
            max_rollbacks=1,
        )
        pool.open("doc", app="vec-reduce", n=16, seed=4)
        doc = pool.docs["doc"]
        doc.session.engine.attach_hook(
            FaultInjector("read", at=0, during="propagate", repeat=True)
        )
        await pool.edit("doc", "cell:5", 2.5)
        got = await pool.demand("doc")
        assert doc.restores == 1
        assert doc.rebuilds == 0
        assert not doc.failed
        assert values_close(got["value"], _expected(pool, "doc"))
        # The journaled edit survived the restore.
        assert (await pool.get("doc", "cell:5"))["value"] == 2.5
        await pool.stop()

    asyncio.run(main())


# Reopen = one from-scratch run on the checkpoint's inputs with the
# journal suffix applied; the journal is resumed, not re-checkpointed.


def _crashed_pool(tmp_path, mode, backend, edits, **kw):
    """A pool that journaled ``edits`` after its document's first
    checkpoint and was then abandoned (the SIGKILL stand-in: no stop(),
    no final checkpoint)."""

    async def main():
        pool = SessionPool(
            mode=mode, backend=backend, checkpoint_dir=str(tmp_path), **kw
        )
        pool.open("doc", app="vec-reduce", n=16, seed=3)
        for cell, value in edits:
            await pool.edit("doc", cell, value)
        return pool._doc_paths("doc")

    return asyncio.run(main())


def _random_edits(rng, k):
    return [(f"cell:{rng.randrange(16)}", rng.uniform(-4, 4)) for _ in range(k)]


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_pool_reopen_runs_once_on_replayed_inputs(tmp_path, mode, backend):
    """A recovered open applies the journal suffix to the recorded inputs
    and runs once: its value and meter equal a fresh session's on those
    inputs exactly (no propagation, no demand), and it writes no
    checkpoint -- the journal is resumed, counting toward the next one."""
    from repro.persist import read_inputs

    edits = _random_edits(random.Random(7), 5)
    snap, wal = _crashed_pool(
        tmp_path, mode, backend, edits, checkpoint_every=10_000
    )
    blob = open(snap, "rb").read()
    _header, data = read_inputs(snap)
    for cell, value in edits:
        data[int(cell.split(":")[1])] = value

    reborn = SessionPool(mode=mode, checkpoint_dir=str(tmp_path))
    info = reborn.open("doc", app="vec-reduce")
    assert (info["recovered"], info["replayed"]) == (True, len(edits))
    session = reborn.docs["doc"].session
    assert session.app.handle_data(session.input_handle) == data
    fresh = Session("vec-reduce", mode=mode, backend=backend)
    fresh.run(data=data)
    assert info["value"] == fresh.app.readback(fresh.output)
    assert session.engine.meter.snapshot() == fresh.engine.meter.snapshot()
    assert (session.propagations, session.demands) == (0, 0)
    # The run is the last-good state: rollback has nothing to undo.
    assert session.engine.rollback() == (0, 0, 0)
    assert reborn.checkpoints == 0
    assert open(snap, "rb").read() == blob
    assert reborn.docs["doc"].ops_since_checkpoint == len(edits)
    assert len(replay_journal(wal)) == len(edits)


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_pool_second_crash_replays_both_suffixes(tmp_path, mode, backend):
    """crash -> reopen (k replayed) -> m more edits -> crash -> reopen
    replays k + m: the resumed journal kept the first suffix."""
    rng = random.Random(11)
    first, second = _random_edits(rng, 3), _random_edits(rng, 4)
    _crashed_pool(tmp_path, mode, backend, first, checkpoint_every=10_000)

    async def main():
        pool = SessionPool(
            mode=mode, checkpoint_dir=str(tmp_path), checkpoint_every=10_000
        )
        assert pool.open("doc", app="vec-reduce")["replayed"] == len(first)
        for cell, value in second:
            await pool.edit("doc", cell, value)
        live = (await pool.demand("doc"))["value"]
        assert pool.checkpoints == 0

        reborn = SessionPool(mode=mode, checkpoint_dir=str(tmp_path))
        info = reborn.open("doc", app="vec-reduce")
        assert (info["recovered"], info["replayed"]) == (True, 7)
        assert info["backend"] == backend
        assert values_close(info["value"], live)
        assert values_close(info["value"], _expected(reborn, "doc"))
        for cell, value in dict(first + second).items():
            assert (await reborn.get("doc", cell))["value"] == value
        await reborn.stop()

    asyncio.run(main())


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_pool_crash_cycles_keep_the_journal_bounded(tmp_path, mode, backend):
    """A reopened document counts its replayed suffix toward the next
    checkpoint, so crash/reopen cycles that each add one batch keep the
    journal below ``checkpoint_every`` plus one batch."""
    every, size = 8, 5
    rng = random.Random(5)
    _crashed_pool(tmp_path, mode, backend, [], checkpoint_every=every)
    wal = None

    async def cycle():
        pool = SessionPool(
            mode=mode, checkpoint_dir=str(tmp_path), checkpoint_every=every
        )
        info = pool.open("doc", app="vec-reduce")
        await pool.batch("doc", [list(e) for e in _random_edits(rng, size)])
        got = await pool.demand("doc")
        assert values_close(got["value"], _expected(pool, "doc"))
        return info, pool._doc_paths("doc")[1]

    checkpoints = 0
    for _ in range(6):
        info, wal = asyncio.run(cycle())
        journaled = sum(len(edits) for _s, edits in replay_journal(wal))
        assert info["replayed"] < every + size
        assert journaled < every + size
        checkpoints += journaled < info["replayed"] + size
    assert checkpoints >= 2


@pytest.mark.parametrize("backend", ["interp", "stack"])
@pytest.mark.parametrize("mode", ["eager", "lazy"])
def test_pool_restore_rung_replays_the_journal_suffix(tmp_path, mode, backend):
    """The restore rung reopens like open does -- the journal suffix
    applied to the recorded inputs, one run -- and ends
    oracle-consistent, with every journaled edit, the faulting one
    included."""
    edits = _random_edits(random.Random(3), 4)

    async def main():
        pool = SessionPool(
            mode=mode,
            backend=backend,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=10_000,
            max_rollbacks=1,
        )
        pool.open("doc", app="vec-reduce", n=16, seed=4)
        for cell, value in edits:
            await pool.edit("doc", cell, value)
        await pool.demand("doc")
        doc = pool.docs["doc"]
        doc.session.engine.attach_hook(
            FaultInjector("read", at=0, during="propagate", repeat=True)
        )
        await pool.edit("doc", "cell:5", 2.5)
        got = await pool.demand("doc")
        assert (doc.restores, doc.rebuilds, doc.failed) == (1, 0, False)
        assert doc.replayed == len(edits) + 1
        assert doc.session.backend == backend
        assert values_close(got["value"], _expected(pool, "doc"))
        for cell, value in dict(edits + [("cell:5", 2.5)]).items():
            assert (await pool.get("doc", cell))["value"] == value
        # The resumed journal keeps taking edits after the restore.
        await pool.edit("doc", "cell:6", -1.5)
        got = await pool.demand("doc")
        assert values_close(got["value"], _expected(pool, "doc"))
        _snap, wal = pool._doc_paths("doc")
        assert len(replay_journal(wal)) == len(edits) + 2

    asyncio.run(main())


@pytest.mark.parametrize("app", ["msort", "map"])
def test_pool_open_on_another_apps_checkpoint_drops_its_journal(tmp_path, app):
    """A checkpoint of another app yields to the call's data, and so
    does the journal that extends it: nothing is replayed onto the fresh
    document, whose own first checkpoint resets the journal."""
    snap, wal = _crashed_pool(
        tmp_path, "eager", None, [("cell:0", 1.5)], checkpoint_every=10_000
    )

    async def main():
        reborn = SessionPool(mode="eager", checkpoint_dir=str(tmp_path))
        info = reborn.open("doc", app=app, n=4, seed=1)
        assert (info["recovered"], info["replayed"]) == (False, 0)
        assert reborn.snapshot_failures == 1
        assert values_close(info["value"], _expected(reborn, "doc"))
        assert replay_journal(wal) == []
        assert read_header(snap)["content"]["app"] == app
        await reborn.stop()

    asyncio.run(main())


def test_pool_quota_rejects_before_staging_and_clears_on_drain(tmp_path):
    async def main():
        pool = SessionPool(mode="lazy", max_edits_per_round=2)
        pool.open("doc", app="vec-reduce", n=16, seed=0)
        await pool.edit("doc", "cell:0", 1.0)
        await pool.batch("doc", [["cell:1", 2.0]])
        with pytest.raises(QuotaExceededError):
            await pool.edit("doc", "cell:2", 3.0)
        # The rejected edit never touched the engine or the counters.
        assert pool.docs["doc"].edits == 2
        assert pool.stats()["quota_rejections"] == 1
        # The quota hit scheduled the drain it tells the client to wait
        # for (lazy documents otherwise only drain at reads), so the
        # round is already closed and the retry goes through without an
        # intervening read.
        assert pool.docs["doc"].round_edits == 0
        await pool.edit("doc", "cell:2", 3.0)
        got = await pool.demand("doc")
        assert values_close(got["value"], _expected(pool, "doc"))

        tight = SessionPool(mode="lazy", max_bytes_per_round=8)
        tight.open("doc", app="vec-reduce", n=8, seed=0)
        with pytest.raises(QuotaExceededError) as exc:
            await tight.edit("doc", "cell:0", 0.12345678901234567)
        assert exc.value.kind == "byte"

    asyncio.run(main())


def test_pool_quota_write_only_lazy_client_is_not_starved():
    """Lazy documents drain only at reads, so a write-only client that
    hits its per-round quota must still see the round end: the quota hit
    itself schedules (or, pump-less, runs) the drain its error message
    tells the client to wait for."""

    async def main():
        # Without a pump the drain runs inline on the quota hit, so an
        # immediate retry succeeds -- repeatedly, with no read ever.
        pool = SessionPool(mode="lazy", max_edits_per_round=1)
        pool.open("doc", app="vec-reduce", n=8, seed=0)
        await pool.edit("doc", "cell:0", 1.0)
        for i in range(3):
            with pytest.raises(QuotaExceededError):
                await pool.edit("doc", "cell:1", float(i + 10))
            await pool.edit("doc", "cell:1", float(i + 10))
        got = await pool.demand("doc")
        assert values_close(got["value"], _expected(pool, "doc"))

        # With the pump running the quota hit enqueues the document; the
        # pump's drain closes the round without this client reading.
        pumped = await SessionPool(mode="lazy", max_edits_per_round=1).start()
        pumped.open("doc", app="vec-reduce", n=8, seed=0)
        await pumped.edit("doc", "cell:0", 5.0)
        with pytest.raises(QuotaExceededError):
            await pumped.edit("doc", "cell:1", 6.0)
        for _ in range(1000):
            if pumped.docs["doc"].round_edits == 0:
                break
            await asyncio.sleep(0.001)
        assert pumped.docs["doc"].round_edits == 0
        await pumped.edit("doc", "cell:1", 6.0)
        got = await pumped.demand("doc")
        assert values_close(got["value"], _expected(pumped, "doc"))
        await pumped.stop()

    asyncio.run(main())


def test_protocol_oversized_frame_gets_error_not_disconnect():
    """A frame past max_frame draws a typed error frame; the connection
    survives and keeps serving well-formed requests."""

    async def main():
        pool = SessionPool(mode="lazy")
        server = await serve(pool, max_frame=1024)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)

        writer.write(b"x" * 4096 + b"\n")
        await writer.drain()
        err = json.loads(await reader.readline())
        assert err["ok"] is False
        assert err["type"] == "FrameTooLargeError"

        req = {"op": "open", "doc": "d", "app": "vec-reduce", "n": 8}
        writer.write(json.dumps(req).encode() + b"\n")
        await writer.drain()
        resp = json.loads(await reader.readline())
        assert resp["ok"] is True and resp["cells"] == 8

        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        await pool.stop()

    asyncio.run(main())
