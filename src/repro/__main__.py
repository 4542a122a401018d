"""Command-line interface: compile and inspect LML programs.

Usage::

    python -m repro compile program.lml            # type-check + translate
    python -m repro compile program.lml --dump     # print the target code
    python -m repro compile program.lml --dump-conventional
    python -m repro compile program.lml --no-optimize --dump
    python -m repro compile program.lml --counts   # mod/read/write/memo
    python -m repro verify <app> [-n N] [--changes K] [--mode lazy]
    python -m repro trace <app> [-n N] [--changes K] [--out DIR]
    python -m repro chaos <app> [-n N] [--site S] [--mode M]  # fault inject
    python -m repro profile <app> [-n N] [--changes K]  # engine hot-path profile
    python -m repro snapshot save <app> <file> [-n N] [--changes K]
    python -m repro snapshot load <file> [--check]
    python -m repro snapshot inspect <file>
    python -m repro apps                           # list benchmark apps

The ``verify`` subcommand runs the paper's random-change correctness
protocol against one of the bundled benchmark applications.

``verify``, ``trace``, ``chaos``, ``profile``, ``snapshot save`` and ``serve``
accept ``--backend {interp,stack}`` to select the self-adjusting
execution backend: the tree-walking interpreter or the flat stack machine
(README "Backends").  Without the flag
the backend comes from the ``REPRO_BACKEND`` environment variable, else it
is ``stack``.

The ``trace`` subcommand runs an application under full observability:
it records the structured engine event stream, validates the trace
invariants during and after every change propagation, and dumps dynamic-
dependence-graph snapshots (JSON + Graphviz DOT) plus the event log.

The ``chaos`` subcommand exercises the failure model (DESIGN.md
Section 7): it plants deterministic exceptions at trace sites during
change propagation, recovers via ``Session.propagate(on_error=...)``,
and checks the recovered output against a from-scratch oracle.

The ``snapshot`` subcommand writes and reads durable checkpoints
(DESIGN.md Section 10).  A checkpoint records the app, mode, backend and
current input data, not the trace: ``load`` runs the app from scratch on
the recorded inputs, and ``--check`` compares the result with the app's
reference function.

The ``profile`` subcommand runs an app end to end and reports per-phase
wall time and meter deltas, the engine's order-maintenance / dirty-queue /
free-list / relevance-filter statistics, and (by default) the top
propagation call sites by internal time.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.backends import BACKENDS


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.core.pipeline import compile_program
    from repro.lang.errors import LmlError

    try:
        with open(args.file) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        program = compile_program(
            source,
            memoize=not args.no_memoize,
            optimize_flag=not args.no_optimize,
            coarse=args.coarse,
            main=args.main,
        )
    except LmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"compiled OK (main: {args.main})")
    if args.counts or not (args.dump or args.dump_conventional):
        counts = program.primitive_counts()
        print(
            "self-adjusting primitives: "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
    if args.dump_conventional:
        print("\n--- conventional SXML ---")
        print(program.dump_conventional())
    if args.dump:
        print("\n--- translated self-adjusting SXML ---")
        print(program.dump_translated())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.api import VerificationError, verify_app
    from repro.apps import REGISTRY

    if args.app not in REGISTRY:
        print(f"error: unknown app {args.app!r}; see `python -m repro apps`",
              file=sys.stderr)
        return 1
    try:
        result = verify_app(
            REGISTRY[args.app],
            n=args.n,
            changes=args.changes,
            seed=args.seed,
            backend=args.backend,
            batch=args.batch,
            mode=args.mode,
        )
    except (ValueError, VerificationError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {result}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import random

    from repro.apps import REGISTRY
    from repro.obs import (
        EventLog,
        FanoutHook,
        InvariantChecker,
        InvariantViolation,
        check_trace,
    )
    from repro.api import Session, VerificationError, values_close

    if args.app not in REGISTRY:
        print(f"error: unknown app {args.app!r}; see `python -m repro apps`",
              file=sys.stderr)
        return 1
    app = REGISTRY[args.app]
    rng = random.Random(args.seed)
    data = app.make_data(args.n, rng)

    log = EventLog(maxlen=args.max_events, values=args.values)
    hooks = [log]
    checker = None
    if not args.no_check:
        checker = InvariantChecker()
        hooks.append(checker)

    session = Session(app, backend=args.backend, hook=FanoutHook(hooks))
    engine = session.engine
    output = session.run(data=data)
    try:
        if checker is not None:
            check_trace(engine)
        for step in range(args.changes):
            app.apply_change(session.input_handle, rng, step)
            session.propagate()
        got = app.readback(output)
        expected = app.reference(app.handle_data(session.input_handle))
        if not values_close(got, expected):
            raise VerificationError(
                f"output diverges from reference\n"
                f"  got:      {got!r}\n  expected: {expected!r}"
            )
    except (InvariantViolation, VerificationError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        # Dump what we have: the broken trace is the debugging artifact.
        _write_trace_dumps(args, engine, log)
        return 1

    paths = _write_trace_dumps(args, engine, log)
    counts = log.counts()
    print(f"{app.name}: n={args.n}, {args.changes} change(s) propagated")
    print("events: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    meter = engine.meter.snapshot()
    print("meter:  " + ", ".join(f"{k}={v}" for k, v in sorted(meter.items())))
    if checker is not None:
        print(f"invariants: OK ({checker.total_checks()} checks; "
              f"{checker.last_report or check_trace(engine)})")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _write_trace_dumps(args, engine, log) -> list:
    """Write the DDG JSON/DOT snapshots and the event log; return paths."""
    import os

    from repro.obs import ddg_dot, ddg_json

    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, args.app)
    paths = []
    if args.format in ("json", "both"):
        path = base + ".ddg.json"
        with open(path, "w") as fh:
            fh.write(ddg_json(engine, values=args.values) + "\n")
        paths.append(path)
    if args.format in ("dot", "both"):
        path = base + ".ddg.dot"
        with open(path, "w") as fh:
            fh.write(ddg_dot(engine, values=args.values, title=args.app) + "\n")
        paths.append(path)
    if args.events:
        path = base + ".events.jsonl"
        with open(path, "w") as fh:
            fh.write(log.to_jsonl() + "\n")
        paths.append(path)
    return paths


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.apps import REGISTRY
    from repro.obs.faults import SITES, ChaosError, chaos_app
    from repro.obs.invariants import InvariantViolation

    if args.app not in REGISTRY:
        print(f"error: unknown app {args.app!r}; see `python -m repro apps`",
              file=sys.stderr)
        return 1
    sites = tuple(args.site) if args.site else ("read", "mod", "write", "memo-hit")
    for site in sites:
        if site not in SITES:
            print(f"error: unknown site {site!r}; expected one of "
                  f"{sorted(SITES)}", file=sys.stderr)
            return 1
    modes = tuple(args.mode) if args.mode else ("rollback", "rebuild")
    try:
        result = chaos_app(
            REGISTRY[args.app],
            args.n,
            backend=args.backend,
            sites=sites,
            modes=modes,
            changes=args.changes,
            seed=args.seed,
            propagation=args.propagation,
        )
    except (ChaosError, InvariantViolation) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {result}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.apps import REGISTRY
    from repro.obs.profile import profile_app

    if args.app not in REGISTRY:
        print(f"error: unknown app {args.app!r}; see `python -m repro apps`",
              file=sys.stderr)
        return 1
    report = profile_app(
        args.app,
        n=args.n,
        changes=args.changes,
        seed=args.seed,
        backend=args.backend,
        top=args.top,
        callsites=not args.no_callsites,
        events=args.events,
        mode=args.mode,
    )
    print(report.format())
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import json as _json
    import random

    from repro.api import Session
    from repro.apps import REGISTRY
    from repro.persist import PersistError, inspect_snapshot

    try:
        if args.action == "inspect":
            print(_json.dumps(inspect_snapshot(args.file), indent=2))
            return 0
        if args.action == "save":
            if args.app not in REGISTRY:
                print(
                    f"error: unknown app {args.app!r}; see "
                    f"`python -m repro apps`",
                    file=sys.stderr,
                )
                return 1
            app = REGISTRY[args.app]
            rng = random.Random(args.seed)
            session = Session(app, backend=args.backend, mode=args.mode)
            session.run(data=app.make_data(args.n, rng))
            for step in range(args.changes):
                app.apply_change(session.input_handle, rng, step)
                if args.mode == "lazy":
                    session.demand()
                else:
                    session.propagate()
            session.snapshot(args.file)
            print(
                f"saved {args.app} [{session.backend}/{session.mode}] "
                f"n={args.n} changes={args.changes} -> {args.file}: "
                f"{os.path.getsize(args.file)} bytes"
            )
            return 0
        # load
        session = Session.restore(
            args.file, args.app, backend=args.backend
        )
        print(
            f"restored {session.app.name} [{session.backend}/{session.mode}] "
            f"from {args.file}: trace={session.trace_size()}"
        )
        if args.check:
            from repro.api import values_close

            app = session.app
            got = app.readback(session.output)
            expected = app.reference(app.handle_data(session.input_handle))
            if not values_close(got, expected):
                print(
                    f"CHECK FAILED: restored output {got!r} != "
                    f"reference {expected!r}",
                    file=sys.stderr,
                )
                return 1
            print("check OK: restored output matches the reference")
        return 0
    except BrokenPipeError:
        raise  # handled by main(): downstream pager closed the pipe
    except (PersistError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _cmd_apps(_args: argparse.Namespace) -> int:
    from repro.apps import REGISTRY

    for name in sorted(REGISTRY):
        print(name)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import SessionPool, serve

    async def run() -> int:
        pool = SessionPool(
            mode=args.mode,
            backend=args.backend,
            slice_budget=args.slice_budget,
            on_error=args.on_error,
            max_sessions=args.max_sessions,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            journal_fsync=not args.no_journal_fsync,
            max_edits_per_round=args.max_edits_per_round,
            max_bytes_per_round=args.max_bytes_per_round,
        )
        if args.unix:
            server = await serve(
                pool, path=args.unix, max_frame=args.max_frame
            )
            where = args.unix
        else:
            server = await serve(
                pool, host=args.host, port=args.port,
                max_frame=args.max_frame,
            )
            sock = server.sockets[0].getsockname()
            where = f"{sock[0]}:{sock[1]}"
        print(
            f"serving session pool on {where} "
            f"(mode={args.mode}, slice_budget={args.slice_budget}, "
            f"on_error={args.on_error}"
            + (
                f", checkpoint_dir={args.checkpoint_dir}"
                if args.checkpoint_dir
                else ""
            )
            + ")",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            server.close()
            await server.wait_closed()
            await pool.stop()
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an LML source file")
    p_compile.add_argument("file")
    p_compile.add_argument("--main", default="main", help="entry binding")
    p_compile.add_argument("--dump", action="store_true",
                           help="print the translated self-adjusting code")
    p_compile.add_argument("--dump-conventional", action="store_true",
                           help="print the pre-translation SXML")
    p_compile.add_argument("--counts", action="store_true",
                           help="print mod/read/write/memo counts")
    p_compile.add_argument("--no-optimize", action="store_true",
                           help="disable the Section 3.4 rewrite rules")
    p_compile.add_argument("--no-memoize", action="store_true",
                           help="disable memoized applications")
    p_compile.add_argument("--coarse", action="store_true",
                           help="CPS-emulation mode (extra indirections)")
    p_compile.set_defaults(fn=_cmd_compile)

    p_verify = sub.add_parser(
        "verify", help="run the Section 4.3 random-change verification"
    )
    p_verify.add_argument("app")
    p_verify.add_argument("-n", type=int, default=32, help="input size")
    p_verify.add_argument("--changes", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="self-adjusting execution backend: the tree-walking "
             "interpreter or the flat stack machine (default: "
             "$REPRO_BACKEND, else stack)",
    )
    p_verify.add_argument(
        "--batch", type=int, default=1,
        help="coalesce this many changes per propagation pass (default 1)",
    )
    p_verify.add_argument(
        "--mode", choices=["eager", "lazy"], default="eager",
        help="propagation discipline: eager drains the whole dirty queue "
             "per change; lazy demands the output instead, re-executing "
             "only the dirty work that feeds it (default eager)",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_trace = sub.add_parser(
        "trace",
        help="run an app under full observability: event log, invariant "
             "checks, DDG dumps",
    )
    p_trace.add_argument("app")
    p_trace.add_argument("-n", type=int, default=16, help="input size")
    p_trace.add_argument("--changes", type=int, default=1,
                         help="random changes to propagate (default 1)")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default=".",
                         help="directory for the dump files (default .)")
    p_trace.add_argument("--format", choices=["json", "dot", "both"],
                         default="both", help="DDG snapshot format(s)")
    p_trace.add_argument("--events", action="store_true",
                         help="also dump the event log as JSONL")
    p_trace.add_argument("--values", action="store_true",
                         help="include value reprs in events and DDG nodes")
    p_trace.add_argument("--max-events", type=int, default=1_000_000,
                         help="event log capacity (oldest dropped first)")
    p_trace.add_argument("--no-check", action="store_true",
                         help="disable the trace invariant checker")
    p_trace.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="self-adjusting execution backend (default: $REPRO_BACKEND, "
             "else stack); both emit identical traces and events",
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject deterministic faults during propagation and verify "
             "recovery against a from-scratch oracle",
    )
    p_chaos.add_argument("app")
    p_chaos.add_argument("-n", type=int, default=16, help="input size")
    p_chaos.add_argument("--changes", type=int, default=3,
                         help="input changes per scenario (default 3)")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--site", action="append", default=None,
        help="trace site(s) to inject at (repeatable; default: "
             "read, mod, write, memo-hit)",
    )
    p_chaos.add_argument(
        "--mode", action="append", choices=["rollback", "rebuild"],
        default=None,
        help="recovery mode(s) to exercise (repeatable; default both)",
    )
    p_chaos.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="self-adjusting execution backend (default: $REPRO_BACKEND, "
             "else stack)",
    )
    p_chaos.add_argument(
        "--propagation", choices=["eager", "lazy"], default="eager",
        help="run the sweep on eager propagations or on lazy demand "
             "walks (default eager)",
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_profile = sub.add_parser(
        "profile",
        help="per-phase engine profile: wall time, meter deltas, order/"
             "queue/pool statistics, top propagation call sites",
    )
    p_profile.add_argument("app")
    p_profile.add_argument("-n", type=int, default=64, help="input size")
    p_profile.add_argument("--changes", type=int, default=8,
                           help="random changes to propagate (default 8)")
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--top", type=int, default=10,
                           help="call sites to list (default 10)")
    p_profile.add_argument("--no-callsites", action="store_true",
                           help="skip cProfile over the propagation phase")
    p_profile.add_argument("--events", action="store_true",
                           help="attach an event log and report per-phase "
                                "event counts (disables record pooling)")
    p_profile.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="self-adjusting execution backend (default: $REPRO_BACKEND, "
             "else stack)",
    )
    p_profile.add_argument(
        "--mode", choices=["eager", "lazy"], default="eager",
        help="propagation mode: lazy follows each change with a demand "
             "of the output's surface, so the demand: line shows live "
             "laziness counters",
    )
    p_profile.set_defaults(fn=_cmd_profile)

    p_snapshot = sub.add_parser(
        "snapshot",
        help="save, restore, or inspect session checkpoints: recorded "
             "inputs a restore re-runs (DESIGN.md Section 10)",
    )
    snap_sub = p_snapshot.add_subparsers(dest="action", required=True)
    p_snap_save = snap_sub.add_parser(
        "save", help="run an app and snapshot the live session"
    )
    p_snap_save.add_argument("app")
    p_snap_save.add_argument("file")
    p_snap_save.add_argument("-n", type=int, default=64, help="input size")
    p_snap_save.add_argument("--changes", type=int, default=0,
                             help="random changes to absorb before saving")
    p_snap_save.add_argument("--seed", type=int, default=0)
    p_snap_save.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="self-adjusting execution backend (default: $REPRO_BACKEND, "
             "else stack)",
    )
    p_snap_save.add_argument("--mode", choices=["eager", "lazy"],
                             default="eager")
    p_snap_save.set_defaults(fn=_cmd_snapshot)
    p_snap_load = snap_sub.add_parser(
        "load", help="restore a session by running it on a snapshot's inputs"
    )
    p_snap_load.add_argument("file")
    p_snap_load.add_argument("--app", default=None,
                             help="override the app recorded in the header")
    p_snap_load.add_argument(
        "--backend", choices=list(BACKENDS), default=None,
        help="run on this backend instead of the recorded one",
    )
    p_snap_load.add_argument("--check", action="store_true",
                             help="verify the restored output against the "
                                  "app's reference function")
    p_snap_load.set_defaults(fn=_cmd_snapshot)
    p_snap_inspect = snap_sub.add_parser(
        "inspect", help="print a snapshot's header without running it"
    )
    p_snap_inspect.add_argument("file")
    p_snap_inspect.set_defaults(fn=_cmd_snapshot)

    p_apps = sub.add_parser("apps", help="list the bundled benchmark apps")
    p_apps.set_defaults(fn=_cmd_apps)

    p_serve = sub.add_parser(
        "serve",
        help="serve a pool of incremental sessions over JSON frames "
        "(TCP or unix socket)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7777)
    p_serve.add_argument("--unix", default=None, metavar="PATH",
                         help="serve on a unix socket instead of TCP")
    p_serve.add_argument("--mode", choices=["eager", "lazy"], default="lazy",
                         help="default propagation mode for opened documents")
    p_serve.add_argument("--backend", default=None,
                         help="engine backend (default: $REPRO_BACKEND, "
                              "else stack)")
    p_serve.add_argument("--slice-budget", type=int, default=256,
                         help="re-executions per fair-scheduling slice")
    p_serve.add_argument("--on-error",
                         choices=["raise", "rollback", "rebuild"],
                         default="rollback",
                         help="per-document recovery policy")
    p_serve.add_argument("--max-sessions", type=int, default=1024)
    p_serve.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="durably checkpoint documents here: snapshots "
                              "+ fsync'd write-ahead edit journals; reopened "
                              "documents recover warm after a crash")
    p_serve.add_argument("--checkpoint-every", type=int, default=64,
                         help="acknowledged edits between snapshots "
                              "(default 64)")
    p_serve.add_argument("--no-journal-fsync", action="store_true",
                         help="skip the per-edit fsync (faster acks; a "
                              "crash may lose edits the OS had not flushed)")
    p_serve.add_argument("--max-edits-per-round", type=int, default=None,
                         help="per-document admission quota: staged edits "
                              "per scheduling round")
    p_serve.add_argument("--max-bytes-per-round", type=int, default=None,
                         help="per-document admission quota: staged JSON "
                              "bytes per scheduling round")
    p_serve.add_argument("--max-frame", type=int, default=2**22,
                         help="per-request frame size limit in bytes; "
                              "larger frames get a FrameTooLargeError "
                              "error frame (default 4 MiB)")
    p_serve.set_defaults(fn=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
