"""CLI tests (python -m repro)."""

import pytest

from repro.__main__ import main

SOURCE = """
datatype cell = Nil | Cons of int * cell $C
fun mapf l = case l of Nil => Nil | Cons (h, t) => Cons (h + 1, mapf t)
val main : cell $C -> cell $C = mapf
"""


@pytest.fixture()
def lml_file(tmp_path):
    path = tmp_path / "demo.lml"
    path.write_text(SOURCE)
    return str(path)


def test_compile_ok(lml_file, capsys):
    assert main(["compile", lml_file]) == 0
    out = capsys.readouterr().out
    assert "compiled OK" in out
    assert "mod=1" in out


def test_compile_dump(lml_file, capsys):
    assert main(["compile", lml_file, "--dump"]) == 0
    out = capsys.readouterr().out
    assert "read" in out and "write" in out and "memo" in out


def test_compile_unoptimized_has_more_primitives(lml_file, capsys):
    assert main(["compile", lml_file, "--no-optimize", "--counts"]) == 0
    out = capsys.readouterr().out
    assert "mod=3" in out


def test_compile_missing_file(capsys):
    assert main(["compile", "/does/not/exist.lml"]) == 1
    assert "error" in capsys.readouterr().err


def test_compile_type_error(tmp_path, capsys):
    path = tmp_path / "bad.lml"
    path.write_text("val main = 1 + true")
    assert main(["compile", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_app(capsys):
    assert main(["verify", "map", "-n", "16", "--changes", "4"]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_unknown_app(capsys):
    assert main(["verify", "nosuchapp"]) == 1


def test_apps_listing(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "raytracer" in out and "block-mat-mult" in out


# ----------------------------------------------------------------------
# trace subcommand


def test_trace_writes_ddg_and_events(tmp_path, capsys):
    out = str(tmp_path)
    rc = main(
        ["trace", "map", "-n", "12", "--changes", "2", "--out", out, "--events"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "invariants: OK" in text
    assert "events:" in text and "meter:" in text

    import json

    ddg = json.loads((tmp_path / "map.ddg.json").read_text())
    assert ddg["reads"] and ddg["mods"]

    dot = (tmp_path / "map.ddg.dot").read_text()
    assert dot.startswith('digraph "map"')

    events = (tmp_path / "map.events.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in events}
    assert {"mod-create", "read-start", "write", "propagate-end"} <= kinds


def test_trace_format_json_only(tmp_path, capsys):
    rc = main(["trace", "filter", "-n", "8", "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    assert (tmp_path / "filter.ddg.json").exists()
    assert not (tmp_path / "filter.ddg.dot").exists()
    assert not (tmp_path / "filter.events.jsonl").exists()


def test_trace_unknown_app(capsys):
    assert main(["trace", "nosuchapp"]) == 1
    assert "unknown app" in capsys.readouterr().err


def test_trace_no_check_skips_invariants(tmp_path, capsys):
    rc = main(["trace", "map", "-n", "8", "--out", str(tmp_path), "--no-check"])
    assert rc == 0
    assert "invariants" not in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["interp", "stack"])
def test_profile_reports_phases_and_engine_stats(capsys, backend):
    rc = main(
        ["profile", "msort", "-n", "16", "--changes", "2",
         "--backend", backend, "--top", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # Per-phase rows ...
    for phase in ("compile", "input marshal", "initial run",
                  "propagate x2", "readback"):
        assert phase in out
    # ... the cyclic collector as a layer (pause seconds, gen0/1/2) ...
    assert "gc (s)" in out and "gc0/1/2" in out
    # ... relabel and queue statistics ...
    assert "relabels=" in out
    assert "queue:" in out and "rekeys=" in out and "drained=" in out
    # ... and the cProfile call-site section.
    assert "top call sites" in out


def test_profile_no_callsites_and_events(capsys):
    rc = main(["profile", "filter", "-n", "8", "--changes", "1",
               "--no-callsites", "--events"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top call sites" not in out
    assert "events[propagate x1]:" in out


def test_profile_unknown_app(capsys):
    assert main(["profile", "nosuchapp"]) == 1
    assert "unknown app" in capsys.readouterr().err
