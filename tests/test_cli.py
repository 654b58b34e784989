"""End-to-end command line behavior: records, exit codes, file round trips."""

import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from coloring_games import oriented_paths as op, sequential as seq
from coloring_games.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    main,
)
from coloring_games.cli_output import emit
from coloring_games.base import TT_BYTES_ENV
from coloring_games.graphs import parse_graph_text
from coloring_games.oriented_paths import SHORT_FILL_MAX

from reference import D_ZEROS, naive_tables, table_file

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, [json.loads(line) for line in out.splitlines()]


def test_solve_closed_form_cycle(capsys):
    code, out = run(capsys, "solve", "--ruleset", "proper", "--k", "2",
                    "--graph", "cycle:8")
    assert code == EXIT_OK
    assert "outcome: P" in out and "method: closed-form" in out


def test_solve_weak_cycle_json(capsys):
    code, recs = run_json(capsys, "solve", "--ruleset", "weak", "--k", "2",
                          "--graph", "cycle:9")
    assert code == EXIT_OK
    (rec,) = recs
    assert rec["outcome"] == "N" and rec["grundy"] == 1
    assert rec["method"] == "closed-form"
    assert "winning_move" not in rec  # only search produces one


def test_solve_distance_path(capsys):
    code, out = run(capsys, "solve", "--ruleset", "distance", "--d", "2",
                    "--k", "2", "--graph", "path:13")
    assert code == EXIT_OK
    assert "outcome: N" in out


def test_solve_search_has_winning_move_only_when_n(capsys):
    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--k", "1",
                          "--graph", "path:5", "--method", "search")
    assert code == EXIT_OK and recs[0]["outcome"] == "N"
    assert recs[0]["method"] == "search"
    assert set(recs[0]["winning_move"]) == {"vertex", "color"}

    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--k", "1",
                          "--graph", "cycle:4", "--method", "search")
    assert code == EXIT_OK and recs[0]["outcome"] == "P"
    assert "winning_move" not in recs[0]


def test_solve_involution_method(capsys):
    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--k", "2",
                          "--graph", "grid:3,3", "--method", "involution")
    assert code == EXIT_OK
    assert recs[0] == {**recs[0], "outcome": "N", "method": "involution"}
    assert "grundy" not in recs[0]

    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--k", "2",
                          "--graph", "hypercube:3", "--method", "involution")
    assert recs[0]["outcome"] == "P"

    # grid:5,5 has 25 vertices, one over the pairing search's cap; the
    # closed form still decides it under --method auto
    argv = ("solve", "--ruleset", "proper", "--k", "3", "--graph", "grid:5,5")
    code, recs = run_json(capsys, *argv, "--method", "involution")
    assert code == EXIT_OK
    assert recs[0]["outcome"] == "unknown" and recs[0]["method"] == "involution"
    code, recs = run_json(capsys, *argv, "--method", "auto")
    assert code == EXIT_OK
    assert recs[0]["outcome"] == "N" and recs[0]["method"] == "closed-form"


def test_solve_forced_method_can_report_unknown(capsys):
    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--k", "3",
                          "--graph", "path:4", "--method", "closed-form")
    assert code == EXIT_OK
    assert recs[0]["outcome"] == "unknown"


def test_solve_reads_graph_file(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("graph undirected\nvertices 3\nedge 0 1\nedge 1 2\nk 2\ncolor 0 1\n")
    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--file", str(f))
    assert code == EXIT_OK
    assert recs[0]["k"] == 2 and recs[0]["method"] == "search"


def test_sequential_shortcut_agrees_with_search(capsys, tmp_path):
    # auto may answer from the linear path decision only where it holds (k=2)
    f = tmp_path / "p.txt"
    for n in range(1, 6):
        edges = "".join(f"edge {v} {v + 1}\n" for v in range(n - 1))
        for order in itertools.permutations(range(n)):
            f.write_text(f"graph undirected\nvertices {n}\n{edges}"
                         f"order {' '.join(map(str, order))}\n")
            for k in ("1", "2", "3"):
                argv = ("solve", "--ruleset", "sequential", "--k", k, "--file", str(f))
                _, (auto,) = run_json(capsys, *argv)
                _, (search,) = run_json(capsys, *argv, "--method", "search")
                assert auto["outcome"] == search["outcome"], (order, k)
                if k == "2":
                    assert auto["method"] == "closed-form"


def test_visit_order_belongs_to_sequential(capsys, tmp_path):
    # a file's order line is the sequential game's, refused by every other
    # ruleset; sequential refuses to play without one
    f = tmp_path / "p.txt"
    f.write_text("graph undirected\nvertices 3\nedge 0 1\nedge 1 2\norder 1 0 2\n")
    assert main(["solve", "--ruleset", "proper", "--k", "2", "--file", str(f)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: proper takes no visit order\n"
    assert main(["solve", "--ruleset", "sequential", "--k", "2",
                 "--graph", "path:3"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: sequential needs a visit order\n"
    argv = ("solve", "--ruleset", "sequential", "--file", str(f))
    _, (two,) = run_json(capsys, *argv, "--k", "2")
    assert (two["outcome"], two["method"]) == ("N", "closed-form")
    _, (three,) = run_json(capsys, *argv, "--k", "3")
    assert (three["outcome"], three["grundy"], three["method"]) == ("N", 1, "search")
    assert three["winning_move"] == {"vertex": 1, "color": 1}


def test_illegal_coloring_exits_2_with_one_short_line(capsys, tmp_path):
    # the message names the ruleset, not the coloring, which on a long path
    # would make it one line of over a hundred kilobytes
    n = 20_000
    f = tmp_path / "p.txt"
    f.write_text(f"graph undirected\nvertices {n}\n"
                 + "".join(f"edge {v} {v + 1}\n" for v in range(n - 1))
                 + "k 2\ncolor 0 1\ncolor 1 1\n")
    assert main(["solve", "--ruleset", "proper", "--file", str(f)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: coloring is illegal under proper\n"


@pytest.mark.parametrize("line,msg", [
    ("vertices x", "line 2: expected 'vertices <n>'"),
    ("vertices 3", "line 2: duplicate vertices line"),
    ("edge 0", "line 2: expected 'edge <u> <v>'"),
    ("edge 0 a", "line 2: edge endpoints must be integers"),
    ("color 0", "line 2: expected 'color <v> <c>'"),
    ("color 0 x", "line 2: color arguments must be integers"),
    ("k 2 3", "line 2: expected 'k <colors>'"),
    ("vertices ²", "line 2: expected 'vertices <n>'"),
    ("k ²", "line 2: expected 'k <colors>'"),
    ("k 2\nk 3", "line 3: duplicate k line"),
    ("order 0 1 x", "line 2: order entries must be integers"),
    ("order 0 1 2\norder 0 1 2", "line 3: duplicate order line"),
])
def test_graph_file_parse_errors_exit_2(capsys, tmp_path, line, msg):
    f = tmp_path / "bad.txt"
    f.write_text(f"vertices 3\n{line}\ngraph undirected\n", encoding="utf-8")
    assert main(["solve", "--ruleset", "proper", "--k", "2", "--file", str(f)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {msg}\n"


def test_solve_usage_errors(capsys):
    assert run(capsys, "solve", "--ruleset", "proper", "--k", "2",
               "--graph", "nope:4")[0] == EXIT_USAGE
    assert run(capsys, "solve", "--ruleset", "proper",
               "--graph", "path:3")[0] == EXIT_USAGE  # no k anywhere
    assert run(capsys, "solve", "--ruleset", "weak", "--k", "2", "--d", "2",
               "--graph", "path:3")[0] == EXIT_USAGE  # --d without distance


def test_grundy_seq_deterministic(capsys):
    _, first = run(capsys, "grundy-seq", "--kmax", "10")
    _, second = run(capsys, "grundy-seq", "--kmax", "10")
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "1,0,0,1"
    assert len(lines) == 11 and lines[-1].startswith("# summary ")


def test_grundy_seq_summary_json(capsys):
    code, recs = run_json(capsys, "grundy-seq", "--kmax", "200")
    assert code == EXIT_OK
    assert recs[0] == {"k": 1, "gA": 0, "gC": 0, "gD": 1}
    summary = recs[-1]["summary"]
    assert summary["d_p_positions"] == 24
    assert summary["max_value"] > 0 and summary["largest_rare_index"] <= 200


def test_grundy_seq_budget_abort_leaves_checkpoint(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(TT_BYTES_ENV, "40000")
    ckpt = tmp_path / "c.bin"
    code, _ = run(capsys, "grundy-seq", "--kmax", "50000",
                  "--checkpoint", str(ckpt), "--checkpoint-every", "2000")
    assert code == EXIT_BUDGET
    assert ckpt.exists()
    monkeypatch.delenv(TT_BYTES_ENV)
    code, out = run(capsys, "tables", "info", "--table", str(ckpt))
    assert code == EXIT_OK and "kmax: 6000" in out


def test_grundy_seq_resume_matches_fresh(capsys, tmp_path, monkeypatch):
    ckpt = tmp_path / "c.bin"
    run(capsys, "grundy-seq", "--kmax", "120", "--checkpoint", str(ckpt))
    _, resumed = run(capsys, "grundy-seq", "--kmax", "400", "--checkpoint", str(ckpt))
    _, fresh = run(capsys, "grundy-seq", "--kmax", "400")
    assert resumed == fresh

    # chunks of 100 across a kernel bound of 200: the stdlib kernel fills
    # the first run's chunks and numpy's the resumed run's. Each saved chunk
    # prints its K and rate, and each save leaves no other file
    monkeypatch.setattr(op, "SHORT_FILL_MAX", 200)
    ckpt.unlink()
    lines = []
    for kmax in ("150", "400"):
        assert main(["grundy-seq", "--kmax", kmax, "--checkpoint", str(ckpt),
                     "--checkpoint-every", "100"]) == EXIT_OK
        resumed, err = capsys.readouterr()
        lines += err.splitlines()
    assert resumed == fresh
    assert os.listdir(tmp_path) == ["c.bin"]
    assert [line.split(" (")[0] for line in lines] == [
        "K=100", "K=150", "K=250", "K=350", "K=400"]
    assert all(line.endswith(" rows/s)") for line in lines), lines


def test_grundy_seq_modes_print_the_same(capsys):
    _, naive = run(capsys, "grundy-seq", "--kmax", "300", "--mode", "naive")
    _, accel = run(capsys, "grundy-seq", "--kmax", "300", "--mode", "accelerated")
    assert naive == accel


def test_p_positions_record(capsys):
    code, recs = run_json(capsys, "p-positions", "--kmax", "200", "--class", "D")
    assert code == EXIT_OK
    assert recs[0]["count"] == 24
    assert recs[0]["lengths"][:5] == [3, 6, 11, 15, 16]

    code, recs = run_json(capsys, "p-positions", "--kmax", "50", "--class", "A")
    assert recs[0]["lengths"] == [1]


def test_sequential_examples(capsys):
    code, out = run(capsys, "sequential", "--graph", "path:5",
                    "--order", "1,0,2,3,4", "--check")
    assert code == EXIT_OK
    assert "outcome: N" in out and "winner: first" in out and "check: ok" in out


def test_sequential_random_order_is_seeded(capsys):
    _, a = run(capsys, "sequential", "--graph", "path:9", "--order", "random",
               "--seed", "3")
    _, b = run(capsys, "sequential", "--graph", "path:9", "--order", "random",
               "--seed", "3")
    assert a == b
    _, c = run(capsys, "sequential", "--graph", "path:9", "--order", "random",
               "--seed", "4")
    assert a != c


def test_sequential_order_from_file(capsys, tmp_path):
    f = tmp_path / "p.txt"
    f.write_text("graph undirected\nvertices 3\nedge 0 1\nedge 1 2\norder 1 0 2\n")
    code, recs = run_json(capsys, "sequential", "--file", str(f), "--check")
    assert code == EXIT_OK
    assert recs[0]["outcome"] == "N" and recs[0]["check"] == "ok"
    # explicit flag clashing with the file's order is refused
    assert run(capsys, "sequential", "--file", str(f),
               "--order", "0 1 2")[0] == EXIT_USAGE


def test_sequential_usage_errors(capsys, monkeypatch):
    assert run(capsys, "sequential", "--graph", "path:5",
               "--order", "random")[0] == EXIT_USAGE  # no seed
    assert run(capsys, "sequential", "--graph", "path:5")[0] == EXIT_USAGE
    assert run(capsys, "sequential", "--graph", "cycle:5",
               "--order", "random", "--seed", "1")[0] == EXIT_USAGE
    # the oracle's own cap
    assert run(capsys, "sequential", "--graph", "path:23", "--order", "random",
               "--seed", "1", "--check")[0] == EXIT_USAGE
    for order in ("0 1 2", "0 1 2 3 3", "0 1 2 3 5", "-1 1 2 3 4"):
        assert main(["sequential", "--graph", "path:5", "--order", order]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --order must be a permutation of all vertices\n")
    # past the cap, --check fails before the shuffle and the O(n) decision
    def never(*_args):
        raise AssertionError("ran before the oracle's cap was checked")

    monkeypatch.setattr(random.Random, "shuffle", never)
    monkeypatch.setattr(seq, "decide_outcome", never)
    assert main(["sequential", "--graph", "path:1000000", "--order", "random",
                 "--seed", "1", "--check"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: brute force oracle is capped at 22 vertices\n")


@pytest.mark.parametrize("lines, msg", [
    (["color 0 1"], "sequential decides the uncolored game; the file paints a vertex"),
    (["k 3"], "sequential is a two-color game; the file declares k=3"),
], ids=["painted", "k3"])
def test_sequential_refuses_files_it_would_misread(capsys, tmp_path, lines, msg):
    # the O(n) decision answers the uncolored two-color game only
    f = tmp_path / "p.txt"
    body = ["graph undirected", "vertices 4", "edge 0 1", "edge 1 2", "edge 2 3",
            "order 0 1 2 3"]
    f.write_text("\n".join(body + lines) + "\n")
    assert main(["sequential", "--file", str(f)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {msg}\n"
    f.write_text("\n".join(body + ["k 2"]) + "\n")
    code, out = run(capsys, "sequential", "--file", str(f))
    assert code == EXIT_OK and "outcome: P" in out


def test_proper_reads_directed_cycles_by_their_shape(capsys):
    code, recs = run_json(capsys, "solve", "--ruleset", "proper", "--k", "2",
                          "--graph", "dcycle:1001")
    assert code == EXIT_OK
    (rec,) = recs
    assert rec["method"] == "closed-form"
    assert rec["outcome"] == "P" and rec["grundy"] == 0


def test_search_with_a_huge_palette_answers_like_k3(capsys):
    # colors no painted vertex uses are interchangeable, so k=100000 searches
    # as few colors as k=3 does (it took over ten seconds when each was tried)
    argv = ("solve", "--ruleset", "proper", "--graph", "path:4", "--method", "search")
    _, (wide,) = run_json(capsys, *argv, "--k", "100000")
    _, (narrow,) = run_json(capsys, *argv, "--k", "3")
    assert {key: wide[key] for key in ("outcome", "grundy", "method")} == {
        key: narrow[key] for key in ("outcome", "grundy", "method")}


def test_deep_search_exits_3_without_traceback(capsys):
    code = main(["solve", "--ruleset", "oriented-br", "--graph", "dpath:2500",
                 "--method", "search"])
    err = capsys.readouterr().err
    assert code == EXIT_BUDGET
    assert "Traceback" not in err and "RecursionError" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reduce_text_round_trip(capsys):
    code, out = run(capsys, "reduce", "--from", "kayles", "--to", "proper",
                    "--k", "3", "--graph", "path:2", "--verify")
    assert code == EXIT_OK
    doc = parse_graph_text(out)
    assert doc.graph.n == 6 and doc.k == 3
    assert sum(1 for c in doc.coloring if c is not None) == 4
    assert "# map 0 0" in out and "# map 1 3" in out


def test_reduce_json_record(capsys):
    code, recs = run_json(capsys, "reduce", "--from", "kayles", "--to", "distance",
                          "--k", "2", "--graph", "path:3", "--verify")
    assert code == EXIT_OK
    rec = recs[0]
    assert rec["equivalent"] is True
    assert rec["reduced_vertices"] == 3 + 3 * 2
    assert rec["vertex_map"] == {"0": 0, "1": 1, "2": 2}
    assert parse_graph_text(rec["graph_text"]).graph.n == rec["reduced_vertices"]


def test_reduce_writes_file(capsys, tmp_path):
    dest = tmp_path / "out.txt"
    code, _ = run(capsys, "reduce", "--from", "kayles", "--to", "oriented",
                  "--k", "2", "--graph", "path:2", "--out", str(dest))
    assert code == EXIT_OK
    doc = parse_graph_text(dest.read_text())
    assert doc.graph.directed and doc.graph.n == 4

    code, out = run(capsys, "reduce", "--from", "kayles", "--to", "oriented",
                    "--k", "2", "--graph", "path:2", "--out", str(dest), "--format", "json")
    assert code == EXIT_OK and out == ""
    rec = json.loads(dest.read_text())
    assert parse_graph_text(rec["graph_text"]) == doc


def test_reduce_usage_errors(capsys):
    assert run(capsys, "reduce", "--from", "kayles", "--to", "proper",
               "--graph", "path:2")[0] == EXIT_USAGE  # no k
    assert run(capsys, "reduce", "--from", "kayles", "--to", "oriented-br",
               "--k", "3", "--graph", "path:2")[0] == EXIT_USAGE
    assert run(capsys, "reduce", "--from", "kayles", "--to", "proper", "--k", "2",
               "--graph", "path:8", "--verify")[0] == EXIT_USAGE  # over cap


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "recursion", "--kmax", "6")[0] == EXIT_OK
    assert run(capsys, "verify", "sequential", "--n", "4",
               "--exhaustive")[0] == EXIT_OK
    assert run(capsys, "verify", "reductions", "--n", "3")[0] == EXIT_OK
    code, out = run(capsys, "verify", "closed-forms")
    assert code == EXIT_OK and "7/7 checks passed" in out


def test_verify_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("coloring_games.sequential.decide_path", lambda perm: "N")
    code, out = run(capsys, "verify", "sequential", "--n", "4", "--exhaustive")
    assert code == EXIT_VERIFY
    assert "FAIL" in out


def test_verify_sampled_needs_seed(capsys):
    assert run(capsys, "verify", "sequential", "--n", "9")[0] == EXIT_USAGE
    # the oracle and census caps
    assert run(capsys, "verify", "sequential", "--n", "23", "--seed", "1")[0] == EXIT_USAGE
    assert run(capsys, "verify", "reductions", "--n", "7")[0] == EXIT_USAGE
    code, recs = run_json(capsys, "verify", "sequential", "--n", "9",
                          "--seed", "1", "--samples", "50")
    assert code == EXIT_OK
    assert recs[-1] == {"suite": "sequential", "passed": 1, "total": 1}


def test_tables_round_trip(capsys, tmp_path):
    t = tmp_path / "t.bin"
    # grundy-seq --checkpoint writes the file, then grows it
    for kmax in ("300", "500"):
        code, _ = run(capsys, "grundy-seq", "--kmax", kmax, "--checkpoint", str(t))
        assert code == EXIT_OK
    code, recs = run_json(capsys, "tables", "info", "--table", str(t))
    assert recs[0]["kmax"] == 500
    code, out = run(capsys, "tables", "export-csv", "--table", str(t))
    assert out.splitlines()[0] == "1,0,0,1" and len(out.splitlines()) == 500

    csv_dest = tmp_path / "t.csv"
    run(capsys, "tables", "export-csv", "--table", str(t), "--out", str(csv_dest))
    assert csv_dest.read_text() == out


def test_tables_export_json_needs_out(capsys, tmp_path):
    # the JSON record names the file written, so without --out there is none
    # to name: a usage error, not CSV rows under --format json
    t = tmp_path / "t.bin"
    run(capsys, "grundy-seq", "--kmax", "5", "--checkpoint", str(t))
    code = main(["tables", "export-csv", "--table", str(t), "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.count("\n") == 1 and "--out" in captured.err
    # --format json with --out, and text with or without it, are unchanged
    code, recs = run_json(capsys, "tables", "export-csv", "--table", str(t),
                          "--out", str(tmp_path / "t.csv"))
    assert code == EXIT_OK and recs == [{"kmax": 5, "file": str(tmp_path / "t.csv")}]
    assert run(capsys, "tables", "export-csv", "--table", str(t))[1] == (
        tmp_path / "t.csv").read_text()


def test_tables_rejects_corrupt_file(capsys, tmp_path):
    t = tmp_path / "t.bin"
    run(capsys, "grundy-seq", "--kmax", "50", "--checkpoint", str(t))
    raw = bytearray(t.read_bytes())
    raw[20] ^= 0xFF
    t.write_bytes(raw)
    assert run(capsys, "tables", "info", "--table", str(t))[0] == EXIT_USAGE


def test_argparse_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--ruleset", "bogus", "--graph", "path:3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # --mode is left on grundy-seq only
    for argv in (["p-positions", "--mode", "naive"],
                 ["tables", "info", "--table", "t.bin", "--mode", "naive"],
                 ["tables", "export-csv", "--table", "t.bin", "--mode", "naive"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("flag,argv", [
    ("--n", ["verify", "sequential", "--n", "0", "--exhaustive"]),
    ("--kmax", ["verify", "recursion", "--kmax", "0"]),
    ("--samples", ["verify", "sequential", "--n", "5", "--seed", "1", "--samples", "-1"]),
    ("--checkpoint-every", ["grundy-seq", "--kmax", "10", "--checkpoint", "c.bin",
                            "--checkpoint-every", "0"]),
])
def test_size_flags_must_be_positive(capsys, monkeypatch, tmp_path, flag, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}: expected a positive integer" in capsys.readouterr().err


def test_oversized_graphs_exit_3_before_building(capsys, monkeypatch, tmp_path):
    def one_line_exit(argv, code):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    huge = tmp_path / "huge.txt"
    huge.write_text("graph undirected\nvertices 99999999999999999999\n")
    one_line_exit(["solve", "--ruleset", "proper", "--k", "2", "--file", str(huge)], EXIT_BUDGET)
    err = one_line_exit(["solve", "--ruleset", "proper", "--k", "2",
                         "--graph", "path:3,4"], EXIT_USAGE)
    assert "'path' takes one parameter" in err
    # each needs over 100 kB of rows and has a closed form, so only the
    # graph's own check can exit 3
    monkeypatch.setenv(TT_BYTES_ENV, "100000")
    for spec in ("path:5000", "hypercube:12", "grid:100,100"):
        one_line_exit(["solve", "--ruleset", "proper", "--k", "2", "--graph", spec],
                      EXIT_BUDGET)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coloring_games.cli", "grundy-seq", "--kmax", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1,0,0,1"


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter in a new process with the package on its path."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


def test_random_order_json_bytes_and_memory_per_vertex():
    # the peak RSS of a fresh interpreter grows only by what the request
    # needs. VmHWM is read, not ru_maxrss: on Linux a child's ru_maxrss
    # starts at its parent's peak, and pytest's would hide the request
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc/self/status")
    n = 300_000
    argv = ["sequential", "--graph", f"path:{n}", "--order", "random", "--seed", "1",
            "--format", "json"]
    # the modules main imports for the request load before the window
    # opens: compiling them, when no bytecode cache exists, costs memory per
    # process, not per vertex
    proc = fresh_python("-c", f"""
import re, sys
from coloring_games import cli_output, cli_sequential, graphs, rulesets, sequential
from coloring_games.cli import main
def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))
before = peak_kb()
code = main({argv!r})
sys.stdout.flush()
print(code, peak_kb() - before, file=sys.stderr)
""")
    assert proc.returncode == 0, proc.stderr
    code, grown_kb = map(int, proc.stderr.split())
    assert code == EXIT_OK
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    outcome = json.loads(proc.stdout)["outcome"]
    assert outcome in ("N", "P")
    want = {"graph": f"path:{n}", "n": n, "order": perm, "outcome": outcome,
            "winner": "first" if outcome == "N" else "second"}
    assert proc.stdout == json.dumps(want, sort_keys=True) + "\n"
    # graph rows, decision arrays and the order as one array('q') measure
    # 73; a list of a million int objects made it 105
    assert grown_kb * 1024 / n <= 80, grown_kb * 1024 / n


def test_deep_search_keeps_no_move_list_per_level():
    # the move loop is lazy, so a search too deep for the stack holds its
    # parts, not k moves per free vertex, on every level (243 MB with lists);
    # a live level keeps its part's mask and flag bytes, not a vertex list
    # (40.5 MB on distance-1 path:5000 with a list, 8.7 MB without)
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc/self/status")
    for argv, bound_mb in (
        (["solve", "--ruleset", "oriented-br", "--graph", "dpath:2500", "--method", "search"],
         100),
        (["solve", "--ruleset", "distance", "--d", "1", "--k", "2", "--graph", "path:5000",
          "--method", "search"], 15),
    ):
        proc = fresh_python("-c", f"""
import re, sys
from coloring_games.cli import main
def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))
before = peak_kb()
code = main({argv!r})
print(code, peak_kb() - before)
""")
        assert proc.returncode == 0, proc.stderr
        code, grown_kb = map(int, proc.stdout.split())
        assert code == EXIT_BUDGET, argv
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, argv
        assert grown_kb <= bound_mb * 1024, (argv, grown_kb)


def test_large_digraphs_build_no_edge_set(monkeypatch):
    # the oriented rule reads the rows, so an uncolored start keeps only its
    # coloring tuple (33.2 MB with the edge set); the pairing shortcut
    # answers above its cap before it builds the underlying graph (64 MB)
    # or the power graph (whose adjacency tuples pass a 12 MB budget)
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs Linux /proc/self/status")
    proc = fresh_python("-c", """
import gc, tracemalloc
from coloring_games.games import Position
from coloring_games.graphs import build_family
from coloring_games.rulesets import OrientedColoring
g = build_family("directed_path", 200000)
gc.collect()
tracemalloc.start()
pos = Position.start(g, 3, OrientedColoring())
gc.collect()
print(tracemalloc.get_traced_memory()[0], "edges" in g.__dict__)
""")
    assert proc.returncode == 0, proc.stderr
    traced, built = proc.stdout.split()
    assert int(traced) <= 4_000_000 and built == "False", proc.stdout

    for argv, budget, head in (
        (["solve", "--ruleset", "proper", "--k", "2", "--graph", "dpath:200000"],
         None, "graph: dpath:200000\nruleset: proper\nk: 2\n"),
        (["solve", "--ruleset", "distance", "--d", "2", "--k", "2",
          "--graph", "path:200000"],
         "12000000", "graph: path:200000\nruleset: distance\nk: 2\nd: 2\n"),
    ):
        if budget is not None:
            monkeypatch.setenv(TT_BYTES_ENV, budget)
        proc = fresh_python("-c", f"""
import re, sys
from coloring_games.cli import main
def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))
before = peak_kb()
code = main({argv + ["--method", "involution"]!r})
sys.stdout.flush()
print(code, peak_kb() - before, file=sys.stderr)
""")
        assert proc.returncode == 0, proc.stderr
        code, grown_kb = map(int, proc.stderr.split())
        assert code == EXIT_OK, argv
        assert proc.stdout == head + "outcome: unknown\nmethod: involution\n"
        assert grown_kb <= 20 * 1024, (argv, grown_kb)


def test_distance_closed_form_fits_a_budget_the_power_graph_passes(monkeypatch):
    # an uncolored distance start checks no painted vertex and the closed
    # form reads only the family tag, so no power graph is built: its
    # adjacency tuples alone need 30.4 MB here
    monkeypatch.setenv(TT_BYTES_ENV, "12000000")
    proc = fresh_python("-m", "coloring_games.cli", "solve", "--ruleset", "distance",
                        "--d", "2", "--k", "2", "--graph", "path:200000")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("graph: path:200000\nruleset: distance\nk: 2\nd: 2\n"
                           "outcome: P\ngrundy: 0\nmethod: closed-form\n")


@pytest.mark.parametrize("argv", [
    ["grundy-seq", "--kmax", "6000"],
    ["sequential", "--graph", "path:300000", "--order", "random", "--seed", "1"],
], ids=["grundy-seq", "sequential"])
def test_closed_pipe_exits_quietly(argv):
    # the output passes a pipe buffer, so a write fails once the reader has
    # gone; main quiets stdout and exits 0 without a traceback
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "coloring_games.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": path})
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    finally:
        proc.kill()
        proc.stderr.close()
    assert len(head) == 10
    assert (code, err) == (EXIT_OK, b"")


LOADED = """
import json, sys
print(json.dumps(sorted(m.removeprefix("coloring_games.") for m in sys.modules
                        if m.startswith("coloring_games")
                        or m in ("numpy", "hashlib", "dataclasses", "inspect"))))
"""


def loaded_after(code: str) -> list[str]:
    """The package's modules (short names), numpy, hashlib, dataclasses and
    inspect, whichever a fresh interpreter holds after running code."""
    proc = fresh_python("-c", code + LOADED)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_numpy_unloaded():
    assert loaded_after("import coloring_games.cli") == ["base", "cli", "coloring_games"]
    # json is imported by the handlers' output module, not by the parser
    proc = fresh_python("-c", "import sys, coloring_games.cli; print('json' in sys.modules)")
    assert proc.stdout == "False\n", proc.stderr


def run_main(*argv: str) -> str:
    return f"from coloring_games.cli import main\nmain({list(argv)!r})\n"


# a prelude that sets a fresh interpreter's kernel bound to LOW_BOUND, so
# that numpy's kernel runs at a short K
LOW_BOUND = 40
SET_LOW_BOUND = ("from coloring_games import oriented_paths as op\n"
                 f"op.SHORT_FILL_MAX = {LOW_BOUND}\n")


# the modules main imports to run a command, one per command family
HANDLERS = ["cli_reduce", "cli_sequential", "cli_solve", "cli_tables", "cli_verify"]


def test_commands_load_only_the_engine_they_run(tmp_path):
    # each command loads its own handler module and no other command's; no
    # command loads dataclasses or inspect, which only numpy brings in
    def loaded_by(handler, code):
        loaded = loaded_after(code)
        assert [m for m in loaded if m in HANDLERS] == [handler], loaded
        return loaded

    solve = loaded_by("cli_solve", run_main("solve", "--ruleset", "proper", "--k", "3",
                                            "--graph", "path:5", "--method", "search"))
    assert solve == ["base", "cli", "cli_output", "cli_solve", "coloring_games", "games",
                     "graphs", "rulesets"]
    sequential = loaded_by("cli_sequential", run_main("sequential", "--graph", "path:9",
                                                      "--order", "random", "--seed", "1"))
    assert sequential == ["base", "cli", "cli_output", "cli_sequential", "coloring_games",
                          "graphs", "rulesets", "sequential"]
    reduce = loaded_by("cli_reduce", run_main("reduce", "--from", "kayles", "--to", "proper",
                                              "--k", "2", "--graph", "path:3", "--verify"))
    assert reduce == ["base", "cli", "cli_output", "cli_reduce", "coloring_games", "games",
                      "graphs", "reductions", "rulesets"]
    verify = loaded_by("cli_verify", run_main("verify", "sequential", "--exhaustive",
                                              "--n", "4"))
    assert verify == ["base", "cli", "cli_output", "cli_verify", "coloring_games", "graphs",
                      "rulesets", "sequential"]
    # only a fill above SHORT_FILL_MAX loads numpy, and only a table file's
    # checksum hashlib; no table command loads the graph, ruleset or search
    # engine. The bound is the default p-positions K (8084, the benchmark's
    # path-tables K), so a change to either value fails here
    assert build_parser().parse_args(["p-positions"]).kmax == SHORT_FILL_MAX
    short = ["base", "cli", "cli_output", "cli_tables", "coloring_games", "oriented_paths"]
    for argv in (("grundy-seq", "--kmax", str(SHORT_FILL_MAX)),
                 ("p-positions", "--class", "D", "--kmax", "20"),
                 ("p-positions",)):
        assert loaded_by("cli_tables", run_main(*argv)) == short, argv
    low = SET_LOW_BOUND + run_main("grundy-seq", "--kmax", str(LOW_BOUND + 1))
    assert loaded_by("cli_tables", low) == [
        "base", "cli", "cli_output", "cli_tables", "coloring_games", "inspect", "numpy",
        "oriented_paths"]
    # the uncolored directed path is answered from a class table at any
    # length, and only a table above the bound loads numpy
    for n, numpy in ((LOW_BOUND, []), (LOW_BOUND + 1, ["inspect", "numpy"])):
        proc = fresh_python("-c", SET_LOW_BOUND + run_main(
            "solve", "--ruleset", "oriented-br", "--graph", f"dpath:{n}") + LOADED)
        assert proc.returncode == 0, proc.stderr
        *out, loaded = proc.stdout.splitlines()
        assert "method: closed-form" in out, out
        assert json.loads(loaded) == sorted([
            "base", "cli", "cli_output", "cli_solve", "coloring_games", "games", "graphs",
            "oriented_paths", "rulesets", *numpy]), n
    table = save_small_table(tmp_path)
    for argv in (("tables", "info", "--table", table), ("tables", "export-csv", "--table", table)):
        assert loaded_by("cli_tables", run_main(*argv)) == [
            "base", "cli", "cli_output", "cli_tables", "coloring_games", "hashlib",
            "oriented_paths"], argv


def save_small_table(directory: Path) -> str:
    from coloring_games import oriented_paths as op

    path = str(directory / "t.bin")
    op.save_table(op.compute_tables(100), path)
    return path


@pytest.mark.parametrize("module", ["base", "cli", "cli_output", *HANDLERS, "games", "graphs",
                                    "oriented_paths", "reductions", "rulesets",
                                    "sequential"])
def test_each_module_imports_first(module):
    # an import cycle can show under one import order only
    proc = fresh_python("-c", f"import coloring_games.{module}")
    assert proc.returncode == 0, proc.stderr


def test_package_names_resolve_lazily():
    # the package re-exports nothing: each name is imported from its module
    proc = fresh_python("-c", """
import sys
import coloring_games as pkg
assert sorted(m for m in sys.modules if m.startswith("coloring_games")) == ["coloring_games"]
try:
    pkg.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
from coloring_games import games
assert games is sys.modules["coloring_games.games"]
""")
    assert proc.returncode == 0, proc.stderr


def test_parser_names_the_engine_constants():
    from coloring_games import cli_reduce, cli_verify, oriented_paths as op, reductions, rulesets

    def option(command, dest):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        return next(a for a in sub.choices[command]._actions if a.dest == dest)

    klass = option("p-positions", "klass")
    assert (klass.choices, klass.default) == (op.PATH_CLASSES, op.CLASS_D)
    mode = option("grundy-seq", "mode")
    assert (mode.choices, mode.default) == ((op.MODE_NAIVE, op.MODE_ACCELERATED),
                                            op.MODE_NAIVE)
    assert list(option("solve", "ruleset").choices) == sorted(rulesets.RULESET_TOKENS)
    assert option("reduce", "to").choices == tuple(sorted(cli_reduce.REDUCERS))
    assert all(callable(getattr(reductions, name)) for name in cli_reduce.REDUCERS.values())
    assert option("verify", "suite").choices == tuple(sorted(cli_verify.SUITES))


def test_engine_names_are_looked_up_on_the_cli_module(capsys, monkeypatch):
    # benchmark/tracer.py wraps graphs and rulesets functions by their names
    # on this module, so each must resolve there and each call go through it
    from coloring_games import cli, rulesets

    for module, names in cli._ENGINE.items():
        source = importlib.import_module(f"coloring_games.{module}")
        for name in names:
            assert getattr(cli, name) is getattr(source, name), name
    with pytest.raises(AttributeError):
        cli.no_such_name
    # a handler that bound one of these functions at import would call it
    # past a wrapper set on this module
    wrapped = {name for names in cli._ENGINE.values() for name in names
               if callable(getattr(cli, name))}
    for handler in HANDLERS:
        module = importlib.import_module(f"coloring_games.{handler}")
        assert not wrapped & set(vars(module)), handler
    calls = []

    def closed_form(*args):
        calls.append(args)
        return rulesets.closed_form_outcome(*args)

    monkeypatch.setattr(cli, "closed_form_outcome", closed_form)
    code, out = run(capsys, "solve", "--ruleset", "proper", "--k", "2", "--graph", "path:6")
    assert code == EXIT_OK and "method: closed-form" in out
    assert len(calls) == 1


def test_commands_off_the_tables_run_without_numpy():
    # a None entry makes every import of numpy raise ImportError
    proc = fresh_python("-c", """
import sys
sys.modules["numpy"] = None
from coloring_games.cli import main
codes = [main(argv) for argv in (
    ["solve", "--ruleset", "proper", "--k", "2", "--graph", "grid:3,3"],
    ["sequential", "--graph", "path:9", "--order", "random", "--seed", "1"],
    ["reduce", "--from", "kayles", "--to", "proper", "--k", "2",
     "--graph", "path:3", "--verify"],
)]
print(codes)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0]"
    assert "verified equivalent" in proc.stderr


def test_table_files_read_without_numpy(tmp_path):
    table = save_small_table(tmp_path)
    proc = fresh_python("-c", f"""
import sys
sys.modules["numpy"] = None
from coloring_games.cli import main
codes = [main(argv) for argv in (
    ["tables", "info", "--table", {table!r}, "--format", "json"],
    ["tables", "export-csv", "--table", {table!r}],
)]
print(codes)
""")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "[0, 0]"
    assert json.loads(lines[0])["d_p_positions"] == sum(k <= 100 for k in D_ZEROS)
    assert lines[1] == "1,0,0,1" and len(lines) == 1 + 100 + 1


def test_table_commands_refuse_an_oversized_table(capsys, monkeypatch, tmp_path):
    # a hand-made K=200,000 file of zeros (1.2 MB of values): the load
    # checks the header against the budget before it reads the body
    K = 200_000
    big = tmp_path / "big.bin"
    big.write_bytes(table_file(K, bytes(6 * (K + 1))))
    monkeypatch.setenv(TT_BYTES_ENV, "500000")
    for argv in (["tables", "info", "--table", str(big)],
                 ["grundy-seq", "--kmax", str(K)]):
        assert main(argv) == EXIT_BUDGET, argv
        err = capsys.readouterr().err
        assert err == (f"error: a table to K={K} needs at least {6 * (K + 1)} bytes, "
                       "over the configured budget\n"), argv


def test_grundy_seq_loads_numpy_for_the_fill():
    K = LOW_BOUND + 1  # the shortest fill that numpy's kernel runs under that bound
    proc = fresh_python("-c", SET_LOW_BOUND + f"""
import sys
from coloring_games.cli import main
code = main(["grundy-seq", "--kmax", "{K}"])
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
sys.exit(code)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "numpy loaded: True"
    rows = [tuple(map(int, line.split(","))) for line in proc.stdout.splitlines()[:-1]]
    gA, gC, gD = naive_tables(K)
    assert rows == [(k, gA[k], gC[k], gD[k]) for k in range(1, K + 1)]


def test_short_tables_fill_without_numpy():
    # a None entry makes every import of numpy raise ImportError
    proc = fresh_python("-c", """
import json, sys
sys.modules["numpy"] = None
from coloring_games import oriented_paths as op
from coloring_games.cli import main
t = op.compute_tables(40)
print(json.dumps([t.gA.tolist(), t.gC.tolist(), t.gD.tolist()]))
main(["solve", "--ruleset", "oriented-br", "--graph", "dpath:100", "--format", "json"])
""")
    assert proc.returncode == 0, proc.stderr
    tables, solve = proc.stdout.splitlines()
    assert json.loads(tables) == [arr.tolist() for arr in naive_tables(40)]
    gD = naive_tables(100)[2]
    assert json.loads(solve) == {"graph": "dpath:100", "grundy": int(gD[100]), "k": 2,
                                 "method": "closed-form", "outcome": "N" if gD[100] else "P",
                                 "ruleset": "oriented-br"}


def test_cached_parser_carries_nothing_between_calls(capsys):
    assert build_parser() is build_parser()
    argv = ("solve", "--ruleset", "proper", "--k", "2", "--graph", "cycle:8")
    _, recs = run_json(capsys, *argv, "--method", "search")
    assert recs[0]["method"] == "search"
    _, recs = run_json(capsys, *argv)
    assert recs[0]["method"] == "closed-form"  # auto tries the closed form first
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--ruleset", "bogus", "--graph", "path:3"])
    assert exc.value.code == EXIT_USAGE
    code, out = run(capsys, *argv)
    assert code == EXIT_OK and "method: closed-form" in out


@pytest.mark.parametrize("items", [range(10_000), (5, 3, 4), ()],
                         ids=lambda items: str(len(items)))
@pytest.mark.parametrize("kind", [list, tuple, lambda x: array("q", x)],
                         ids=["list", "tuple", "array"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_text_lists_print_as_one_join(fmt, kind, items):
    # 10,000 items cross the write chunk boundary
    val = kind(items)
    out = io.StringIO()
    emit({"n": 1, "key": val, "winning_move": {"vertex": 3, "color": 1}}, fmt, out)
    if fmt == "json":
        want = json.dumps({"n": 1, "key": list(items),
                           "winning_move": {"vertex": 3, "color": 1}}, sort_keys=True)
        assert out.getvalue() == want + "\n"
    else:
        assert out.getvalue() == ("n: 1\nkey: " + " ".join(str(x) for x in items)
                                  + "\nwinning_move: vertex=3 color=1\n")
