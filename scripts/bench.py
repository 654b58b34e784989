"""Cold-cache search numbers and the million-vertex sequential request, as JSON.

Solves the six uncolored positions of the benchmark's search-cold workload
with games.grundy, each from empty caches, and records per instance:
- wall_s: best of REPEATS untraced solves;
- grundy and tt_entries: the value and the size of the solver's table;
- charged_bytes: what the solver counted against COLORING_GAMES_TT_BYTES;
- tracemalloc_bytes: what the solve left allocated (the table and the
  solver's own buffers, after a full gc.collect), from one more solve traced
  by tracemalloc after the graph and the solver were built.

Then it runs the sequential-paths workload's n=10^6 request (its argv taken
from benchmark/workloads.py) through cli.main in REPEATS fresh interpreters,
stdout to /dev/null, and records:
- wall_s: best time of `import coloring_games.cli` and the cli.main call;
- peak_rss_growth_bytes: the most the interpreter's peak RSS grew across
  them (VmHWM from /proc/self/status, so Linux only). It equals the
  ru_maxrss growth of a process started from a small one; a child's
  ru_maxrss starts at its parent's peak, which would hide the request;
- bytes_per_vertex: that growth over n.

Last it times start-up: the benchmark's own IMPORT_PROBE (imported from
benchmark/run.py, a fresh `import coloring_games.cli`, which setup_s counts)
in IMPORT_RUNS fresh interpreters, and records the median and minimum
seconds, the package modules the import loaded, whether it loaded
dataclasses and inspect, whether the package had a bytecode cache before
the first probe, and whether the interpreters ran without writing one
(PYTHONDONTWRITEBYTECODE), since a cached import skips compiling the
sources. With --baseline SRC (the src directory of another checkout, such
as the parent commit's) the same probe runs on that tree too, interleaved
with this one's and alternating which goes first, into a second row,
import_baseline.

Then it saves a table file to the path-tables workload's K (8084) and runs
`tables info` and `tables export-csv` on it, stdout to /dev/null, each in
TABLE_RUNS fresh interpreters per source tree, interleaved the same way,
into a row `tables` (and `tables_baseline` with --baseline). Per command it
records the best wall time and the most VmHWM growth from just before
`import coloring_games.cli` to just after the command, and whether the
command loaded numpy.

Then a row `graph_data` (and `graph_data_baseline`) measures two requests
on GRAPH_N-vertex directed paths that should build no edge set, each in
GRAPH_RUNS fresh interpreters per source tree, interleaved the same way:
- oriented_start: an uncolored oriented k=3 Position.start, its best wall
  time (untraced, on one graph) and the most bytes it left allocated
  (tracemalloc, after a full gc.collect, on a second graph);
- involution_solve: `solve --ruleset proper --k 2 --method involution`, its
  best wall time and the most VmHWM growth across `import coloring_games.cli`
  and the cli.main call.

Then a row `distance_start` (and `distance_start_baseline`) measures
uncolored starts on `path:GRAPH_N`, each in DISTANCE_RUNS fresh interpreters
per source tree, interleaved the same way:
- start: Position.start under proper k=2 and under distance k=2 at d=2 and
  d=8, its best wall time and the most VmHWM growth across the call;
- closed_form_solve: `solve --ruleset distance --d 2 --k 2`, answered by
  closed form, its best wall time and the most VmHWM growth across
  `import coloring_games.cli` and the cli.main call, and its exit code under
  COLORING_GAMES_TT_BYTES=BUDGET_BYTES.

Every cli.main row is timed from before the import, since main imports the
handler module of the command it runs.

Then a row `short_tables` (and `short_tables_baseline`) runs SHORT_TABLES,
short Blue-Red fills and a `solve` that reads one, each in SHORT_RUNS fresh
interpreters per source tree, interleaved the same way. Per command it
records the best wall time and the most VmHWM growth from just before
`import coloring_games.cli` to just after the command, and whether the
command loaded numpy. A row `fills` (and `fills_baseline`) does the same for
FILLS, `grundy-seq` at K=10^4 and 2*10^4, in FILL_RUNS interpreters each,
and a row `start_up` (and `start_up_baseline`) for START_UP, one short
command per command family, in START_UP_RUNS interpreters each: there the
wall time is mostly the import and the first use of the modules a command
loads.

Last, a row `short_fill_bound` times `grundy-seq --kmax K` for each K of
BOUND_KS in fresh interpreters of this tree only, once with the stdlib
kernel and once with numpy's (oriented_paths.SHORT_FILL_MAX set to K or to 0
before the command), interleaved, BOUND_RUNS times each, with oriented_paths
imported before the clock starts. It records the median and quartiles of
both kernels' times per K and the largest K at which the stdlib kernel's
median was no slower than that of numpy's kernel with its import, the
measurement SHORT_FILL_MAX is chosen from. The row does not depend on the
SHORT_FILL_MAX the tree holds, since each child sets its own.

Example:
    PYTHONDONTWRITEBYTECODE=1 python scripts/bench.py --out BENCH_25.json \
        --baseline ../parent/src
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

from coloring_games import cli, cli_solve, games, oriented_paths as op
from coloring_games.base import TT_BYTES_ENV
from run import IMPORT_PROBE
from workloads import DEFAULT_SEED, PathTables, SearchCold, SequentialPaths

REPEATS = 3  # untraced solves per instance
IMPORT_RUNS = 25  # fresh interpreters timing the import, per source tree
TABLE_RUNS = 7  # fresh interpreters per table command, per source tree
GRAPH_RUNS = 5  # fresh interpreters per graph_data case, per source tree
GRAPH_N = 200_000  # vertices of the graph_data directed paths and distance_start paths
DISTANCE_RUNS = 5  # fresh interpreters per distance_start case, per source tree
BUDGET_BYTES = 12_000_000  # the budget of distance_start's budgeted solve
SHORT_RUNS = 5  # fresh interpreters per short_tables command, per source tree
SHORT_TABLES = {
    "grundy_seq_40": ["grundy-seq", "--kmax", "40"],
    "grundy_seq_1000": ["grundy-seq", "--kmax", "1000"],
    "grundy_seq_2000": ["grundy-seq", "--kmax", "2000"],
    "solve_dpath_100": ["solve", "--ruleset", "oriented-br", "--graph", "dpath:100"],
}
FILL_RUNS = 3  # fresh interpreters per fills command, per source tree
FILLS = {f"grundy_seq_{K}": ["grundy-seq", "--kmax", str(K)] for K in (10_000, 20_000)}
START_UP_RUNS = 25  # fresh interpreters per start_up command, per source tree
START_UP_TABLE_K = 100  # the K of the table file `tables info` reads
START_UP = {
    "grundy_seq_40": ["grundy-seq", "--kmax", "40"],
    "p_positions_20": ["p-positions", "--kmax", "20"],
    "tables_info": ["tables", "info", "--table"],  # the table file's path is appended
    "solve_path_6": ["solve", "--ruleset", "proper", "--k", "2", "--graph", "path:6"],
    "sequential_path_1000": ["sequential", "--graph", "path:1000", "--order", "random",
                             "--seed", "1"],
    "reduce_path_3": ["reduce", "--from", "kayles", "--to", "proper", "--k", "2",
                      "--graph", "path:3", "--verify"],
    "verify_sequential_4": ["verify", "sequential", "--exhaustive", "--n", "4"],
}
# short_fill_bound's sizes, in steps of 512 where the two kernels meet
BOUND_KS = (1024, 2048, 4096, 6144, 7168, 8192, 8704, 9216, 9728, 10240, 10752, 11264,
            12288, 16384)
BOUND_RUNS = 11  # fresh interpreters per K and kernel


def cold_position(argv: list[str]) -> games.Position:
    """The uncolored position that `solve` with these options reads, with
    the solver and power-graph caches emptied."""
    games.clear_solver_cache()
    args = cli.build_parser().parse_args(["solve", *argv])
    graph, _source, doc = cli._load_graph(args)
    ruleset = cli_solve._build_ruleset(args, doc)
    return games.Position.start(graph, cli_solve._resolve_k(args, doc, ruleset), ruleset)


def measure(argv: list[str]) -> dict:
    wall = float("inf")
    for _ in range(REPEATS):
        pos = cold_position(argv)
        t0 = time.perf_counter()
        games.grundy(pos)
        wall = min(wall, time.perf_counter() - t0)

    pos = cold_position(argv)
    solver = games._solver_for(pos)  # built untraced, like the graph
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    value = games.grundy(pos)
    gc.collect()  # a full collection also empties the free lists of small objects
    grown = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {
        "wall_s": round(wall, 4),
        "grundy": value,
        "tt_entries": len(solver.table),
        "charged_bytes": solver.bytes,
        "tracemalloc_bytes": grown,
    }


def interleave(sources: dict[str, str], runs: int, probe: Callable[[str], object]) -> dict:
    """probe(src) runs times per named source tree. The trees take turns, in
    reverse order every other round, so that host drift falls on each alike."""
    results: dict[str, list] = {name: [] for name in sources}
    for i in range(runs):
        for name in list(sources)[:: 1 if i % 2 == 0 else -1]:
            results[name].append(probe(sources[name]))
    return results


def fresh(src: str, *args: str) -> str:
    """stdout of a fresh interpreter with src first on its path."""
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=True).stdout


PEAK_KB = """
import json, os, re, sys, time

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))
"""

CLI_CHILD = PEAK_KB + """
argv, with_import = json.loads(sys.argv[1]), sys.argv[2] == "1"
sys.stdout, out = open(os.devnull, "w"), sys.stdout
if not with_import:
    from coloring_games.cli import main
before = peak_kb()
t0 = time.perf_counter()
from coloring_games.cli import main
code = main(argv)
wall = time.perf_counter() - t0
print(json.dumps({"code": code, "wall_s": wall, "grown_kb": peak_kb() - before,
                  "numpy_loaded": "numpy" in sys.modules}), file=out)
"""


def run_cli(src: str, argv: list[str], with_import: bool) -> dict:
    """cli.main(argv) in a fresh interpreter with src first on its path: its
    exit code, wall time and VmHWM growth, from just before the call or,
    with_import, before `import coloring_games.cli`; and whether it loaded
    numpy."""
    run = json.loads(fresh(src, "-c", CLI_CHILD, json.dumps(argv), str(int(with_import))))
    if run["code"] != 0:
        raise RuntimeError(f"{argv} exited {run['code']} under {src}")
    return run


def measure_sequential() -> dict:
    workload = SequentialPaths(seed=DEFAULT_SEED, work=Path(ROOT))
    workload.make()
    argv = workload.requests[0]
    runs = [run_cli(os.path.join(ROOT, "src"), argv, True) for _ in range(REPEATS)]
    grown = max(r["grown_kb"] for r in runs) * 1024
    return {
        "argv": argv,
        "wall_s": round(min(r["wall_s"] for r in runs), 4),
        "peak_rss_growth_bytes": grown,
        "bytes_per_vertex": round(grown / SequentialPaths.N, 1),
    }


# run after the probe, outside its timed span
LIST_MODULES = """
import json, sys
print(json.dumps({"modules": sorted(m for m in sys.modules if m.startswith("coloring_games")),
                  "dataclasses_loaded": "dataclasses" in sys.modules,
                  "inspect_loaded": "inspect" in sys.modules}))
"""


def measure_import(sources: dict[str, str]) -> dict[str, dict]:
    """A row per source tree, named import plus the tree's suffix."""
    cached = {name: os.path.isdir(os.path.join(src, "coloring_games", "__pycache__"))
              for name, src in sources.items()}
    probes = interleave(sources, IMPORT_RUNS, lambda src: fresh(
        src, "-c", IMPORT_PROBE + "\n" + LIST_MODULES).splitlines())
    return {f"import{name}": {
        "probe": IMPORT_PROBE,
        "runs": IMPORT_RUNS,
        "median_s": round(statistics.median(float(p[0]) for p in probes[name]), 4),
        "min_s": round(min(float(p[0]) for p in probes[name]), 4),
        **json.loads(probes[name][-1][1]),
        "bytecode_cache_present": cached[name],
        "bytecode_cache_written": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
    } for name in sources}


def measure_tables(sources: dict[str, str]) -> dict[str, dict]:
    """A row per source tree, named tables plus the tree's suffix."""
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "classes.bin")
        op.save_table(op.compute_tables(PathTables.KMAX), table)
        commands = {cmd: ["tables", cmd, "--table", table] for cmd in ("info", "export-csv")}

        probes = interleave(sources, TABLE_RUNS, lambda src: {
            cmd: run_cli(src, argv, True) for cmd, argv in commands.items()})
    return {f"tables{name}": {
        "kmax": PathTables.KMAX,
        "runs": TABLE_RUNS,
        **{cmd: {
            "wall_s": round(min(p[cmd]["wall_s"] for p in probes[name]), 4),
            "peak_rss_growth_bytes": max(p[cmd]["grown_kb"] for p in probes[name]) * 1024,
            "numpy_loaded": probes[name][-1][cmd]["numpy_loaded"],
        } for cmd in commands},
    } for name in sources}


ORIENTED_START_CHILD = """
import gc, json, sys, time, tracemalloc
from coloring_games.games import Position
from coloring_games.graphs import build_family
from coloring_games.rulesets import OrientedColoring
timed, traced = (build_family("directed_path", int(sys.argv[1])) for _ in range(2))
t0 = time.perf_counter()
Position.start(timed, 3, OrientedColoring())
wall = time.perf_counter() - t0
gc.collect()
tracemalloc.start()
pos = Position.start(traced, 3, OrientedColoring())
gc.collect()
print(json.dumps({"wall_s": wall, "retained_bytes": tracemalloc.get_traced_memory()[0]}))
"""


def measure_graph_data(sources: dict[str, str]) -> dict[str, dict]:
    """A row per source tree, named graph_data plus the tree's suffix."""
    argv = ["solve", "--ruleset", "proper", "--k", "2", "--graph", f"dpath:{GRAPH_N}",
            "--method", "involution"]
    probes = interleave(sources, GRAPH_RUNS, lambda src: (
        json.loads(fresh(src, "-c", ORIENTED_START_CHILD, str(GRAPH_N))),
        run_cli(src, argv, True)))
    return {f"graph_data{name}": {
        "n": GRAPH_N,
        "runs": GRAPH_RUNS,
        "oriented_start": {
            "wall_s": round(min(p[0]["wall_s"] for p in probes[name]), 4),
            "retained_bytes": max(p[0]["retained_bytes"] for p in probes[name]),
        },
        "involution_solve": {
            "argv": argv,
            "wall_s": round(min(p[1]["wall_s"] for p in probes[name]), 4),
            "peak_rss_growth_bytes": max(p[1]["grown_kb"] for p in probes[name]) * 1024,
        },
    } for name in sources}


DISTANCE_START_CHILD = PEAK_KB + """
from coloring_games.games import Position
from coloring_games.graphs import build_family
from coloring_games.rulesets import DistanceColoring, ProperColoring
n, d = map(int, sys.argv[1:])
g = build_family("path", n)
ruleset = DistanceColoring(d) if d else ProperColoring()
before = peak_kb()
t0 = time.perf_counter()
Position.start(g, 2, ruleset)
wall = time.perf_counter() - t0
print(json.dumps({"wall_s": wall, "grown_kb": peak_kb() - before}))
"""


def budgeted_exit(src: str, argv: list[str]) -> int:
    """The exit code of `python -m coloring_games.cli argv` in a fresh
    interpreter with src first on its path, under BUDGET_BYTES."""
    env = {**os.environ, "PYTHONPATH": src, TT_BYTES_ENV: str(BUDGET_BYTES)}
    return subprocess.run([sys.executable, "-m", "coloring_games.cli", *argv],
                          capture_output=True, env=env).returncode


def measure_distance_start(sources: dict[str, str]) -> dict[str, dict]:
    """A row per source tree, named distance_start plus the tree's suffix."""
    starts = {"proper": 0, "distance_d2": 2, "distance_d8": 8}
    argv = ["solve", "--ruleset", "distance", "--d", "2", "--k", "2",
            "--graph", f"path:{GRAPH_N}"]
    probes = interleave(sources, DISTANCE_RUNS, lambda src: (
        {name: json.loads(fresh(src, "-c", DISTANCE_START_CHILD, str(GRAPH_N), str(d)))
         for name, d in starts.items()},
        run_cli(src, argv, True),
        budgeted_exit(src, argv)))
    return {f"distance_start{name}": {
        "n": GRAPH_N,
        "runs": DISTANCE_RUNS,
        "start": {case: {
            "wall_s": round(min(p[0][case]["wall_s"] for p in probes[name]), 4),
            "peak_rss_growth_bytes": max(p[0][case]["grown_kb"] for p in probes[name]) * 1024,
        } for case in starts},
        "closed_form_solve": {
            "argv": argv,
            "wall_s": round(min(p[1]["wall_s"] for p in probes[name]), 4),
            "peak_rss_growth_bytes": max(p[1]["grown_kb"] for p in probes[name]) * 1024,
            "budget_bytes": BUDGET_BYTES,
            "budget_exit_codes": sorted({p[2] for p in probes[name]}),
        },
    } for name in sources}


def measure_commands(sources: dict[str, str], row: str, commands: dict[str, list[str]],
                     runs: int) -> dict[str, dict]:
    """A row per source tree, named row plus the tree's suffix."""
    probes = interleave(sources, runs, lambda src: {
        case: run_cli(src, argv, True) for case, argv in commands.items()})
    return {f"{row}{name}": {
        "runs": runs,
        **{case: {
            "argv": argv,
            "wall_s": round(min(p[case]["wall_s"] for p in probes[name]), 4),
            "peak_rss_growth_bytes": max(p[case]["grown_kb"] for p in probes[name]) * 1024,
            "numpy_loaded": probes[name][-1][case]["numpy_loaded"],
        } for case, argv in commands.items()},
    } for name in sources}


KERNEL_CHILD = """
import json, os, sys, time
from coloring_games import oriented_paths as op
K, op.SHORT_FILL_MAX = map(int, sys.argv[1:])
sys.stdout, out = open(os.devnull, "w"), sys.stdout
t0 = time.perf_counter()
from coloring_games.cli import main
code = main(["grundy-seq", "--kmax", str(K)])
wall = time.perf_counter() - t0
print(json.dumps({"code": code, "wall_s": wall, "numpy_loaded": "numpy" in sys.modules}),
      file=out)
"""


def quartiles(times: list[float]) -> dict:
    """Median and first and third quartiles of times, in seconds."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}


def measure_short_fill_bound() -> dict:
    """Fresh grundy-seq times per K under each kernel, on this tree."""
    src = os.path.join(ROOT, "src")
    rows = []
    for K in BOUND_KS:
        limits = {"stdlib": K, "numpy": 0}  # the SHORT_FILL_MAX that picks each kernel
        probes = interleave(limits, BOUND_RUNS, lambda limit: json.loads(fresh(
            src, "-c", KERNEL_CHILD, str(K), str(limit))))
        for name, runs in probes.items():
            if {(r["code"], r["numpy_loaded"]) for r in runs} != {(0, name == "numpy")}:
                raise RuntimeError(f"K={K} under the {name} kernel: {runs}")
        rows.append({"K": K, **{name: quartiles([r["wall_s"] for r in runs])
                                for name, runs in probes.items()}})
    no_slower = [r["K"] for r in rows if r["stdlib"]["median_s"] <= r["numpy"]["median_s"]]
    return {"short_fill_bound": {
        "runs": BOUND_RUNS,
        "sizes": rows,
        "largest_k_stdlib_median_no_slower": max(no_slower, default=None),
    }}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--baseline",
                    help="src directory of another checkout to measure alongside")
    args = ap.parse_args()

    rows = {}
    for name, argv in SearchCold.INSTANCES:
        rows[name] = row = measure(argv)
        print(f"{name:<24} {row['wall_s']:>8.3f} s {row['tt_entries']:>7} entries "
              f"{row['charged_bytes']:>9} charged {row['tracemalloc_bytes']:>9} traced")
    seq_row = measure_sequential()
    print(f"{'sequential path:' + str(SequentialPaths.N):<24} {seq_row['wall_s']:>8.3f} s "
          f"{seq_row['peak_rss_growth_bytes']:>9} B peak RSS growth "
          f"({seq_row['bytes_per_vertex']} B/vertex)")
    sources = {"": os.path.join(ROOT, "src")}  # row name suffix -> source tree
    if args.baseline:
        sources["_baseline"] = args.baseline
    import_rows = measure_import(sources)
    for name, row in import_rows.items():
        print(f"{name:<24} {row['median_s']:>8.3f} s median {row['min_s']:.3f} s min, "
              f"{len(row['modules'])} package modules, dataclasses loaded: "
              f"{row['dataclasses_loaded']}, inspect loaded: {row['inspect_loaded']}")
    table_rows = measure_tables(sources)
    for name, row in table_rows.items():
        for cmd in ("info", "export-csv"):
            r = row[cmd]
            print(f"{name + ' ' + cmd:<27} {r['wall_s']:>8.3f} s best "
                  f"{r['peak_rss_growth_bytes']:>9} B peak RSS growth, "
                  f"numpy loaded: {r['numpy_loaded']}")
    graph_rows = measure_graph_data(sources)
    for name, row in graph_rows.items():
        start, solve = row["oriented_start"], row["involution_solve"]
        print(f"{name + ' oriented start':<34} {start['wall_s']:>8.3f} s best "
              f"{start['retained_bytes']:>9} B retained")
        print(f"{name + ' involution':<34} {solve['wall_s']:>8.3f} s best "
              f"{solve['peak_rss_growth_bytes']:>9} B peak RSS growth")
    distance_rows = measure_distance_start(sources)
    for name, row in distance_rows.items():
        for case, r in row["start"].items():
            print(f"{name + ' start ' + case:<44} {r['wall_s']:>8.3f} s best "
                  f"{r['peak_rss_growth_bytes']:>9} B peak RSS growth")
        solve = row["closed_form_solve"]
        print(f"{name + ' closed-form solve':<44} {solve['wall_s']:>8.3f} s best "
              f"{solve['peak_rss_growth_bytes']:>9} B peak RSS growth, exit "
              f"{solve['budget_exit_codes']} under {BUDGET_BYTES} B")
    command_rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "classes.bin")
        op.save_table(op.compute_tables(START_UP_TABLE_K), table)
        start_up = {case: argv + [table] if case == "tables_info" else argv
                    for case, argv in START_UP.items()}
        for row_name, commands, runs in (("short_tables", SHORT_TABLES, SHORT_RUNS),
                                         ("fills", FILLS, FILL_RUNS),
                                         ("start_up", start_up, START_UP_RUNS)):
            for name, row in measure_commands(sources, row_name, commands, runs).items():
                command_rows[name] = row
                for case in commands:
                    r = row[case]
                    print(f"{name + ' ' + case:<44} {r['wall_s']:>8.3f} s best "
                          f"{r['peak_rss_growth_bytes']:>9} B peak RSS growth, "
                          f"numpy loaded: {r['numpy_loaded']}")
    bound_row = measure_short_fill_bound()
    for r in bound_row["short_fill_bound"]["sizes"]:
        print(f"{'short_fill_bound K=' + str(r['K']):<44} "
              + "  ".join(f"{name} {r[name]['median_s']:.3f} s "
                          f"[{r[name]['q1_s']:.3f}, {r[name]['q3_s']:.3f}]"
                          for name in ("stdlib", "numpy")))
    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "search_cold": rows,
        "sequential": seq_row,
        **import_rows,
        **table_rows,
        **graph_rows,
        **distance_rows,
        **command_rows,
        **bound_row,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
