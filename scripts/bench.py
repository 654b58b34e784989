"""Fixed CLI requests timed in fresh interpreters against a baseline tree, as JSON.

Every timed row is one command, run RUNS or QUICK_RUNS times in fresh
interpreters with a source tree first on the path: the benchmark's
IMPORT_PROBE alone, or coloring_games.cli.main(argv) timed from before
`import coloring_games.cli`, with stdout discarded. A run reports its exit
code, its wall time, its VmHWM growth (read from /proc/self/status, so Linux
only) and whether numpy loaded. A `solve --method search` run also reports
the Grundy value, the table entries and the bytes charged against
COLORING_GAMES_TT_BYTES.

With --baseline SRC (the src directory of another checkout, such as the
parent commit's) the runs of the two trees alternate, and each round swaps
which tree goes first. A row gives each tree's median and quartiles of wall
time and peak growth. Per metric it also gives the pairs each tree won (ties
count for neither) and a verdict. The verdict is "faster" or "slower" (for
peak growth, "smaller" or "larger") only when one tree wins at least 9 in 10
of at least 10 pairs and the medians differ by more than the baseline's
quartile spread and by more than 2% of its median. Otherwise it is
"unresolved". Rows of fewer runs per tree (K=10^5 and Tier-1) carry no
verdict.

The rows are:
- the search set: the search-cold instances plus SEARCH_EXTRA;
- start-up: IMPORT_PROBE, and START_UP, one short command per family plus
  the solves that fill a class table, one with each kernel;
- grundy-seq at K=10^4, and at K=10^5 once;
- the sequential-paths million-vertex request, with its growth per vertex;
- LARGE, requests on 200,000-vertex paths;
- PAINTED, searches of a few free vertices on long painted paths, read
  from graph files;
- TABLES at the path-tables K;
- the Tier-1 wall time, twice per tree in the order tree, baseline,
  baseline, tree, with each tree's median.

Both trees' bytecode caches are compiled first, so that every run of either
tree imports from cache, even under PYTHONDONTWRITEBYTECODE. A source file
edited after that would be compiled again in every later run, so each row
first checks that no .py file under either tree has changed since.

Example:
    python scripts/bench.py --out BENCH_30.json --baseline ../parent/src
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "benchmark")]

from coloring_games import oriented_paths as op
from coloring_games.graphs import GraphDocument, build_family, save_graph_file
from run import IMPORT_PROBE
from workloads import DEFAULT_SEED, PathTables, SearchCold, SequentialPaths

RUNS = 10  # fresh interpreters per tree for a row of seconds per run
QUICK_RUNS = 25  # the same for a row of under two seconds per run
MIN_PAIRS = 10  # fewer pairs than this give no verdict
# nor does a median gap within this share of the baseline's median: VmHWM
# counts 4 kB pages, and identical code in two checkouts differed by up to two
# in every pair, where one is 0.84% of the import's growth
MIN_GAP = 0.02
SEARCH_EXTRA = [
    ("distance-2 path:17", ["--ruleset", "distance", "--d", "2", "--k", "2",
                            "--graph", "path:17"]),
    ("proper k=2 grid:4,4", ["--ruleset", "proper", "--k", "2", "--graph", "grid:4,4"]),
    ("weak cycle:13", ["--ruleset", "weak", "--graph", "cycle:13"]),
]
START_UP_TABLE_K = 100  # the K of the table file `tables info` reads
START_UP = {
    "import": None,  # IMPORT_PROBE alone
    "grundy_seq_40": ["grundy-seq", "--kmax", "40"],
    "p_positions_20": ["p-positions", "--kmax", "20"],
    "tables_info": ["tables", "info", "--table"],  # the table file's path is appended
    "solve_path_6": ["solve", "--ruleset", "proper", "--k", "2", "--graph", "path:6"],
    "solve_dpath_100": ["solve", "--ruleset", "oriented-br", "--graph", "dpath:100"],
    # the shortest uncolored path whose class table numpy's kernel fills
    "solve_dpath_past_bound": ["solve", "--ruleset", "oriented-br",
                               "--graph", f"dpath:{op.SHORT_FILL_MAX + 1}"],
    "sequential_path_1000": ["sequential", "--graph", "path:1000", "--order", "random",
                             "--seed", "1"],
    "reduce_path_3": ["reduce", "--from", "kayles", "--to", "proper", "--k", "2",
                      "--graph", "path:3", "--verify"],
    "verify_sequential_4": ["verify", "sequential", "--exhaustive", "--n", "4"],
}
LARGE_N = 200_000
LARGE = {
    "distance_d2_closed_form": ["solve", "--ruleset", "distance", "--d", "2", "--k", "2",
                                "--graph", f"path:{LARGE_N}"],
    # no closed form answers d=8, so this times the start and the check
    "distance_d8_closed_form": ["solve", "--ruleset", "distance", "--d", "8", "--k", "2",
                                "--graph", f"path:{LARGE_N}", "--method", "closed-form"],
    "proper_k2_involution": ["solve", "--ruleset", "proper", "--k", "2",
                             "--graph", f"dpath:{LARGE_N}", "--method", "involution"],
    "oriented_k3_start": ["solve", "--ruleset", "oriented", "--k", "3",
                          "--graph", f"dpath:{LARGE_N}", "--method", "closed-form"],
}
# mostly painted paths searched from a graph file: k, n, and which vertices
# stay free; the others are painted 1 + v % k, a proper coloring
PAINTED = {
    "proper_k2_path_100000_last_14_free": (2, 100_000, lambda n, v: v >= n - 14),
    "proper_k3_path_30000_every_third_free": (3, 30_000, lambda n, v: v % 3 == 2),
}
TABLES = ("info", "export-csv")  # `tables` commands on a PathTables.KMAX file
SEARCH_FIELDS = ("grundy", "tt_entries", "charged_bytes")

CHILD = f"PROBE = {IMPORT_PROBE!r}\n" + """
import io, json, os, re, sys, time

def peak_kb():
    with open("/proc/self/status", encoding="utf-8") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))

argv = json.loads(sys.argv[1])
search = argv is not None and argv[0] == "solve" and "search" in argv
sink = io.StringIO() if search else open(os.devnull, "w", encoding="utf-8")
sys.stdout, out = sink, sys.stdout
before = peak_kb()
t0 = time.perf_counter()
if argv is None:
    exec(PROBE)
    code = 0
else:
    from coloring_games.cli import main
    code = main(argv)
wall = time.perf_counter() - t0
run = {"exit_code": code, "wall_s": wall, "grown_kb": peak_kb() - before,
       "numpy_loaded": "numpy" in sys.modules}
if search:
    (solver,) = sys.modules["coloring_games.games"]._SOLVERS.values()
    run.update(grundy=json.loads(sys.stdout.getvalue())["grundy"],
               tt_entries=len(solver.table), charged_bytes=solver.bytes)
print(json.dumps(run), file=out)
"""


def run_child(src: str, argv: list[str] | None) -> dict:
    """One run of CHILD in a fresh interpreter with src first on its path."""
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    if proc.returncode:
        raise RuntimeError(f"{argv} under {src}: {proc.stderr}")
    return json.loads(proc.stdout)


def interleave(sources: dict[str, object], runs: int, probe: Callable) -> dict[str, list]:
    """probe(source) runs times per named source. The sources take turns, in
    reverse order every other round, so that host drift falls on each alike."""
    results: dict[str, list] = {name: [] for name in sources}
    for i in range(runs):
        for name in list(sources)[:: 1 if i % 2 == 0 else -1]:
            results[name].append(probe(sources[name]))
    return results


def quartiles(values: list[float], digits: int | None = 4) -> dict:
    """Median and first and third quartiles of values (all three the value
    itself for a single one), rounded to digits (None: to integers)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def verdict(ours: list[float], base: list[float], better: str = "faster",
            worse: str = "slower") -> dict:
    """The pairs (ours[i], base[i]) each side won, lower winning and ties
    counting for neither, and better or worse when one side won at least 9
    in 10 of at least MIN_PAIRS pairs and the medians differ by more than
    base's quartile spread and MIN_GAP of its median; "unresolved" otherwise."""
    won = sum(a < b for a, b in zip(ours, base))
    lost = sum(a > b for a, b in zip(ours, base))
    q1, median, q3 = statistics.quantiles(base, n=4)
    gap = statistics.median(ours) - median
    word = "unresolved"
    if len(base) >= MIN_PAIRS and abs(gap) > max(q3 - q1, MIN_GAP * median):
        if gap < 0 and 10 * won >= 9 * len(base):
            word = better
        elif gap > 0 and 10 * lost >= 9 * len(base):
            word = worse
    return {"won": won, "lost": lost, "verdict": word}


def same(runs: list[dict], key: str):
    """The one value key takes in every run."""
    values = {run[key] for run in runs}
    if len(values) != 1:
        raise RuntimeError(f"{key} varies between runs: {sorted(values)}")
    return values.pop()


def row(argv: list[str] | None, runs: int, baseline: str | None = None) -> dict:
    """argv (None for IMPORT_PROBE) runs times per tree: this one and, if
    given, the baseline's src directory, interleaved."""
    sources = {"tree": SRC, **({"baseline": baseline} if baseline else {})}
    results = interleave(sources, runs, lambda src: run_child(src, argv))
    out: dict = {"argv": argv, "runs": runs}
    for name, rs in results.items():
        out[name] = {
            **{key: same(rs, key) for key in ("exit_code", "numpy_loaded", *SEARCH_FIELDS)
               if key in rs[0]},
            "wall_s": quartiles([r["wall_s"] for r in rs], 5),
            "peak_growth_bytes": quartiles([r["grown_kb"] * 1024 for r in rs], None),
        }
    if baseline and runs > 1:
        ours, base = results["tree"], results["baseline"]
        out["verdict"] = {
            "wall_s": verdict([r["wall_s"] for r in ours], [r["wall_s"] for r in base]),
            "peak_growth_bytes": verdict([r["grown_kb"] for r in ours],
                                         [r["grown_kb"] for r in base], "smaller", "larger"),
        }
    return out


def tier1(sources: dict[str, str]) -> dict:
    """The Tier-1 suite's wall time and summary line, run from the root of
    each tree's checkout twice, interleaved (tree, baseline, baseline, tree),
    with each tree's median wall time."""
    def once(src: str) -> dict:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=os.path.dirname(src), capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        return {"exit_code": proc.returncode, "wall_s": round(time.perf_counter() - t0, 1),
                "summary": proc.stdout.strip().splitlines()[-1]}
    results = interleave(sources, 2, once)
    return {"runs": 2, **{name: {
        "median_wall_s": round(statistics.median(r["wall_s"] for r in rs), 1), "runs": rs}
        for name, rs in results.items()}}


def mtimes(srcs) -> dict[str, int]:
    """The modification time, in ns, of every .py file under the directories srcs."""
    return {str(p): p.stat().st_mtime_ns
            for src in srcs for p in sorted(Path(src).rglob("*.py"))}


def check_unchanged(compiled: dict[str, int], srcs) -> None:
    """Raise RuntimeError naming the first .py file under srcs added, edited
    or deleted since compiled = mtimes(srcs) was taken."""
    now = mtimes(srcs)
    for path in {**compiled, **now}:
        if compiled.get(path) != now.get(path):
            raise RuntimeError(f"{path} changed after the bytecode caches were compiled")


def write_doc(path: str, rows: dict) -> None:
    """rows as a JSON file at path, after the interpreter and host they ran on."""
    host = {"python": platform.python_version(), "machine": platform.machine(),
            "cpus": os.cpu_count()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**host, **rows}, indent=2) + "\n")


def report(name: str, r: dict) -> None:
    """One line per tree of a row: wall and peak growth medians and quartiles,
    and the verdicts."""
    for tree in ("tree", "baseline"):
        if tree in r:
            w, p = r[tree]["wall_s"], r[tree]["peak_growth_bytes"]
            print(f"{name + ' ' + tree:<44} {w['median']:>9.4f} s [{w['q1']:.4f}, "
                  f"{w['q3']:.4f}] {p['median'] / 2**20:>7.1f} MB exit {r[tree]['exit_code']}")
    if "verdict" in r:
        print(f"{'':<44} " + ", ".join(f"{m}: {v['verdict']} ({v['won']}-{v['lost']})"
                                       for m, v in r["verdict"].items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--baseline",
                    help="src directory of another checkout to measure alongside")
    args = ap.parse_args()
    baseline = os.path.abspath(args.baseline) if args.baseline else None
    sources = {"tree": SRC, **({"baseline": baseline} if baseline else {})}
    for src in sources.values():
        compileall.compile_dir(src, quiet=1)
    compiled = mtimes(sources.values())

    rows: dict[str, dict] = {}

    def add(name: str, argv: list[str] | None, runs: int) -> dict:
        check_unchanged(compiled, sources.values())
        rows[name] = r = row(argv, runs, baseline)
        report(name, r)
        return r

    with tempfile.TemporaryDirectory() as tmp:
        table, short_table = os.path.join(tmp, "classes.bin"), os.path.join(tmp, "short.bin")
        op.save_table(op.compute_tables(PathTables.KMAX), table)
        op.save_table(op.compute_tables(START_UP_TABLE_K), short_table)
        sequential = SequentialPaths(seed=DEFAULT_SEED, work=Path(tmp))
        sequential.make()
        for name, argv in SearchCold.INSTANCES + SEARCH_EXTRA:
            add(f"search {name}", ["solve", *argv, "--method", "search", "--format", "json"],
                RUNS)
        for name, argv in START_UP.items():
            add(f"start_up {name}", argv + [short_table] if name == "tables_info" else argv,
                QUICK_RUNS)
        add("grundy_seq_10000", ["grundy-seq", "--kmax", "10000"], QUICK_RUNS)
        add("grundy_seq_100000", ["grundy-seq", "--kmax", "100000"], 1)
        r = add("sequential", sequential.requests[0], RUNS)
        for tree in sources:
            r[tree]["bytes_per_vertex"] = round(
                r[tree]["peak_growth_bytes"]["median"] / SequentialPaths.N, 1)
        for name, argv in LARGE.items():
            add(f"large {name}", argv, QUICK_RUNS)
        for name, (k, n, free) in PAINTED.items():
            path = os.path.join(tmp, f"{name}.txt")
            coloring = tuple(None if free(n, v) else 1 + v % k for v in range(n))
            save_graph_file(GraphDocument(build_family("path", n), coloring=coloring), path)
            add(f"painted {name}", ["solve", "--ruleset", "proper", "--k", str(k), "--file", path,
                                    "--method", "search", "--format", "json"], QUICK_RUNS)
        for cmd in TABLES:
            add(f"tables {cmd}", ["tables", cmd, "--table", table], QUICK_RUNS)
    check_unchanged(compiled, sources.values())
    rows["tier1"] = tier1(sources)
    for tree in sources:
        t = rows["tier1"][tree]
        print(f"{'tier1 ' + tree:<44} {t['median_wall_s']:>9.1f} s median of "
              + ", ".join(f"{r['wall_s']:.1f} s ({r['summary']})" for r in t["runs"]))
    write_doc(args.out, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
