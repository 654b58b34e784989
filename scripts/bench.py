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
- wall_s: best time of the cli.main call;
- peak_rss_growth_bytes: the most the interpreter's peak RSS grew across
  the call (VmHWM from /proc/self/status, so Linux only). It equals the
  ru_maxrss growth of a process started from a small one; a child's
  ru_maxrss starts at its parent's peak, which would hide the request;
- bytes_per_vertex: that growth over n.

Last it times start-up: the benchmark's own IMPORT_PROBE (imported from
benchmark/run.py, a fresh `import coloring_games.cli`, which setup_s counts)
in IMPORT_RUNS fresh interpreters, and records the median and minimum
seconds, the package modules the import loaded, and whether the interpreters
ran without writing bytecode caches (PYTHONDONTWRITEBYTECODE), since a cached
import skips compiling the sources.

Example:
    python scripts/bench.py --out BENCH_13.json
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

from coloring_games import cli, games, rulesets
from run import IMPORT_PROBE
from workloads import DEFAULT_SEED, SearchCold, SequentialPaths

REPEATS = 3  # untraced solves per instance
IMPORT_RUNS = 11  # fresh interpreters timing the import


def cold_position(argv: list[str]) -> games.Position:
    """The uncolored position that `solve` with these options reads, with
    the solver and power-graph caches emptied."""
    games.clear_solver_cache()
    rulesets._power.cache_clear()
    args = cli.build_parser().parse_args(["solve", *argv])
    graph, _source, doc = cli._load_graph(args)
    ruleset = cli._build_ruleset(args, doc)
    return games.Position.start(graph, cli._resolve_k(args, doc, ruleset), ruleset)


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


SEQUENTIAL_CHILD = """
import json, os, re, sys, time
from coloring_games.cli import main

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s+(\\d+) kB", fh.read()).group(1))

sys.stdout, out = open(os.devnull, "w"), sys.stdout
before = peak_kb()
t0 = time.perf_counter()
code = main(json.loads(sys.argv[1]))
wall = time.perf_counter() - t0
print(json.dumps({"code": code, "wall_s": wall, "grown_kb": peak_kb() - before}), file=out)
"""


def measure_sequential() -> dict:
    workload = SequentialPaths(seed=DEFAULT_SEED, work=Path(ROOT))
    workload.make()
    argv = workload.requests[0]
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    runs = []
    for _ in range(REPEATS):
        proc = subprocess.run([sys.executable, "-c", SEQUENTIAL_CHILD, json.dumps(argv)],
                              capture_output=True, text=True, env=env, check=True)
        runs.append(json.loads(proc.stdout))
        if runs[-1]["code"] != 0:
            raise RuntimeError(f"{argv} exited {runs[-1]['code']}: {proc.stderr}")
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
print(json.dumps(sorted(m for m in sys.modules if m.startswith("coloring_games"))))
"""


def measure_import() -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE + "\n" + LIST_MODULES],
                              capture_output=True, text=True, env=env, check=True)
        seconds, modules = proc.stdout.splitlines()
        times.append(float(seconds))
    return {
        "probe": IMPORT_PROBE,
        "runs": IMPORT_RUNS,
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "modules": json.loads(modules),
        "bytecode_cache_written": not env.get("PYTHONDONTWRITEBYTECODE"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
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
    import_row = measure_import()
    print(f"{'import coloring_games.cli':<24} {import_row['median_s']:>8.3f} s median "
          f"{import_row['min_s']:.3f} s min, {len(import_row['modules'])} package modules")
    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "search_cold": rows,
        "sequential": seq_row,
        "import": import_row,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
