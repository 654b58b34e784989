"""Cold-cache search numbers for the transposition table, written as JSON.

Solves the six uncolored positions of the benchmark's search-cold workload
with games.grundy, each from empty caches, and records per instance:
- wall_s: best of REPEATS untraced solves;
- grundy and tt_entries: the value and the size of the solver's table;
- charged_bytes: what the solver counted against COLORING_GAMES_TT_BYTES;
- tracemalloc_bytes: what the solve left allocated (the table and the
  solver's own buffers, after a full gc.collect), from one more solve traced
  by tracemalloc after the graph and the solver were built.

Example:
    python scripts/bench.py --out BENCH_10.json
"""

import argparse
import gc
import json
import os
import platform
import sys
import time
import tracemalloc

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

from coloring_games import cli, games, rulesets
from workloads import SearchCold

REPEATS = 3  # untraced solves per instance


def cold_position(argv: list[str]) -> games.Position:
    """The uncolored position that `solve` with these options reads, with
    the solver and power-graph caches emptied."""
    games.clear_solver_cache()
    rulesets._power.cache_clear()
    args = cli.build_parser().parse_args(["solve", *argv])
    graph, _source, doc = cli._load_graph(args)
    ruleset = cli._build_ruleset(args)
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()

    rows = {}
    for name, argv in SearchCold.INSTANCES:
        rows[name] = row = measure(argv)
        print(f"{name:<24} {row['wall_s']:>8.3f} s {row['tt_entries']:>7} entries "
              f"{row['charged_bytes']:>9} charged {row['tracemalloc_bytes']:>9} traced")
    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "search_cold": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
