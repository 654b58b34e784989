"""Checkpointed long-run table computation for the Blue-Red path classes.

Grows the class tables to a large K in chunks, saving the binary table file
after every chunk, so an interrupted or budget-killed run resumes where it
stopped. Prints the D-class P-position census and the rare/common summary at
the end.

The fill is O(K^2): K=100000 took 111 s on a 2-core machine, so K=10^6 would
take hours.

Example:
    python scripts/long_run_tables.py --kmax 100000 --checkpoint tables.bin
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coloring_games import oriented_paths as op
from coloring_games.base import MemoryBudgetExceeded


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmax", type=int, required=True)
    ap.add_argument("--checkpoint", required=True, help="binary table file")
    ap.add_argument("--every", type=int, default=50_000, help="chunk size")
    args = ap.parse_args()

    # the first table is the one loaded from the checkpoint or the first
    # chunk; each later line gives the rate of its own chunk
    table, t = None, time.perf_counter()
    try:
        for chunk in op.grow_table(args.kmax, args.checkpoint, args.every):
            now = time.perf_counter()
            rate = ""
            if table is not None:
                rate = f" ({(chunk.K - table.K) / (now - t):.0f} rows/s)"
            print(f"K={chunk.K}{rate}", file=sys.stderr)
            table, t = chunk, now
    except MemoryBudgetExceeded as exc:
        print(f"stopped at K={table.K if table is not None else 0}: {exc}", file=sys.stderr)
        if table is not None:
            print(f"checkpoint retained: {args.checkpoint}", file=sys.stderr)
        return 3

    zeros = op.enumerate_p_positions(table, op.CLASS_D)
    report = op.classify_rare_common(table)
    print(f"K={table.K}")
    print(f"D-class P-positions: {len(zeros)} (last at {zeros[-1] if zeros else '-'})")
    print(f"max value: {report.max_value}")
    print(f"largest rare index: {report.max_rare_index}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
