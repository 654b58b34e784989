"""Fresh grundy-seq times per K under each fill kernel, as JSON.

For each K of BOUND_KS it runs scripts/bench.py's child, grundy-seq --kmax K,
BOUND_RUNS times under the stdlib kernel and as many under numpy's,
interleaved, with oriented_paths.SHORT_FILL_MAX set before the clock starts
to pick the kernel. It gives each kernel's median and quartiles per K, and
the largest K at which the stdlib median was no slower: the figure
SHORT_FILL_MAX is chosen from. It takes about 6 minutes on a 2-core machine,
so it runs only when the bound is re-tuned.

Example:
    python scripts/short_fill_bound.py --out BOUND.json
"""

import argparse
import compileall
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import SRC, interleave, quartiles, run_child, write_doc

# the sizes, in steps of 512 where the two kernels meet
BOUND_KS = (1024, 2048, 4096, 6144, 7168, 8192, 8704, 9216, 9728, 10240, 10752, 11264,
            12288, 16384)
BOUND_RUNS = 11  # fresh interpreters per K and kernel


def short_fill_bound() -> dict:
    """Fresh grundy-seq times per K under each kernel, on this tree."""
    rows = []
    for K in BOUND_KS:
        limits = {"stdlib": K, "numpy": 0}  # the SHORT_FILL_MAX that picks each kernel
        probes = interleave(limits, BOUND_RUNS, lambda limit: run_child(
            SRC, ["grundy-seq", "--kmax", str(K)], limit))
        for name, runs in probes.items():
            if {(r["exit_code"], r["numpy_loaded"]) for r in runs} != {(0, name == "numpy")}:
                raise RuntimeError(f"K={K} under the {name} kernel: {runs}")
        rows.append({"K": K, **{name: {f"{k}_s": v for k, v in quartiles(
            [r["wall_s"] for r in runs]).items()} for name, runs in probes.items()}})
        print(f"K={K:<6} " + "  ".join(f"{name} {q['median_s']:.3f} s [{q['q1_s']:.3f}, "
                                       f"{q['q3_s']:.3f}]" for name, q in rows[-1].items()
                                       if name != "K"))
    no_slower = [r["K"] for r in rows if r["stdlib"]["median_s"] <= r["numpy"]["median_s"]]
    return {
        "runs": BOUND_RUNS,
        "sizes": rows,
        "largest_k_stdlib_median_no_slower": max(no_slower, default=None),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args()
    compileall.compile_dir(SRC, quiet=1)
    write_doc(args.out, {"short_fill_bound": short_fill_bound()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
