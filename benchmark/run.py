"""Run one benchmark workload through the coloring-games CLI and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's request list goes through `coloring_games.cli.main(argv)` in
this one process, one request at a time, with stdout captured and checked.
Passes over the list repeat while the next one is predicted to end within
--seconds, with at least one pass. With --trace 0 the last stdout line
carries the end-to-end metrics. With --trace 1, untraced and traced passes
alternate, and it carries the per-layer metrics instead. A record of the run,
and the spans of a traced run, go to .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, so no request argv or stdout names ROOT
SETUP_REPEATS = 11  # untraced runs only; a traced run sets up once

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import coloring_games.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}
# timings vary by more than a tenth from run to run on a shared 2-core host,
# so they are per-layer diagnostics, taken from the untraced passes
TIMING_UNITS = {"wall_s": "s", "req_p50_ms": "ms", "req_p99_ms": "ms"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "coloring_games" / "cli.py").is_file():
        print(f"error: no coloring_games sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed

    OUT.mkdir(exist_ok=True)
    work = OUT / "inputs"
    try:
        setup_s, workload = set_up(WORKLOADS[args.workload], seed, work,
                                   1 if args.trace else SETUP_REPEATS)
        passes, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(len(p["failed"]) for p in passes)
    attempted = sum(len(p["outputs"]) for p in passes)
    digests = sorted({p["digest"] for p in passes})
    timings = request_timings([p for p in passes if not p["traced"]])
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        from tracer import LAYER_UNITS

        metrics = {**timings, **layer_metrics(tracer, passes, workload.requests),
                   "error_rate": failed / attempted}
        units = {**TIMING_UNITS, **LAYER_UNITS, "error_rate": "ratio"}

    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "stdout_sha256": digests, "requests_per_pass": len(workload.requests),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "failed": p["failed"],
                    "request_s": [o.seconds for o in p["outputs"]]} for p in passes],
        "timings": timings, "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"{tag}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": tracer.SPAN_FIELDS, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)

    for d in digests:
        print(f"stdout-sha256 {args.workload} seed={seed} {d}")
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def set_up(cls, seed: int, work: Path, repeats: int):
    """Median of several set-ups: a fresh-process import plus input generation."""
    times = []
    for _ in range(repeats):
        shutil.rmtree(work, ignore_errors=True)
        imported = import_seconds()
        t0 = time.perf_counter()
        workload = cls(seed=seed, work=work)
        workload.make()
        times.append(imported + time.perf_counter() - t0)
    return statistics.median(times), workload


def import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure(workload, seconds: float, trace: bool):
    """Play passes until the next one would overrun the budget.

    A traced run alternates untraced and traced passes and plays at least one
    of each, so the tracing overhead comes from the same process.
    """
    from tracer import Tracer

    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(play(workload, tracer if traced else None))
        if trace and len(passes) < 2:
            continue
        if time.perf_counter() - start + max(p["wall_s"] for p in passes) > seconds:
            return passes, tracer


def play(workload, tracer) -> dict:
    """One pass over the request list; outputs come back in list order."""
    from coloring_games import cli
    from workloads import Output, digest

    workload.before_pass()
    gc.collect()
    outputs = [None] * len(workload.requests)
    if tracer is not None:
        tracer.install()
    try:
        for i in workload.order():
            workload.before_request(i)
            argv = workload.requests[i]
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    if tracer is None:
                        code = cli.main(argv)
                    else:
                        tracer.request = i
                        code = tracer.call("cli", cli.main, argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed request, not a failed run
                print(f"request {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
                code = None
            outputs[i] = Output(code, buf.getvalue(), time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = set(workload.check(outputs)) | {i for i, o in enumerate(outputs) if o.code != 0}
    return {"traced": tracer is not None, "outputs": outputs, "failed": sorted(failed),
            "wall_s": sum(o.seconds for o in outputs), "digest": digest(outputs)}


def request_timings(passes) -> dict[str, float]:
    """Median pass time, and median and nearest-rank p99 request latency."""
    latencies = sorted(o.seconds for p in passes for o in p["outputs"])
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_p99_ms": 1000 * latencies[math.ceil(0.99 * len(latencies)) - 1],
    }


def layer_metrics(tracer, passes, requests) -> dict[str, float]:
    """Per-layer totals per traced pass, plus the tracing overhead."""
    from tracer import LAYER_UNITS

    traced = [p for p in passes if p["traced"]]
    methods = Counter()
    for p in traced:
        for argv, out in zip(requests, p["outputs"]):
            if argv[0] == "solve" and out.code == 0:
                with contextlib.suppress(ValueError, AttributeError):
                    methods[json.loads(out.stdout).get("method")] += 1
    totals = tracer.layer_totals(methods)
    out = {k: v if LAYER_UNITS[k] in ("ratio", "1/s") else v / len(traced)
           for k, v in totals.items()}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in passes
                                                   if not p["traced"]))
    return out


if __name__ == "__main__":
    sys.exit(main())
