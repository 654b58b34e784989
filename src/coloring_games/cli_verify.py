"""The verify command: oracle-equivalence suites.

Each suite imports the search, table, sequential or reduction modules it
checks when it runs, so a suite loads only the engine it runs.
"""

from __future__ import annotations

import itertools
import random
from typing import TextIO

from . import cli
from .cli_output import emit
from .graphs import connected_graph_census
from .rulesets import (
    OUTCOME_N,
    OUTCOME_P,
    OUTCOME_UNKNOWN,
    RULESET_TOKENS,
    DistanceColoring,
    OrientedBlueRed,
    ProperColoring,
    WeakColoring,
)


def _suite_recursion(args) -> list[dict]:
    from . import games, oriented_paths as op

    kmax = args.kmax or 12
    table = op.compute_tables(kmax)
    checks = []
    for klass in op.PATH_CLASSES:
        lo = 2 if klass == op.CLASS_C else 1
        bad = [k for k in range(lo, kmax + 1)
               if games.grundy(op.build_class_position(klass, k)) != table.value(klass, k)]
        checks.append({
            "check": f"recursion-vs-search class {klass} k<={kmax}",
            "ok": not bad,
            "detail": f"mismatch at {bad}" if bad else f"{kmax - lo + 1} lengths",
        })
    return checks


def _suite_sequential(args) -> list[dict]:
    from . import sequential as seq

    n = args.n or 6
    checks = []
    if args.exhaustive:
        if n > 8:
            raise ValueError("exhaustive sequential verification is capped at n=8")
        for m in range(1, n + 1):
            g = cli.build_family("path", m)
            bad = sum(1 for perm in itertools.permutations(range(m))
                      if seq.decide_path(perm) != seq.brute_force_outcome(g, perm))
            checks.append({
                "check": f"sequential exhaustive n={m}",
                "ok": bad == 0,
                "detail": f"{bad} mismatches" if bad else "all orders",
            })
    else:
        if args.seed is None:
            raise ValueError("sampled sequential verification requires --seed")
        rng = random.Random(args.seed)
        samples = args.samples
        g = cli.build_family("path", n)
        bad = 0
        for _ in range(samples):
            perm = list(range(n))
            rng.shuffle(perm)
            if seq.decide_path(tuple(perm)) != seq.brute_force_outcome(g, tuple(perm)):
                bad += 1
        checks.append({
            "check": f"sequential sampled n={n} x{samples}",
            "ok": bad == 0,
            "detail": f"{bad} mismatches" if bad else f"seed {args.seed}",
        })
    return checks


def _suite_reductions(args) -> list[dict]:
    from . import games, reductions
    from .cli_reduce import REDUCERS, reduced

    n = args.n or 4
    # every reduce target, at k=2 and 3 unless its ruleset fixes k
    variants = []
    for to in REDUCERS:
        fixed = RULESET_TOKENS[to].fixed_k
        if fixed is None:
            variants += [(f"{to} k={k}", to, k) for k in (2, 3)]
        else:
            variants.append((to, to, fixed))
    census = [g for m in range(1, n + 1) for g in connected_graph_census(m)]
    checks = []
    for name, to, k in variants:
        fails = []
        for g in census:
            rep = reductions.verify_equivalence(
                games.Position.start(g, 1, ProperColoring()), reduced(to, g, k))
            if not rep.equivalent:
                fails.append((g.n, list(g.pairs()), rep.reason))
        checks.append({
            "check": f"reduction {name} on census n<={n}",
            "ok": not fails,
            "detail": f"failed {fails[:2]}" if fails else f"{len(census)} graphs",
        })
    return checks


def _suite_closed_forms(args) -> list[dict]:
    from . import games

    checks = []

    def add(name, instances):
        # the engine's value must give the claimed outcome, and equal the
        # claimed value where the closed form gives one
        bad = []
        for g, k, ruleset in instances:
            want, value = cli.closed_form_outcome(ruleset, k, g)
            if want == OUTCOME_UNKNOWN:
                bad.append((g.family, "no closed form"))
                continue
            got = games.grundy(games.Position.start(g, k, ruleset))
            if (OUTCOME_N if got else OUTCOME_P) != want or value not in (None, got):
                bad.append((g.family, want))
        checks.append({
            "check": name,
            "ok": not bad,
            "detail": f"mismatch {bad}" if bad else f"{len(instances)} instances",
        })

    build = cli.build_family
    add("proper k=2 paths", [(build("path", n), 2, ProperColoring()) for n in range(2, 12)])
    add("proper k=2 cycles", [(build("cycle", n), 2, ProperColoring()) for n in range(3, 11)])
    add("weak cycles", [(build("cycle", n), 2, WeakColoring()) for n in range(3, 10)])
    add("blue-red directed cycles", [(build("directed_cycle", n), 2, OrientedBlueRed())
                                     for n in range(4, 10)])
    add("blue-red directed paths", [(build("directed_path", n), 2, OrientedBlueRed())
                                    for n in range(1, 13)])
    add("distance-2 paths", [(build("path", n), 2, DistanceColoring(2)) for n in range(3, 10)])

    pairings = [("grid:3,3", OUTCOME_N), ("grid:2,3", OUTCOME_P),
                ("hypercube:3", OUTCOME_P), ("complete_binary_tree:2", OUTCOME_N)]
    bad = []
    for spec, want in pairings:
        g = cli.parse_family_spec(spec)
        got = cli.outcome_by_involution(g, 2)
        if got != want or games.outcome(games.Position.start(g, 2, ProperColoring())) != want:
            bad.append((spec, got))
    checks.append({
        "check": "involution pairings",
        "ok": not bad,
        "detail": f"mismatch {bad}" if bad else f"{len(pairings)} instances",
    })
    return checks


SUITES = {
    "recursion": _suite_recursion,
    "sequential": _suite_sequential,
    "reductions": _suite_reductions,
    "closed-forms": _suite_closed_forms,
}


def cmd_verify(args, out: TextIO) -> int:
    checks = SUITES[args.suite](args)
    passed = sum(1 for c in checks if c["ok"])
    if args.format == "json":
        for c in checks:
            emit(c, "json", out)
        emit({"suite": args.suite, "passed": passed, "total": len(checks)}, "json", out)
    else:
        for c in checks:
            tag = "ok  " if c["ok"] else "FAIL"
            out.write(f"{tag} {c['check']} ({c['detail']})\n")
        out.write(f"{args.suite}: {passed}/{len(checks)} checks passed\n")
    return cli.EXIT_OK if passed == len(checks) else cli.EXIT_VERIFY
