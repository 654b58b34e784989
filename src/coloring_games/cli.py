"""Command line front end for the coloring game engine.

Subcommands:
  solve        outcome/Grundy verdict for one position (closed forms and
               involution pairings tried before exhaustive search)
  grundy-seq   stream the directed-path class tables as CSV plus a summary
  p-positions  lengths with Grundy value 0 in one path class
  sequential   linear-time decision for the fixed-order path game
  reduce       embed a Node-Kayles instance into a richer ruleset
  verify       oracle-equivalence suites (recursion, sequential, reductions,
               closed-forms)
  tables       compute/extend/inspect/export binary table files

Exit codes: 0 computed, 2 parse or usage error, 3 memory budget exceeded or
search recursion too deep for the interpreter's stack (for example
--method search on oriented-br dpath:2500), 4 verification failure. All
output is deterministic for fixed flags; the random suites demand an
explicit --seed.
The COLORING_GAMES_TT_BYTES environment variable caps the bytes of each
graph, checked before it is built, and of the solver and class tables.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import random
import sys
from array import array
from typing import ContextManager, TextIO

# games, oriented_paths, reductions and sequential are imported by the
# handlers that use them, so a command loads only the engine it runs
from .graphs import (
    EXHAUSTIVE_CAP,
    Graph,
    GraphDocument,
    MemoryBudgetExceeded,
    build_family,
    check_order,
    connected_graph_census,
    format_graph_text,
    load_graph_file,
    parse_family_spec,
)
from .rulesets import (
    OUTCOME_N,
    OUTCOME_P,
    OUTCOME_UNKNOWN,
    DistanceColoring,
    OrientedBlueRed,
    ProperColoring,
    RULESET_TOKENS,
    SequentialColoring,
    WeakColoring,
    closed_form_outcome,
    outcome_by_involution,
    translate_for_solving,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


# ---- output ---------------------------------------------------------------

# list items per write in both formats, so a million-entry order is never
# joined into one string
_CHUNK = 4096

_SEQUENCES = (list, tuple, array)


def _write_items(val, fmt: str, out: TextIO) -> None:
    """The items of val, _CHUNK per write: JSON array items (without the
    brackets) or space-separated text."""
    for i in range(0, len(val), _CHUNK):
        chunk = val[i : i + _CHUNK]
        if fmt == "json":
            out.write((", " if i else "") + json.dumps(list(chunk))[1:-1])
        else:
            out.write((" " if i else "") + " ".join(map(str, chunk)))


def _emit(record: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        # byte-identical to json.dumps(record, sort_keys=True), written key
        # by key so a long list is never held as one string
        out.write("{")
        for i, key in enumerate(sorted(record)):
            val = record[key]
            out.write((", " if i else "") + json.dumps(key) + ": ")
            if isinstance(val, _SEQUENCES):
                out.write("[")
                _write_items(val, fmt, out)
                out.write("]")
            else:
                out.write(json.dumps(val, sort_keys=True))
        out.write("}\n")
        return
    for key, val in record.items():
        if isinstance(val, _SEQUENCES):
            out.write(f"{key}: ")
            _write_items(val, fmt, out)
            out.write("\n")
            continue
        if isinstance(val, dict):
            val = " ".join(f"{k}={v}" for k, v in val.items())
        out.write(f"{key}: {val}\n")


def _destination(path: str | None, out: TextIO) -> ContextManager[TextIO]:
    """The file at path, opened for writing, or out when no path is given."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(out)


# ---- shared input plumbing ------------------------------------------------

def _load_graph(args) -> tuple[Graph, str, GraphDocument | None]:
    """Graph from --graph shorthand or --file, plus a printable source name."""
    spec, path = args.graph, args.file
    if spec and path:
        raise ValueError("give --graph or --file, not both")
    if spec:
        return parse_family_spec(spec), spec, None
    if path:
        doc = load_graph_file(path)
        return doc.graph, path, doc
    raise ValueError("a graph is required (--graph NAME:PARAMS or --file PATH)")


def _build_ruleset(args, doc: GraphDocument | None):
    """The ruleset of --ruleset and --d; sequential takes the file's visit
    order, which no other ruleset accepts."""
    cls = RULESET_TOKENS[args.ruleset]
    d = args.d
    if d is not None and cls is not DistanceColoring:
        raise ValueError("--d only applies to the distance ruleset")
    order = doc.order if doc is not None else None
    if cls is SequentialColoring:
        return SequentialColoring(order)
    if order is not None:
        raise ValueError(f"{cls.token} takes no visit order")
    return DistanceColoring(2 if d is None else d) if cls is DistanceColoring else cls()


def _resolve_k(args, doc: GraphDocument | None, ruleset) -> int:
    if args.k is not None:
        return args.k
    if doc is not None and doc.k is not None:
        return doc.k
    if ruleset.fixed_k is not None:
        return ruleset.fixed_k
    raise ValueError("--k is required for this ruleset")


# ---- solve ---------------------------------------------------------------

def cmd_solve(args, out: TextIO) -> int:
    from . import games

    g, source, doc = _load_graph(args)
    ruleset = _build_ruleset(args, doc)
    k = _resolve_k(args, doc, ruleset)
    coloring = doc.coloring if doc is not None else None
    pos = games.Position.start(g, k, ruleset, coloring=coloring)
    uncolored = pos.painted_count == 0

    record = {"graph": source, "ruleset": ruleset.token, "k": k}
    if isinstance(ruleset, DistanceColoring):
        record["d"] = ruleset.d

    method = args.method
    outcome = OUTCOME_UNKNOWN
    value: int | None = None

    if method in ("auto", "closed-form") and uncolored:
        outcome, value = closed_form_outcome(ruleset, k, g)
        if outcome != OUTCOME_UNKNOWN:
            method = "closed-form"

    if outcome == OUTCOME_UNKNOWN and args.method in ("auto", "involution") and uncolored:
        if isinstance(ruleset, (ProperColoring, DistanceColoring)):
            # above the cap the pairing answers unknown, so G^d is not built
            paired = translate_for_solving(ruleset, g)[1] if g.n <= EXHAUSTIVE_CAP else g
            outcome = outcome_by_involution(paired, k)
            if outcome != OUTCOME_UNKNOWN:
                method = "involution"

    record_move = None
    if outcome == OUTCOME_UNKNOWN and args.method in ("auto", "search"):
        value = games.grundy(pos)
        outcome = OUTCOME_N if value else OUTCOME_P
        method = "search"
        if value:
            mv = games.best_move(pos)
            record_move = {"vertex": mv.vertex, "color": mv.color}

    record["outcome"] = outcome
    if value is not None:
        record["grundy"] = int(value)
    record["method"] = method if outcome != OUTCOME_UNKNOWN else args.method
    if record_move is not None:
        record["winning_move"] = record_move
    _emit(record, args.format, out)
    return EXIT_OK


# ---- grundy-seq and p-positions -------------------------------------------

def _table_slice(table: op.GrundyTable, kmax: int) -> op.GrundyTable:
    from . import oriented_paths as op

    if table.K == kmax:
        return table
    return op.GrundyTable(K=kmax, gA=table.gA[: kmax + 1], gC=table.gC[: kmax + 1],
                          gD=table.gD[: kmax + 1])


def _summary(view: op.GrundyTable) -> dict:
    from . import oriented_paths as op

    report = op.classify_rare_common(view)
    return {
        "d_p_positions": len(op.enumerate_p_positions(view, op.CLASS_D)),
        "max_value": report.max_value,
        "largest_rare_index": report.max_rare_index,
    }


def cmd_grundy_seq(args, out: TextIO) -> int:
    from . import oriented_paths as op

    try:
        if args.checkpoint:
            for table in op.grow_table(args.kmax, args.checkpoint,
                                       args.checkpoint_every):
                pass  # each chunk is saved before the next one starts
        else:
            table = op.compute_tables(args.kmax)
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.checkpoint and os.path.exists(args.checkpoint):
            print(f"checkpoint retained: {args.checkpoint}", file=sys.stderr)
        return EXIT_BUDGET

    view = _table_slice(table, args.kmax)
    with _destination(args.out, out) as dest:
        summary = _summary(view)
        if args.format == "json":
            for k in range(1, args.kmax + 1):
                dest.write(json.dumps(
                    {"k": k, "gA": table.gA[k], "gC": table.gC[k], "gD": table.gD[k]},
                    sort_keys=True) + "\n")
            dest.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
        else:
            op.export_csv(view, dest)
            dest.write("# summary "
                       + " ".join(f"{key}={val}" for key, val in summary.items())
                       + "\n")
    return EXIT_OK


def cmd_p_positions(args, out: TextIO) -> int:
    from . import oriented_paths as op

    table = op.compute_tables(args.kmax)
    lengths = op.enumerate_p_positions(table, args.klass)
    record = {
        "class": args.klass,
        "kmax": args.kmax,
        "count": len(lengths),
        "lengths": lengths,
    }
    _emit(record, args.format, out)
    return EXIT_OK


# ---- sequential ------------------------------------------------------------

def _parse_order(text: str, n: int) -> tuple[int, ...]:
    try:
        order = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"bad --order {text!r}: expected vertex ids") from exc
    try:
        check_order(n, order)
    except ValueError as exc:
        raise ValueError("--order must be a permutation of all vertices") from exc
    return order


def cmd_sequential(args, out: TextIO) -> int:
    from . import sequential as seq

    g, source, doc = _load_graph(args)
    if doc is not None and doc.coloring is not None:
        raise ValueError("sequential decides the uncolored game; the file paints a vertex")
    if doc is not None and doc.k not in (None, 2):
        raise ValueError(f"sequential is a two-color game; the file declares k={doc.k}")
    if args.check and g.n > seq.ORACLE_CAP:
        # the oracle's own error, raised before the O(n) work it would follow
        raise ValueError(f"brute force oracle is capped at {seq.ORACLE_CAP} vertices")
    file_order = doc.order if doc is not None else None
    if args.order is None:
        if file_order is None:
            raise ValueError("an order is required (--order or an order line in the file)")
        order = file_order
    elif file_order is not None:
        raise ValueError("the file already carries an order; drop --order")
    elif args.order == "random":
        if args.seed is None:
            raise ValueError("--order random requires --seed")
        # 8 B per vertex instead of a list of int objects; shuffle swaps in
        # place, so the permutation is the one a list would get
        order = array("q", range(g.n))
        random.Random(args.seed).shuffle(order)
    else:
        order = _parse_order(args.order, g.n)

    outcome = seq.decide_outcome(g, order)
    record = {
        "graph": source,
        "n": g.n,
        "order": order,
        "outcome": outcome,
        "winner": "first" if outcome == OUTCOME_N else "second",
    }
    code = EXIT_OK
    if args.check:
        oracle = seq.brute_force_outcome(g, order)
        record["check"] = "ok" if oracle == outcome else f"mismatch (oracle {oracle})"
        if oracle != outcome:
            code = EXIT_VERIFY
    _emit(record, args.format, out)
    return code


# ---- reduce ----------------------------------------------------------------

# reduce target -> the function of reductions that builds it
_REDUCERS = {
    "proper": "reduce_to_proper_k",
    "oriented": "reduce_to_oriented_k",
    "oriented-br": "reduce_to_oriented_br",
    "distance": "reduce_to_distance_2k",
}


def _reduce(to: str, g: Graph, k: int):
    """The reduced instance of g for target to; a target whose ruleset fixes
    k takes none."""
    from . import reductions

    make = getattr(reductions, _REDUCERS[to])
    return make(g) if RULESET_TOKENS[to].fixed_k else make(g, k)


def cmd_reduce(args, out: TextIO) -> int:
    from . import games, reductions

    g, source, _doc = _load_graph(args)
    k = args.k
    fixed = RULESET_TOKENS[args.to].fixed_k
    if fixed is not None:
        if k not in (None, fixed):
            raise ValueError(f"{args.to} is a two-color game; drop --k or pass {fixed}")
        k = fixed
    elif k is None:
        raise ValueError("--k is required for this target")
    inst = _reduce(args.to, g, k)
    pos = inst.position
    text = format_graph_text(GraphDocument(graph=pos.graph, k=pos.k, coloring=pos.coloring))
    mapping = sorted(inst.vertex_map.items())
    verdict = None
    if args.verify:
        verdict = reductions.verify_equivalence(
            games.Position.start(g, 1, ProperColoring()), inst)

    with _destination(args.out, out) as dest:
        if args.format == "json":
            record = {
                "source": source,
                "target": args.to,
                "k": k,
                "original_vertices": g.n,
                "reduced_vertices": pos.graph.n,
                "painted": pos.painted_count,
                "vertex_map": {str(v): t for v, t in mapping},
                "graph_text": text,
            }
            if verdict is not None:
                record["equivalent"] = verdict.equivalent
                if not verdict.equivalent:
                    record["reason"] = verdict.reason
            _emit(record, "json", dest)
        else:
            dest.write(text)
            dest.write("".join(f"# map {v} {t}\n" for v, t in mapping))
    if verdict is None:
        return EXIT_OK
    if args.format != "json":
        print("verified equivalent" if verdict.equivalent else
              f"NOT equivalent: {verdict.reason}", file=sys.stderr)
    return EXIT_OK if verdict.equivalent else EXIT_VERIFY


# ---- verify ----------------------------------------------------------------

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
            g = build_family("path", m)
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
        g = build_family("path", n)
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

    n = args.n or 4
    # every reduce target, at k=2 and 3 unless its ruleset fixes k
    variants = []
    for to in _REDUCERS:
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
                games.Position.start(g, 1, ProperColoring()), _reduce(to, g, k))
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
            want, value = closed_form_outcome(ruleset, k, g)
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

    add("proper k=2 paths", [(build_family("path", n), 2, ProperColoring())
                             for n in range(2, 12)])
    add("proper k=2 cycles", [(build_family("cycle", n), 2, ProperColoring())
                              for n in range(3, 11)])
    add("weak cycles", [(build_family("cycle", n), 2, WeakColoring())
                        for n in range(3, 10)])
    add("blue-red directed cycles", [(build_family("directed_cycle", n), 2,
                                      OrientedBlueRed()) for n in range(4, 10)])
    add("blue-red directed paths", [(build_family("directed_path", n), 2,
                                     OrientedBlueRed()) for n in range(1, 13)])
    add("distance-2 paths", [(build_family("path", n), 2, DistanceColoring(2))
                             for n in range(3, 10)])

    pairings = [("grid:3,3", OUTCOME_N), ("grid:2,3", OUTCOME_P),
                ("hypercube:3", OUTCOME_P), ("complete_binary_tree:2", OUTCOME_N)]
    bad = []
    for spec, want in pairings:
        g = parse_family_spec(spec)
        got = outcome_by_involution(g, 2)
        if got != want or games.outcome(games.Position.start(g, 2, ProperColoring())) != want:
            bad.append((spec, got))
    checks.append({
        "check": "involution pairings",
        "ok": not bad,
        "detail": f"mismatch {bad}" if bad else f"{len(pairings)} instances",
    })
    return checks


_SUITES = {
    "recursion": _suite_recursion,
    "sequential": _suite_sequential,
    "reductions": _suite_reductions,
    "closed-forms": _suite_closed_forms,
}


def cmd_verify(args, out: TextIO) -> int:
    checks = _SUITES[args.suite](args)
    passed = sum(1 for c in checks if c["ok"])
    if args.format == "json":
        for c in checks:
            _emit(c, "json", out)
        _emit({"suite": args.suite, "passed": passed, "total": len(checks)},
              "json", out)
    else:
        for c in checks:
            tag = "ok  " if c["ok"] else "FAIL"
            out.write(f"{tag} {c['check']} ({c['detail']})\n")
        out.write(f"{args.suite}: {passed}/{len(checks)} checks passed\n")
    return EXIT_OK if passed == len(checks) else EXIT_VERIFY


# ---- tables ----------------------------------------------------------------

def cmd_tables(args, out: TextIO) -> int:
    from . import oriented_paths as op

    if args.table_cmd == "compute":
        table = op.compute_tables(args.kmax)
        op.save_table(table, args.out)
        _emit({"kmax": table.K, "file": args.out}, args.format, out)
        return EXIT_OK
    if args.table_cmd == "extend":
        table = op.load_table(args.table)
        table = op.extend_table(table, args.kmax)
        dest = args.out or args.table
        op.save_table(table, dest)
        _emit({"kmax": table.K, "file": dest}, args.format, out)
        return EXIT_OK
    if args.table_cmd == "info":
        table = op.load_table(args.table)
        record = {
            "kmax": table.K,
            "max_gA": max(table.gA),
            "max_gC": max(table.gC),
            "max_gD": max(table.gD),
            "d_p_positions": len(op.enumerate_p_positions(table, op.CLASS_D)),
        }
        _emit(record, args.format, out)
        return EXIT_OK
    table = op.load_table(args.table)  # export-csv
    if args.out:
        op.export_csv(table, args.out)
        _emit({"kmax": table.K, "file": args.out}, args.format, out)
    else:
        op.export_csv(table, out)
    return EXIT_OK


# ---- argument parsing -------------------------------------------------------

def _positive(text: str) -> int:
    """argparse type for size flags: an integer >= 1."""
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output as key/value text or JSON lines")


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="SPEC",
                   help="family shorthand: path:n cycle:n grid:a,b hypercube:d "
                        "dpath:n dcycle:n complete_binary_tree:d")
    p.add_argument("--file", metavar="PATH", help="graph text file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state in
    it, and argparse looks up stdout and stderr when it writes."""
    parser = argparse.ArgumentParser(
        prog="coloring-games",
        description="Impartial graph coloring games: solving, path-class "
                    "Grundy tables, Kayles reductions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="outcome and Grundy value of one position")
    _add_graph_inputs(p)
    p.add_argument("--ruleset", choices=sorted(RULESET_TOKENS), required=True)
    p.add_argument("--k", type=int, help="number of colors")
    p.add_argument("--d", type=int, help="distance bound (distance ruleset only)")
    p.add_argument("--method", choices=("auto", "closed-form", "involution", "search"),
                   default="auto", help="force one solving method")
    _add_format(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("grundy-seq", help="stream class tables as CSV")
    p.add_argument("--kmax", type=int, required=True)
    # oriented_paths' MODE_NAIVE and MODE_ACCELERATED, spelled out so that
    # building the parser loads no table code
    p.add_argument("--mode", choices=("naive", "accelerated"), default="naive",
                   help="accepted for compatibility; both values run the one table fill")
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="binary table file to resume from and persist to")
    p.add_argument("--checkpoint-every", type=_positive, default=4096, metavar="N",
                   help="chunk size between checkpoint saves")
    _add_format(p)
    p.set_defaults(func=cmd_grundy_seq)

    p = sub.add_parser("p-positions", help="zero-value lengths in one class")
    p.add_argument("--kmax", type=int, default=8084)
    p.add_argument("--class", dest="klass", choices=("A", "B", "C", "D"),  # PATH_CLASSES
                   default="D")
    _add_format(p)
    p.set_defaults(func=cmd_p_positions)

    p = sub.add_parser("sequential", help="decide the fixed-order path game")
    _add_graph_inputs(p)
    p.add_argument("--order", metavar="ORDER",
                   help="visit order: vertex ids, or 'random' with --seed")
    p.add_argument("--seed", type=int)
    p.add_argument("--check", action="store_true",
                   help="cross-check against the brute-force oracle")
    _add_format(p)
    p.set_defaults(func=cmd_sequential)

    p = sub.add_parser("reduce", help="embed Node-Kayles into a richer ruleset")
    _add_graph_inputs(p)
    p.add_argument("--from", dest="source_game", choices=("kayles",), required=True)
    p.add_argument("--to", choices=sorted(_REDUCERS), required=True)
    p.add_argument("--k", type=int, help="colors in the target game")
    p.add_argument("--out", metavar="PATH", help="write graph text here")
    p.add_argument("--verify", action="store_true",
                   help="replay both games in lockstep (small graphs only)")
    _add_format(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="run an oracle-equivalence suite")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--n", type=_positive, help="size bound where the suite takes one")
    p.add_argument("--kmax", type=_positive, help="length bound for the recursion suite")
    p.add_argument("--exhaustive", action="store_true",
                   help="all permutations instead of samples (sequential suite)")
    p.add_argument("--samples", type=_positive, default=2000)
    p.add_argument("--seed", type=int)
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tables", help="binary table files")
    tsub = p.add_subparsers(dest="table_cmd", required=True)
    t = tsub.add_parser("compute")
    t.add_argument("--kmax", type=int, required=True)
    t.add_argument("--out", required=True)
    _add_format(t)
    t.set_defaults(func=cmd_tables)
    t = tsub.add_parser("extend")
    t.add_argument("--table", required=True)
    t.add_argument("--kmax", type=int, required=True)
    t.add_argument("--out", help="write here instead of overwriting --table")
    _add_format(t)
    t.set_defaults(func=cmd_tables)
    t = tsub.add_parser("info")
    t.add_argument("--table", required=True)
    _add_format(t)
    t.set_defaults(func=cmd_tables)
    t = tsub.add_parser("export-csv")
    t.add_argument("--table", required=True)
    t.add_argument("--out", help="CSV path; stdout when omitted")
    _add_format(t)
    t.set_defaults(func=cmd_tables)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); quiesce stdout so the
        # interpreter does not complain at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: search recursion too deep for the interpreter's stack; "
              "the position is too large for exhaustive search", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
