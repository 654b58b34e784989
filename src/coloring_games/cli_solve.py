"""The solve command: outcome, Grundy value and a winning move of one position.

Closed forms and involution pairings are tried before exhaustive search.
"""

from __future__ import annotations

from typing import TextIO

from . import cli, games
from .cli_output import emit
from .graphs import EXHAUSTIVE_CAP, GraphDocument
from .rulesets import (
    OUTCOME_N,
    OUTCOME_P,
    OUTCOME_UNKNOWN,
    RULESET_TOKENS,
    DistanceColoring,
    ProperColoring,
    SequentialColoring,
    translate_for_solving,
)


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


def cmd_solve(args, out: TextIO) -> int:
    g, source, doc = cli._load_graph(args)
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
        outcome, value = cli.closed_form_outcome(ruleset, k, g)
        if outcome != OUTCOME_UNKNOWN:
            method = "closed-form"

    if outcome == OUTCOME_UNKNOWN and args.method in ("auto", "involution") and uncolored:
        if isinstance(ruleset, (ProperColoring, DistanceColoring)):
            # above the cap the pairing answers unknown, so G^d is not built
            paired = translate_for_solving(ruleset, g)[1] if g.n <= EXHAUSTIVE_CAP else g
            outcome = cli.outcome_by_involution(paired, k)
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
    emit(record, args.format, out)
    return cli.EXIT_OK
