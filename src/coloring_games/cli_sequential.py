"""The sequential command: the linear-time decision for the fixed-order path game."""

from __future__ import annotations

import random
from array import array
from typing import TextIO

from . import cli, sequential as seq
from .cli_output import emit
from .graphs import check_order
from .rulesets import OUTCOME_N


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
    g, source, doc = cli._load_graph(args)
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
    code = cli.EXIT_OK
    if args.check:
        oracle = seq.brute_force_outcome(g, order)
        record["check"] = "ok" if oracle == outcome else f"mismatch (oracle {oracle})"
        if oracle != outcome:
            code = cli.EXIT_VERIFY
    emit(record, args.format, out)
    return code
