"""The reduce command: embed a Node-Kayles instance into a richer ruleset."""

from __future__ import annotations

import sys
from typing import TextIO

from . import cli, games, reductions
from .cli_output import destination, emit
from .graphs import Graph, GraphDocument, format_graph_text
from .rulesets import RULESET_TOKENS, ProperColoring

# reduce target -> the function of reductions that builds it
REDUCERS = {
    "proper": "reduce_to_proper_k",
    "oriented": "reduce_to_oriented_k",
    "oriented-br": "reduce_to_oriented_br",
    "distance": "reduce_to_distance_2k",
}


def reduced(to: str, g: Graph, k: int) -> reductions.ReducedInstance:
    """The reduced instance of g for target to; a target whose ruleset fixes
    k takes none."""
    make = getattr(reductions, REDUCERS[to])
    return make(g) if RULESET_TOKENS[to].fixed_k else make(g, k)


def cmd_reduce(args, out: TextIO) -> int:
    g, source, _doc = cli._load_graph(args)
    k = args.k
    fixed = RULESET_TOKENS[args.to].fixed_k
    if fixed is not None:
        if k not in (None, fixed):
            raise ValueError(f"{args.to} is a two-color game; drop --k or pass {fixed}")
        k = fixed
    elif k is None:
        raise ValueError("--k is required for this target")
    inst = reduced(args.to, g, k)
    pos = inst.position
    text = format_graph_text(GraphDocument(graph=pos.graph, k=pos.k, coloring=pos.coloring))
    mapping = sorted(inst.vertex_map.items())
    verdict = None
    if args.verify:
        verdict = reductions.verify_equivalence(
            games.Position.start(g, 1, ProperColoring()), inst)

    with destination(args.out, out) as dest:
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
            emit(record, "json", dest)
        else:
            dest.write(text)
            dest.write("".join(f"# map {v} {t}\n" for v, t in mapping))
    if verdict is None:
        return cli.EXIT_OK
    if args.format != "json":
        print("verified equivalent" if verdict.equivalent else
              f"NOT equivalent: {verdict.reason}", file=sys.stderr)
    return cli.EXIT_OK if verdict.equivalent else cli.EXIT_VERIFY
