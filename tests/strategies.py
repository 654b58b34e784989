"""Shared hypothesis strategies for the suite."""

from __future__ import annotations

from hypothesis import strategies as st

from coloring_games.graphs import Graph, make_graph
from coloring_games.rulesets import RULESET_TOKENS, Ruleset, SequentialColoring


def ruleset_for(token: str, order: tuple[int, ...] | None = None) -> Ruleset:
    """The ruleset named by token; sequential takes the visit order that
    colored_graphs drew."""
    cls = RULESET_TOKENS[token]
    return SequentialColoring(order) if cls is SequentialColoring else cls()


@st.composite
def graphs(draw, max_n: int = 6, directed: bool = False) -> Graph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u < v]
    if directed:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    if directed:
        # drop 2-cycles: arc games assume an orientation of a simple graph
        chosen = [(u, v) for u, v in chosen if (v, u) not in set(chosen) or u < v]
    return make_graph(n, chosen, directed=directed)


@st.composite
def colored_graphs(draw, token: str, max_n: int = 6, k_max: int = 3, k_min: int = 1):
    """A graph plus a legal partial coloring reached by playing random moves;
    k is drawn from k_min..k_max unless the ruleset fixes it."""
    from reference import ref_moves

    directed = token in ("oriented", "oriented-br")
    g = draw(graphs(max_n=max_n, directed=directed))
    k = 2 if token in ("oriented-br", "weak") else draw(st.integers(k_min, k_max))
    order = None
    if token == "sequential":
        order = tuple(draw(st.permutations(range(g.n))))
    coloring: list[int | None] = [None] * g.n
    steps = draw(st.integers(min_value=0, max_value=g.n))
    for _ in range(steps):
        moves = ref_moves(token, g, k, coloring, order)
        if not moves:
            break
        v, c = draw(st.sampled_from(moves))
        coloring[v] = c
    return g, k, coloring, order
