"""Gadget reductions from Node-Kayles into the richer coloring games.

Each constructor embeds an instance of the one-color game (choose pairwise
non-adjacent vertices) into a target ruleset so that exactly the original
vertices stay playable, each with one effective color, and blocking relations
are preserved. The verifier replays both games in lockstep and checks the
claimed move correspondence instead of assuming it.

Gadget vertex ids: reduce_to_proper_k and reduce_to_oriented_k place vertex
v's block at [v*k, v*k + k); the distance reduction appends per-edge gadgets
after the original vertex range.
"""

from __future__ import annotations

from typing import NamedTuple

from . import games
from .games import Position
from .graphs import Frozen, Graph, make_graph
from .rulesets import (
    DistanceColoring,
    OrientedBlueRed,
    OrientedColoring,
    ProperColoring,
    Ruleset,
)

VERIFY_CAP = 6


class ReducedInstance(Frozen):
    """A target-ruleset position plus the original-vertex embedding."""

    def __init__(self, position: Position, vertex_map: dict[int, int]) -> None:
        targets = list(vertex_map.values())
        if len(set(targets)) != len(targets):
            raise ValueError("vertex_map must be injective")
        for t in targets:
            if position.coloring[t] is not None:
                raise ValueError("mapped vertices must start uncolored")
        self.__dict__.update(position=position, vertex_map=vertex_map)


class EquivalenceReport(NamedTuple):
    equivalent: bool
    reason: str | None
    pairs_checked: int
    grundy_original: int
    grundy_reduced: int


def _require_undirected(g: Graph) -> None:
    if g.directed:
        raise ValueError("reductions start from undirected Kayles instances")


def _pinned_leaves(g: Graph, k: int, ruleset: Ruleset, directed: bool) -> ReducedInstance:
    """Vertex v becomes hub v*k, joined to its neighbours' hubs lower id to
    higher id (g.pairs() are (min, max)), plus leaves v*k+i painted i for
    i = 1..k-1, each joined from the hub."""
    edges = [(u * k, w * k) for u, w in g.pairs()]
    coloring: list[int | None] = [None] * (g.n * k)
    for v in range(g.n):
        for i in range(1, k):
            edges.append((v * k, v * k + i))
            coloring[v * k + i] = i
    pos = Position.start(
        make_graph(g.n * k, edges, directed=directed), k, ruleset, coloring=coloring
    )
    return ReducedInstance(pos, {v: v * k for v in range(g.n)})


def reduce_to_proper_k(g: Graph, k: int) -> ReducedInstance:
    """Attach k-1 painted leaves to each vertex, pinning its color.

    With every color but one burned per vertex, a move is exactly a Kayles
    claim. k=1 is the identity: the one-color game is Node-Kayles already.
    """
    _require_undirected(g)
    if k < 1:
        raise ValueError("need at least one color")
    if k == 1:
        pos = Position.start(g, 1, ProperColoring())
        return ReducedInstance(pos, {v: v for v in range(g.n)})
    return _pinned_leaves(g, k, ProperColoring(), directed=False)


def reduce_to_oriented_k(g: Graph, k: int) -> ReducedInstance:
    """The proper-k gadget with every edge oriented.

    Gadget arcs leave the hub, original edges run lower id to higher id.
    """
    _require_undirected(g)
    if k < 2:
        raise ValueError("the oriented reduction needs k >= 2")
    return _pinned_leaves(g, k, OrientedColoring(), directed=True)


def reduce_to_oriented_br(g: Graph) -> ReducedInstance:
    """Replace each edge by arcs both ways; either color then claims a vertex
    outright, since a painted endpoint leaves one of the two arcs impossible
    to complete."""
    _require_undirected(g)
    arcs = [a for u, w in g.pairs() for a in ((u, w), (w, u))]
    pos = Position.start(make_graph(g.n, arcs, directed=True), 2, OrientedBlueRed())
    return ReducedInstance(pos, {v: v for v in range(g.n)})


def reduce_to_distance_2k(g: Graph, k: int) -> ReducedInstance:
    """Per-edge gadget coupling the endpoints at distance two.

    Edge (u,w) gains a hub adjacent to both plus a painted pendant path, so
    the hub is unpaintable, the endpoints share only color 1, and u,w block
    each other through the hub. Extra colors are burned by extra painted
    hub neighbors. Isolated vertices need no gadget.
    """
    _require_undirected(g)
    if k < 2:
        raise ValueError("the distance reduction needs k >= 2")
    per_edge = 3 + (k - 2)
    edges: list[tuple[int, int]] = []
    # the rows hold each edge twice
    n = g.n + per_edge * (len(g.targets) // 2)
    coloring: list[int | None] = [None] * n
    for idx, (u, w) in enumerate(g.pairs()):
        hub = g.n + idx * per_edge
        one, two = hub + 1, hub + 2
        edges += [(u, hub), (w, hub), (hub, two), (two, one)]
        coloring[one] = 1
        coloring[two] = 2
        for c in range(3, k + 1):
            extra = hub + c
            edges.append((hub, extra))
            coloring[extra] = c
    pos = Position.start(make_graph(n, edges), k, DistanceColoring(d=2), coloring=coloring)
    return ReducedInstance(pos, {v: v for v in range(g.n)})


def verify_equivalence(original: Position, reduced: ReducedInstance) -> EquivalenceReport:
    """Replay both games in lockstep over every reachable matched pair.

    Checks, at each pair: the reduced position's playable vertices map
    exactly onto the original's, no unmapped vertex is ever playable, and
    every color choice on a mapped vertex reaches the same Grundy value as
    the corresponding original move. Grundy equality of the roots follows,
    but is also asserted directly.
    """
    if original.graph.n > VERIFY_CAP:
        raise ValueError(f"exhaustive verification is capped at {VERIFY_CAP} vertices")
    root_colors: dict[int, int] = {}
    for mv in games.legal_moves(original):
        root_colors[mv.vertex] = root_colors.get(mv.vertex, 0) + 1
    if any(c > 1 for c in root_colors.values()):
        raise ValueError("original position must be a one-color game")
    inverse = {t: v for v, t in reduced.vertex_map.items()}
    g0 = games.grundy(original)
    g1 = games.grundy(reduced.position)
    pairs = 0

    def fail(reason: str) -> EquivalenceReport:
        return EquivalenceReport(False, reason, pairs, g0, g1)

    if g0 != g1:
        return fail(f"root grundy mismatch: {g0} vs {g1}")

    seen: set[tuple[tuple, tuple]] = set()
    stack = [(original, reduced.position)]
    while stack:
        orig, red = stack.pop()
        key = (orig.coloring, red.coloring)
        if key in seen:
            continue
        seen.add(key)
        pairs += 1

        orig_moves: dict[int, list[games.Move]] = {}
        for mv in games.legal_moves(orig):
            orig_moves.setdefault(mv.vertex, []).append(mv)
        if any(len(ms) > 1 for ms in orig_moves.values()):
            raise ValueError("original position must be a one-color game")
        red_moves: dict[int, list[games.Move]] = {}
        for mv in games.legal_moves(red):
            if mv.vertex not in inverse:
                return fail(f"gadget vertex {mv.vertex} is playable")
            red_moves.setdefault(inverse[mv.vertex], []).append(mv)
        if set(orig_moves) != set(red_moves):
            extra = set(red_moves) - set(orig_moves)
            missing = set(orig_moves) - set(red_moves)
            return fail(f"move sets differ (extra {sorted(extra)}, missing {sorted(missing)})")

        # the moves came from legal_moves, so _play skips both the move-list
        # check and the whole-coloring check
        for v, (orig_mv,) in orig_moves.items():
            orig_next = games._play(orig, orig_mv)
            want = games.grundy(orig_next)
            red_next = [games._play(red, red_mv) for red_mv in red_moves[v]]
            for red_mv, child in zip(red_moves[v], red_next):
                got = games.grundy(child)
                if got != want:
                    return fail(
                        f"move on vertex {v} color {red_mv.color} reaches grundy "
                        f"{got}, original reaches {want}"
                    )
            # all color choices are interchangeable; follow the first
            if (orig_next.coloring, red_next[0].coloring) not in seen:
                stack.append((orig_next, red_next[0]))

    return EquivalenceReport(True, None, pairs, g0, g1)
