"""The six coloring rulesets: legality predicates and known outcome shortcuts.

A ruleset decides which colorings are legal. Players alternately paint one
uncolored vertex so that the coloring stays legal; the first player without a
move loses. Colors are 1..k; in Blue/Red games Blue=1 and Red=2.

Each ruleset states its rule once, as its move_ok method: may uncolored
vertex v take color c, given a legal coloring in which 0 marks an uncolored
vertex. Only the constraints touching v are checked. move_rule binds that
method to one coloring, once, as the (g, colors, v, c) callable every caller
uses; the oriented rule's set of used color pairs is built there. A game's
parameter is a field of its ruleset: the distance d, and the sequential
game's visit order, a tuple that no other ruleset has. is_legal_coloring
checks a whole partial coloring with the same rule: every painted vertex
must be able to take its color with the rest of the coloring as it stands,
and under the sequential ruleset the painted vertices must be a prefix of
the visit order.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, ClassVar, Sequence

from .base import Frozen
from .graphs import (
    EXHAUSTIVE_CAP,
    FIXED_POINT_FREE,
    SINGLE_FIXED_POINT,
    Graph,
    InvolutionSearchBudget,
    check_order,
    find_involution,
    power_graph,
    underlying_graph,
    within,
)

BLUE = 1
RED = 2

# decomposition levels the solver may use
DECOMP_LIVE = "live"     # split on components of the uncolored subgraph
DECOMP_GRAPH = "graph"   # split on components of the whole graph only
DECOMP_NONE = None


class RulesetMismatchError(ValueError):
    """Graph directedness, k, or a visit order incompatible with the ruleset."""


class Ruleset(Frozen):
    """The traits the engine reads from a ruleset, at the values most of the
    six share; each ruleset overrides only those in which it differs.
    needs_directed is True or False for the graph kind the ruleset takes,
    None for either. A ruleset's fields are its game's parameters."""

    token: ClassVar[str]
    needs_directed: ClassVar[bool | None] = False
    fixed_k: ClassVar[int | None] = None
    color_symmetric: ClassVar[bool] = True
    decomposition: ClassVar[str | None] = DECOMP_LIVE


class ProperColoring(Ruleset):
    """Adjacent vertices never share a color. k=1 is Node-Kayles."""

    token = "proper"
    needs_directed = None  # either is fine, direction ignored

    def move_ok(self, g: Graph, colors: list[int], v: int, c: int) -> bool:
        return c not in map(colors.__getitem__, g.adj[v])


class OrientedColoring(Ruleset):
    """Digraph coloring: arc ends differ, and no color pair (a, b) on an arc
    may appear reversed as (b, a) on any other arc."""

    token = "oriented"
    needs_directed = True
    # the reversed-pair rule couples arcs across the whole graph, even across
    # disconnected components, so no decomposition is sound
    decomposition = DECOMP_NONE

    def used_pairs(self, g: Graph, colors: list[int]) -> set[tuple[int, int]]:
        """Color pairs on the arcs whose ends are both painted."""
        return {(colors[x], colors[y]) for x, y in g.pairs() if colors[x] and colors[y]}

    def move_ok(
        self, g: Graph, colors: list[int], v: int, c: int, used: set[tuple[int, int]]
    ) -> bool:
        """used is the coloring's used_pairs, bound once per coloring by
        move_rule; it may hold v's own arcs with v painted c. Those arcs
        clash only with each other, when an in-neighbour and an out-neighbour
        share a color t and the move makes both (t, c) and (c, t), so that
        clash is rejected here rather than looked up."""
        heads = set()
        for w in g.out_adj[v]:
            h = colors[w]
            if h:
                if h == c or (h, c) in used:
                    return False
                heads.add(h)
        for u in g.in_adj[v]:
            t = colors[u]
            if t:
                if t == c or t in heads or (c, t) in used:
                    return False
        return True


class OrientedBlueRed(Ruleset):
    """Two colors on a digraph: a fully painted arc (u, v) must have u Blue
    and v Red. Painting v Blue kills its in-neighbors, Red its out-neighbors."""

    token = "oriented-br"
    needs_directed = True
    fixed_k = 2
    color_symmetric = False

    def move_ok(self, g: Graph, colors: list[int], v: int, c: int) -> bool:
        if c == BLUE:
            return all(colors[u] == 0 for u in g.in_adj[v]) and all(
                colors[w] in (0, RED) for w in g.out_adj[v]
            )
        return all(colors[w] == 0 for w in g.out_adj[v]) and all(
            colors[u] in (0, BLUE) for u in g.in_adj[v]
        )


class WeakColoring(Ruleset):
    """Two colors; adjacent same-colored vertices are allowed only when each
    endpoint also has a painted neighbor of the opposite color (judged on the
    current partial coloring)."""

    token = "weak"
    fixed_k = 2
    # painting inside one live component can enable moves in another through a
    # shared painted neighbor, so only whole-graph components are independent
    decomposition = DECOMP_GRAPH

    def move_ok(self, g: Graph, colors: list[int], v: int, c: int) -> bool:
        same = [u for u in g.adj[v] if colors[u] == c]
        if not same:
            return True
        opp = 3 - c
        if not any(colors[w] == opp for w in g.adj[v]):
            return False
        for u in same:
            if not any(colors[w] == opp for w in g.adj[u]):
                return False
        return True


class DistanceColoring(Ruleset):
    """Vertices within hop distance d must differ. The search plays it as
    proper on the d-th power graph, so its live parts are the power graph's."""

    token = "distance"

    def __init__(self, d: int = 2) -> None:
        if d < 1:
            raise ValueError("distance parameter d must be >= 1")
        self.__dict__["d"] = d

    def move_ok(self, g: Graph, colors: list[int], v: int, c: int) -> bool:
        return c not in map(colors.__getitem__, within(g, v, self.d))


class SequentialColoring(Ruleset):
    """Proper coloring where turn i must paint the i-th vertex of a fixed
    visit order; a player who cannot legally color that vertex loses. The
    order is part of the game, kept as a tuple."""

    token = "sequential"
    decomposition = DECOMP_NONE  # the shared turn order is global state

    def __init__(self, order: Sequence[int] | None = None) -> None:
        if order is None:
            raise ValueError("sequential needs a visit order")
        self.__dict__["order"] = tuple(order)

    # the visit order is checked by is_legal_coloring and the move generator
    move_ok = ProperColoring.move_ok


RULESET_TOKENS = {cls.token: cls for cls in Ruleset.__subclasses__()}


def check_compatible(ruleset: Ruleset, g: Graph, k: int) -> None:
    """Raise RulesetMismatchError on directedness/k mismatches, or when a
    sequential ruleset's visit order is not a permutation of g's vertices."""
    if k < 1:
        raise RulesetMismatchError("k must be >= 1")
    if ruleset.needs_directed is True and not g.directed:
        raise RulesetMismatchError(f"{ruleset.token} needs a directed graph")
    if ruleset.needs_directed is False and g.directed:
        raise RulesetMismatchError(f"{ruleset.token} needs an undirected graph")
    if ruleset.fixed_k is not None and k != ruleset.fixed_k:
        raise RulesetMismatchError(f"{ruleset.token} is played with k={ruleset.fixed_k}")
    if isinstance(ruleset, SequentialColoring):
        try:
            check_order(g.n, ruleset.order)
        except ValueError as exc:
            raise RulesetMismatchError(str(exc)) from None


@lru_cache(maxsize=256)
def _power(g: Graph, d: int) -> Graph:
    return power_graph(g, d)


def translate_for_solving(ruleset: Ruleset, g: Graph) -> tuple[Ruleset, Graph]:
    """The game as the search plays it: distance as proper on the power graph."""
    if isinstance(ruleset, DistanceColoring):
        return ProperColoring(), _power(g, ruleset.d)
    return ruleset, g


def move_rule(
    ruleset: Ruleset, g: Graph, colors: list[int]
) -> Callable[[Graph, list[int], int, int], bool]:
    """The ruleset's move_ok(g, colors, v, c) bound to this coloring.
    Oriented's gets the coloring's used pairs, built once here, so the
    callable answers for this coloring only; clearing the vertex asked about
    is the one change it allows."""
    if isinstance(ruleset, OrientedColoring):
        return partial(ruleset.move_ok, used=ruleset.used_pairs(g, colors))
    return ruleset.move_ok


# ---- whole-coloring legality ---------------------------------------------

def is_legal_coloring(
    ruleset: Ruleset,
    g: Graph,
    k: int,
    coloring: Sequence[int | None],
) -> bool:
    """True when every color is in 1..k, the painted vertices form a prefix
    of the visit order (sequential), and every painted vertex could take its
    color with the rest of the coloring as it stands."""
    check_compatible(ruleset, g, k)
    if len(coloring) != g.n:
        raise ValueError("coloring length must equal vertex count")
    for c in coloring:
        if c is not None and not 1 <= c <= k:
            return False
    if isinstance(ruleset, SequentialColoring):
        painted = sum(1 for c in coloring if c is not None)
        if any(coloring[v] is None for v in ruleset.order[:painted]):
            return False

    colors = [0 if c is None else c for c in coloring]
    move_ok = move_rule(ruleset, g, colors)
    for v, c in enumerate(coloring):
        if c is not None:
            colors[v] = 0
            ok = move_ok(g, colors, v, c)
            colors[v] = c
            if not ok:
                return False
    return True


# ---- outcome shortcuts -----------------------------------------------------

OUTCOME_N, OUTCOME_P = "N", "P"
OUTCOME_UNKNOWN = "unknown"


def outcome_by_involution(g: Graph, k: int) -> str:
    """Outcome of the uncolored proper-k game from involution pairing.

    A single-fixed-point involution whose pairs are never adjacent gives the
    first player a mirror strategy (N, any k). A fixed-point-free involution
    gives the second player an opposite-color mirror (P, k=2 only). Returns
    "unknown" when neither applies or the exhaustive search runs out of
    budget. Above graphs.EXHAUSTIVE_CAP vertices the search can only settle
    parity or give up, never find a pairing, so "unknown" comes first there,
    before anything is built. The proper rule ignores arc directions, so the
    search runs on the underlying undirected graph.
    """
    if g.n > EXHAUSTIVE_CAP:
        return OUTCOME_UNKNOWN
    g = underlying_graph(g)
    try:
        if find_involution(g, SINGLE_FIXED_POINT) is not None:
            return OUTCOME_N
    except InvolutionSearchBudget:
        pass
    if k == 2:
        try:
            if find_involution(g, FIXED_POINT_FREE) is not None:
                return OUTCOME_P
        except InvolutionSearchBudget:
            pass
    return OUTCOME_UNKNOWN


# odd-path outcomes for the 2-distance 2-coloring game; even lengths are all
# P. 19-23 lie beyond the source's table; each has two independent searches
DISTANCE2_ODD_PATHS = {3: OUTCOME_P, 5: OUTCOME_N, 7: OUTCOME_N, 9: OUTCOME_P,
                       11: OUTCOME_P, 13: OUTCOME_N, 15: OUTCOME_P, 17: OUTCOME_P,
                       19: OUTCOME_P, 21: OUTCOME_N, 23: OUTCOME_N}

# the undirected family a directed family's arcs lie on
UNDIRECTED_FAMILY = {"directed_path": "path", "directed_cycle": "cycle"}


def closed_form_outcome(ruleset: Ruleset, k: int, g: Graph) -> tuple[str, int | None]:
    """Known outcome (and Grundy value when known) for uncolored starts: the
    family graphs below, and sequential games with k=2 on any path, decided
    from the visit order in O(n).

    Returns (outcome, grundy) with outcome in {"N", "P", "unknown"}; grundy is
    None when only the outcome class is known.
    """
    if isinstance(ruleset, SequentialColoring):
        # the linear decision is a two-color result; it says nothing for other k
        if k != 2:
            return OUTCOME_UNKNOWN, None
        from . import sequential

        try:
            return sequential.decide_outcome(g, ruleset.order), None
        except ValueError:  # not a path
            return OUTCOME_UNKNOWN, None
    if g.family is None:
        return OUTCOME_UNKNOWN, None
    name, params = g.family

    if isinstance(ruleset, ProperColoring):
        name = UNDIRECTED_FAMILY.get(name, name)  # the rule ignores arc directions
        if name == "path":
            (n,) = params
            if n % 2 == 1:
                # mirror through the middle; the exact value 1 needs a spare
                # color for the middle vertex, so k=1 only gets the outcome
                return OUTCOME_N, (1 if k >= 2 else None)
            if k == 2:
                return OUTCOME_P, 0
        elif name == "cycle" and k == 2:
            return OUTCOME_P, 0
        elif name == "grid":
            if all(d % 2 == 1 for d in params):
                return OUTCOME_N, None  # central point reflection
            if k == 2:
                return OUTCOME_P, 0  # reflect the even axes
        elif name == "hypercube" and k == 2:
            return OUTCOME_P, 0  # antipodal map
        elif name == "complete_binary_tree":
            return OUTCOME_N, None  # swap the root's subtrees
    elif isinstance(ruleset, WeakColoring):
        if name == "path":
            (n,) = params
            return (OUTCOME_N, None) if n % 2 == 1 else (OUTCOME_P, 0)
        if name == "cycle":
            (n,) = params
            # every maximal play colors the whole cycle, so the Grundy value
            # is just the parity of the number of uncolored vertices
            return (OUTCOME_N, 1) if n % 2 == 1 else (OUTCOME_P, 0)
    elif isinstance(ruleset, DistanceColoring) and ruleset.d == 2 and k == 2:
        if name == "path":
            (n,) = params
            if n % 2 == 0:
                return OUTCOME_P, 0
            if n in DISTANCE2_ODD_PATHS:
                out = DISTANCE2_ODD_PATHS[n]
                return out, (0 if out == OUTCOME_P else None)
        elif name == "cycle":
            (n,) = params
            if n % 2 == 0:
                return OUTCOME_P, 0
    elif isinstance(ruleset, OrientedBlueRed):
        if name == "directed_cycle":
            (n,) = params
            if n > 3:
                return OUTCOME_P, 0  # any first move leaves a nonzero path class
        elif name == "directed_path":
            (n,) = params
            from . import oriented_paths as op

            # the uncolored path is class D; longer ones are left to search
            # rather than to an O(n^2) fill that would load numpy
            if n <= op.SHORT_FILL_MAX:
                value = op.compute_tables(n).value(op.CLASS_D, n)
                return (OUTCOME_N if value else OUTCOME_P), value
    return OUTCOME_UNKNOWN, None
