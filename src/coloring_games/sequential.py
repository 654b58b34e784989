"""Linear-time outcome decision for the forced-order 2-coloring game on paths.

Vertices are classed by when they are painted relative to their neighbors:
a Source is painted before both neighbors (a free color choice), a Closed
vertex after both (no influence, possibly blocked), and a Constrained vertex
in between (its color is forced, and with two colors always available, so it
can never be the losing square; an endpoint painted after its one neighbor
is Constrained for the same reason). The game therefore reduces to the
alternating Source/Closed skeleton: each Closed vertex is saved or doomed by
whoever controls the later of its two flanking Sources, which turns the
whole decision into one elimination sweep in paint order.

Turns are 0-based; the first player owns even turns. The sweep reads the
path position painted at each turn (the order itself on the path
0-1-...-(n-1), else the order through the inverse of the walk) and inverts
it once for each position's turn. The play-out oracle shares none of it.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from operator import sub
from typing import Sequence

from .graphs import Graph, check_order
from .rulesets import OUTCOME_N, OUTCOME_P

SOURCE = "source"
CLOSED = "closed"
CONSTRAINED = "constrained"

ORACLE_CAP = 22

# label codes per path position
_CONSTRAINED, _SOURCE, _CLOSED = 0, 1, 2
_NAMES = (CONSTRAINED, SOURCE, CLOSED)

_NOT_A_PATH = "graph is not a path (cycles and branches unsupported)"


def path_walk(g: Graph) -> array:
    """Vertex ids in path order, read from the graph's rows. Raises for
    anything that is not a path."""
    if g.directed:
        raise ValueError("sequential path analysis works on undirected paths")
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return array("q", [0])
    off, nbr = g.offsets, g.targets
    # degrees capped at 3, which is enough to reject a branch
    deg = bytearray(map(min, map(sub, islice(off, 1, None), off), repeat(3)))
    if 3 in deg or deg.count(1) != 2:
        raise ValueError(_NOT_A_PATH)
    walk = array("q", [0]) * n
    prev, cur = -1, deg.find(1)
    for i in range(n):
        if cur < 0:
            raise ValueError("graph is not a path (disconnected)")
        walk[i] = cur
        j = off[cur]
        nxt = nbr[j]
        if nxt == prev:
            nxt = nbr[j + 1] if deg[cur] == 2 else -1
        prev, cur = cur, nxt
    return walk


def _inverse(perm: Sequence[int]) -> array:
    """The inverse permutation: inv[perm[i]] == i."""
    inv = array("q", bytes(8 * len(perm)))
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def _at(walk: Sequence[int], order: Sequence[int]) -> array:
    """Path position painted at each turn: order through the inverse of walk."""
    return array("q", map(_inverse(walk).__getitem__, order))


def _labels(t_of: array) -> bytearray:
    """Label code per path position, from the paint turns of its neighbours.

    A missing neighbour reads as turn n, later than every real turn, so an
    endpoint is a Source when painted before its one neighbour and never
    Closed.
    """
    n = len(t_of)
    before = chain((n,), t_of)
    after = chain(islice(t_of, 1, None), (n,))
    label = bytearray(n)  # _CONSTRAINED
    for i, (a, t, b) in enumerate(zip(before, t_of, after)):
        if t < a and t < b:
            label[i] = _SOURCE
        elif t > a and t > b:
            label[i] = _CLOSED
    return label


def classify(g: Graph, order: tuple[int, ...]) -> dict[int, str]:
    """Source/Closed/Constrained label per vertex id."""
    walk = path_walk(g)
    check_order(g.n, order)
    return {v: _NAMES[c] for v, c in zip(walk, _labels(_inverse(_at(walk, order))))}


def decide_path(order: tuple[int, ...]) -> str:
    """Outcome on the path 0-1-...-(n-1) painted in the given vertex order."""
    check_order(len(order), order)
    return _decide(order)


def decide_outcome(g: Graph, order: Sequence[int]) -> str:
    """Outcome of the forced-order game on a path graph; O(n)."""
    walk = path_walk(g)
    check_order(g.n, order)
    at = _at(walk, order)
    del walk  # the sweep reads only the positions
    return _decide(at)


def _decide(at: Sequence[int]) -> str:
    """Outcome from the path position painted at each turn."""
    n = len(at)
    t_of = _inverse(at)  # paint turn by path position
    label = _labels(t_of)

    # left/right are path positions of the neighbours in the skeleton
    left = array("q", range(-1, n - 1))
    right = array("q", range(1, n + 1))

    def unlink(i: int) -> None:
        li, ri = left[i], right[i]
        if li >= 0:
            right[li] = ri
        if ri < n:
            left[ri] = li

    # splice out the constrained vertices
    for i, c in enumerate(label):
        if c == _CONSTRAINED:
            unlink(i)

    # visit closed vertices in paint order; each is reached once, at its own
    # turn, and only sources leave the skeleton beside it, so no alive flag
    for t, i in enumerate(at):
        if label[i] != _CLOSED:
            continue
        li, ri = left[i], right[i]
        # the reduced path alternates Source/Closed with Source ends, so a
        # live closed vertex always sits between two live sources
        assert 0 <= li and ri < n and label[li] == label[ri] == _SOURCE
        hi = li if t_of[li] > t_of[ri] else ri
        if t_of[hi] % 2 == t % 2:
            unlink(i)  # its owner also controls the later source: saved
            unlink(hi)
        else:
            # the opponent colors the later source to block this vertex
            return OUTCOME_P if t % 2 == 0 else OUTCOME_N
    # nobody is ever blocked; the n-th move is the last
    return OUTCOME_N if n % 2 else OUTCOME_P


def brute_force_outcome(g: Graph, order: Sequence[int]) -> str:
    """Exhaustive play-out oracle for any undirected graph, on its own rows:
    turn t paints order[t] with a color none of its neighbours holds. It
    shares only check_order with the sweep."""
    if g.n > ORACLE_CAP:
        raise ValueError(f"brute force oracle is capped at {ORACLE_CAP} vertices")
    if g.directed:
        raise ValueError("the sequential oracle plays undirected graphs")
    check_order(g.n, order)
    adj, colors = g.adj, [0] * g.n  # colors by vertex id; 0 = unpainted

    def win(t: int) -> bool:
        if t == g.n:
            return False
        v = order[t]
        held = [colors[u] for u in adj[v]]
        for c in (1, 2):
            if c not in held:
                colors[v] = c
                opp = win(t + 1)
                colors[v] = 0
                if not opp:
                    return True
        return False  # every color blocked or losing; blocked counts as lost

    return OUTCOME_N if win(0) else OUTCOME_P
