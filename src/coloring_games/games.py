"""Position model and the memoized Sprague-Grundy solver.

Positions are immutable. One recursion solves every ruleset. A position
splits into independent parts when the ruleset allows it: components of the
uncolored subgraph for purely local rules (re-split after every move), the
whole-graph components for the weak rule, and one part holding every vertex
for rules with global state. The weak rule's fixed parts come from the same
adjacency walk as the live parts, run once on the uncolored graph. A part's
value is the mex over its legal moves of the nim-sum of the parts the move
leaves. A part is a pair (lo, rel): its lowest vertex and an int mask
relative to it (bit i for vertex lo + i), so a part's masks are as wide as
the part, not as the graph. A move splits a live part by a flood fill over
per-vertex neighbour masks, each relative to the vertex's lowest neighbour;
the position's own uncolored components come from one walk over the
adjacency rows. The table key is one int: lo, the width of rel, rel, and the
colors that can affect the part, packed in base k+1 in ascending vertex
order and relabeled by first appearance for color-symmetric rulesets. Those
colors are the painted boundary of an uncolored component, or else the
part's own colors; the part fixes how many there are, so keys never collide.
Under a color-symmetric ruleset the colors a key does not see are
interchangeable, so the search paints only the colors it sees and the lowest
one it does not. One move loop, shared with legal_moves, gives the legal
moves: it binds the ruleset's rule to the coloring once per call
(rulesets.move_rule) and, under the sequential ruleset, offers only the first
uncolored vertex of the ruleset's visit order. The loop is lazy, and a live
level keeps its part as the mask and one byte per vertex of the part's span,
picking the vertices from those bytes each time it walks them, so a level
holds neither a move list nor a vertex list. Only the solver plays a
distance game as the proper game on the power graph.

Each solver counts the bytes of its own table against COLORING_GAMES_TT_BYTES,
read when the solver is made: per entry, the key's size plus a dict slot.
When the cached solvers together would pass it, the tables of the other
solvers are dropped first; MemoryBudgetExceeded is raised only when the
current table alone is over.
"""

from __future__ import annotations

import sys
from itertools import compress, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import rulesets as rs
from .base import TT_BYTES_ENV, Frozen, MemoryBudgetExceeded, byte_budget
from .graphs import Graph
from .rulesets import Ruleset, is_legal_coloring

Nimber = int


class IllegalColoringError(ValueError):
    """Coloring violates the ruleset."""


class IllegalMoveError(ValueError):
    """Move is not legal in this position."""


def mex(values: Iterable[int]) -> int:
    """Smallest nonnegative integer not in values."""
    s = set(values)
    r = 0
    while r in s:
        r += 1
    return r


def nim_sum(a: int, b: int, *rest: int) -> int:
    """XOR of game values (the Grundy value of a disjoint sum)."""
    if a < 0 or b < 0 or any(r < 0 for r in rest):
        raise ValueError("nimbers are nonnegative")
    out = a ^ b
    for r in rest:
        out ^= r
    return out


class Move(NamedTuple):
    vertex: int
    color: int


class Position(Frozen):
    """A graph, a palette size, a ruleset, and a legal partial coloring."""

    def __init__(self, graph: Graph, k: int, ruleset: Ruleset, coloring: tuple) -> None:
        if len(coloring) != graph.n:
            raise IllegalColoringError("coloring length must equal vertex count")
        if not is_legal_coloring(ruleset, graph, k, coloring):
            raise IllegalColoringError(f"coloring {coloring} is illegal under {ruleset.token}")
        self.__dict__.update(graph=graph, k=k, ruleset=ruleset, coloring=coloring)

    @classmethod
    def start(
        cls,
        graph: Graph,
        k: int,
        ruleset: Ruleset,
        coloring: Sequence[int | None] | None = None,
    ) -> "Position":
        col = tuple(coloring) if coloring is not None else (None,) * graph.n
        return cls(graph=graph, k=k, ruleset=ruleset, coloring=col)

    @property
    def painted_count(self) -> int:
        return sum(1 for c in self.coloring if c is not None)


def _moves(
    ruleset: Ruleset,
    graph: Graph,
    palette: Sequence[int],
    colors: list[int],
    part: Iterable[int],
) -> Iterator[tuple[int, int]]:
    """Legal (vertex, color) moves on the uncolored vertices of part with
    the colors of palette, one at a time; under the sequential ruleset the
    part is set aside and only the first uncolored vertex of its visit
    order may be painted. A caller that paints a move restores colors
    before it asks for the next, since the rule stays bound to the first
    coloring."""
    ok = rs.move_rule(ruleset, graph, colors)
    if isinstance(ruleset, rs.SequentialColoring):
        part = next(((v,) for v in ruleset.order if not colors[v]), ())
    for v in part:
        if not colors[v]:
            for c in palette:
                if ok(graph, colors, v, c):
                    yield v, c


def legal_moves(position: Position) -> list[Move]:
    """All (vertex, color) moves legal from this position, sorted."""
    colors = [0 if c is None else c for c in position.coloring]
    moves = _moves(position.ruleset, position.graph, range(1, position.k + 1), colors,
                   range(position.graph.n))
    return [Move(v, c) for v, c in moves]


def apply_move(position: Position, move: Move) -> Position:
    """Play a move, returning the resulting position. The move loop is asked
    about this vertex and color only; under the sequential ruleset it offers
    the visit order's next vertex, which must be the move's."""
    v, c = move.vertex, move.color
    colors = [0 if x is None else x for x in position.coloring]
    if not (
        v in range(position.graph.n)
        and c in range(1, position.k + 1)
        and (v, c) in _moves(position.ruleset, position.graph, (c,), colors, (v,))
    ):
        raise IllegalMoveError(f"{move} is not legal here")
    return _play(position, move)


def _play(position: Position, move: Move) -> Position:
    """The position after a move already known to be legal (one that
    legal_moves offers). Neither apply_move's move-list check nor
    __init__'s whole-coloring check runs: a legal move from a legal
    coloring leaves a legal coloring."""
    col = list(position.coloring)
    col[move.vertex] = move.color
    child = object.__new__(Position)
    child.__dict__.update(vars(position), coloring=tuple(col))
    return child


# ---- solver ----------------------------------------------------------------

_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to 0/1 flags


def _flags(rel: int) -> bytes:
    """One byte per bit of rel, lowest bit first: 1 where the bit is set."""
    return f"{rel:b}".encode().translate(_DIGIT_FLAGS)[::-1]


def _mask(verts: Sequence[int], lo: int) -> int:
    """The vertices verts, none below lo, as a mask relative to lo (bit i
    for vertex lo + i), from one string of binary digits."""
    top = max(verts, default=lo)
    digits = bytearray(b"0") * (top - lo + 1)
    for v in verts:
        digits[top - v] = 49  # ord("1")
    return int(digits, 2)


class _Solver:
    def __init__(self, graph: Graph, k: int, ruleset: Ruleset) -> None:
        self.ruleset, self.graph = rs.translate_for_solving(ruleset, graph)
        self.k = k
        self.palette = range(1, k + 1)
        n = self.graph.n
        self.field = n.bit_length()  # bits that hold a vertex number or a count of them
        self.ids = list(range(n))  # one int object per vertex, shared by all vertex lists
        self.symmetric = self.ruleset.color_symmetric
        self.live = self.ruleset.decomposition == rs.DECOMP_LIVE
        # the parts of a ruleset that does not split on the coloring:
        # (lo, rel) -> its vertices, ascending
        if self.ruleset.decomposition == rs.DECOMP_NONE:
            self.parts = {(0, (1 << n) - 1): self.ids} if n else {}
        else:
            # per vertex: its lowest neighbour, and its neighbours as a mask
            # relative to that one, as wide as the span of their labels; made
            # for the uncolored vertices that _free_parts walks
            self.nlo = [0] * n
            self.nrel: list[int | None] = [None] * n
            if not self.live:  # the weak rule's parts: the whole graph's components
                parts = self._free_parts([0] * n)
                self.parts = {p: list(self._verts(*p, _flags(p[1]))) for p in parts}
        self.table: dict[int, int] = {}
        self.budget = byte_budget()
        self.bytes = 0

    def _verts(self, lo: int, rel: int, flags: bytes | None) -> Iterable[int]:
        """The vertices of the part (lo, rel), ascending: the stored list of a
        part that does not split, or else picked from flags, _flags(rel), by
        C-level iteration, so a wide part costs no big-int step per vertex and
        no list."""
        if flags is None:
            return self.parts[lo, rel]
        return compress(islice(self.ids, lo, None), flags)

    def _free_parts(self, colors: list[int]) -> list[tuple[int, int]]:
        """The components of the uncolored subgraph as (lo, rel) parts, from
        one walk over the adjacency rows: linear in the graph, however many
        components there are. The walk makes the neighbour masks of the
        vertices it reaches, the only ones a split of these parts reads."""
        adj, nlo, nrel = self.graph.adj, self.nlo, self.nrel
        seen = bytearray(map(bool, colors))  # painted vertices start out seen
        parts = []
        s = seen.find(0)
        while s >= 0:
            seen[s] = 1
            comp = [s]
            for v in comp:
                row = adj[v]
                if nrel[v] is None:
                    nlo[v] = low = row[0] if row else v
                    nrel[v] = _mask(row, low)
                for u in row:
                    if not seen[u]:
                        seen[u] = 1
                        comp.append(u)
            parts.append((s, _mask(comp, s)))  # s is the lowest vertex of comp
            s = seen.find(0, s + 1)
        return parts

    def _split(self, lo: int, rel: int, v: int) -> list[tuple[int, int]]:
        """The parts that painting vertex v leaves of the live part (lo, rel):
        the connected components of the rest, each holding a neighbour of v.
        A flood fill grows from the lowest such seed by neighbour masks moved
        into the part's window; it stops once it holds every seed left, since
        all of the rest is then one component. Masks stay as wide as the part."""
        nlo, nrel = self.nlo, self.nrel
        rest = rel ^ 1 << (v - lo)
        d = nlo[v] - lo
        seeds = (nrel[v] << d if d >= 0 else nrel[v] >> -d) & rest
        comps = []
        while seeds & (seeds - 1):  # two seeds or more
            edge = seeds & -seeds  # the vertices the fill reached last
            left = rest ^ edge  # the vertices it has not reached
            seeds ^= edge
            while edge and seeds:
                grow = 0
                while edge:
                    low = edge & -edge
                    u = lo + low.bit_length() - 1
                    d = nlo[u] - lo
                    grow |= nrel[u] << d if d >= 0 else nrel[u] >> -d
                    edge ^= low
                edge = grow & left
                left ^= edge
                seeds &= left
            if not seeds:
                break
            comps.append(rest ^ left)
            rest = left
        if rest:
            comps.append(rest)
        parts = []
        for comp in comps:
            shift = (comp & -comp).bit_length() - 1
            parts.append((lo + shift, comp >> shift))
        return parts

    # -- the recursion --

    def _key(
        self, colors: list[int], lo: int, rel: int, verts: Iterable[int]
    ) -> tuple[int, dict[int, int] | None]:
        """One int for the part and the colors that can affect it, and, when
        the ruleset is color-symmetric, the relabeling of those colors. From
        the low end: the part's lowest vertex lo and the width w of rel in
        fields of n.bit_length() bits, rel itself (w bits), and the colors in
        ascending vertex order, packed in base k+1 and relabeled by first
        appearance when the ruleset is color-symmetric. The colors are the
        painted boundary of a live part, which the part fixes, or else the
        part's own colors, so the part fixes how many there are."""
        if self.live:
            # every neighbor outside a live component is painted, so the
            # component fixes its boundary and only the boundary colors vary
            adj = self.graph.adj
            seen = sorted({u for v in verts for u in adj[v] if colors[u]})
        else:
            seen = verts
        base = self.k + 1
        packed = 0
        relabel = None
        if self.symmetric:
            relabel = {0: 0}
            for u in seen:
                packed = packed * base + relabel.setdefault(colors[u], len(relabel))
        else:
            for u in seen:
                packed = packed * base + colors[u]
        w = rel.bit_length()
        return lo | w << self.field | (rel | packed << w) << 2 * self.field, relabel

    def _solve(self, colors: list[int], lo: int, rel: int) -> int:
        # a live level keeps its part's flags, one byte per vertex of the
        # span, and walks the vertices from them: for the key and the moves
        flags = _flags(rel) if self.live else None
        key, relabel = self._key(colors, lo, rel, self._verts(lo, rel, flags))
        hit = self.table.get(key)
        if hit is not None:
            return hit
        palette = self.palette
        if relabel is not None and len(relabel) < self.k:
            # the colors the key does not see are interchangeable, so the
            # lowest of them answers for all; relabel also maps 0 (uncolored)
            free = 1
            while free in relabel:
                free += 1
            palette = [*filter(None, relabel), free]
        opts = set()
        for v, c in _moves(self.ruleset, self.graph, palette, colors, self._verts(lo, rel, flags)):
            colors[v] = c
            val = 0
            for rest in self._split(lo, rel, v) if self.live else ((lo, rel),):
                val ^= self._solve(colors, *rest)
            opts.add(val)
            colors[v] = 0
        result = mex(opts)
        self._charge(key)
        self.table[key] = result
        return result

    def _charge(self, key: int) -> None:
        global _used
        cost = sys.getsizeof(key) + _SLOT_BYTES
        self.bytes += cost
        _used += cost
        if _used > self.budget:
            for skey in [s for s, solver in _SOLVERS.items() if solver is not self]:
                _used -= _SOLVERS.pop(skey).bytes
            if self.bytes > self.budget:
                raise MemoryBudgetExceeded(
                    f"transposition table exceeds {TT_BYTES_ENV}="
                    f"{self.budget} bytes; raise the budget or shrink the instance"
                )

    def value(self, colors: list[int]) -> int:
        total = 0
        for lo, rel in self._free_parts(colors) if self.live else self.parts:
            total ^= self._solve(colors, lo, rel)
        return total


_SOLVERS: dict[tuple, _Solver] = {}
_SLOT_BYTES = 48  # a table entry besides its key: the dict's entry and index at average fill
_used = 0  # bytes charged by the tables of the solvers in _SOLVERS


def _solver_for(position: Position) -> _Solver:
    key = (position.graph, position.ruleset, position.k)
    solver = _SOLVERS.get(key)
    if solver is None:
        solver = _SOLVERS[key] = _Solver(position.graph, position.k, position.ruleset)
    return solver


def clear_solver_cache() -> None:
    """Drop all transposition tables and power graphs; reset the byte budget."""
    global _used
    _SOLVERS.clear()
    rs._power.cache_clear()
    _used = 0


def grundy(position: Position) -> Nimber:
    """Grundy value of the position under optimal play."""
    colors = [0 if c is None else c for c in position.coloring]
    return _solver_for(position).value(colors)


def outcome(position: Position) -> str:
    """"N" when the player to move wins, "P" otherwise."""
    return rs.OUTCOME_N if grundy(position) > 0 else rs.OUTCOME_P


def best_move(position: Position) -> Move | None:
    """A move to a Grundy-0 position, or None when the position is a loss."""
    for mv in legal_moves(position):
        if grundy(_play(position, mv)) == 0:
            return mv
    return None
