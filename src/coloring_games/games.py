"""Position model and the memoized Sprague-Grundy solver.

Positions are immutable. One recursion solves every ruleset. A position
splits into independent parts when the ruleset allows it: components of the
uncolored subgraph for purely local rules (re-split after every move), the
whole-graph components for the weak rule, and one part holding every vertex
for rules with global state. A part's value is the mex over its legal moves
of the nim-sum of the parts the move leaves. The table key is the part plus
the colors that can affect it, relabeled by first appearance for
color-symmetric rulesets: the painted boundary of an uncolored component, or
the part's own colors. One move loop, shared with legal_moves, gives the
legal moves: it binds the ruleset's rule to the coloring once per call
(rulesets.move_rule) and, with a visit order, offers only the first
uncolored vertex of the order. Distance games are solved as proper games on
the power graph.

Each solver counts the bytes of its own table against COLORING_GAMES_TT_BYTES,
read when the solver is made. When the cached solvers together would pass it,
the tables of the other solvers are dropped first; MemoryBudgetExceeded is
raised only when the current table alone is over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from . import rulesets as rs
from .graphs import TT_BYTES_ENV, Graph, MemoryBudgetExceeded, byte_budget
from .rulesets import Ruleset, is_legal_coloring

Nimber = int
Coloring = tuple  # tuple[int | None, ...]


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


@dataclass(frozen=True)
class Move:
    vertex: int
    color: int


@dataclass(frozen=True)
class Position:
    """A graph, a palette size, a ruleset, and a legal partial coloring."""

    graph: Graph
    k: int
    ruleset: Ruleset
    coloring: tuple
    order: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.coloring) != self.graph.n:
            raise IllegalColoringError("coloring length must equal vertex count")
        if not is_legal_coloring(self.ruleset, self.graph, self.k, self.coloring, self.order):
            raise IllegalColoringError(
                f"coloring {self.coloring} is illegal under {self.ruleset.token}"
            )

    @classmethod
    def start(
        cls,
        graph: Graph,
        k: int,
        ruleset: Ruleset,
        order: tuple[int, ...] | None = None,
        coloring: Sequence[int | None] | None = None,
    ) -> "Position":
        col = tuple(coloring) if coloring is not None else (None,) * graph.n
        return cls(graph=graph, k=k, ruleset=ruleset, coloring=col, order=order)

    @property
    def painted_count(self) -> int:
        return sum(1 for c in self.coloring if c is not None)


def _moves(
    ruleset: Ruleset,
    graph: Graph,
    k: int,
    order: tuple[int, ...] | None,
    colors: list[int],
    part: Sequence[int],
) -> list[tuple[int, int]]:
    """Legal (vertex, color) moves on the uncolored vertices of part; with a
    visit order only the first uncolored vertex of the order may be painted."""
    if order is not None:
        verts = [v for v in order if not colors[v]][:1]
    else:
        verts = [v for v in part if not colors[v]]
    ok = rs.move_rule(ruleset, graph, colors)
    return [(v, c) for v in verts for c in range(1, k + 1) if ok(graph, colors, v, c)]


def legal_moves(position: Position) -> list[Move]:
    """All (vertex, color) moves legal from this position, sorted."""
    ruleset, graph = rs.translate_for_solving(position.ruleset, position.graph)
    colors = [0 if c is None else c for c in position.coloring]
    return [
        Move(v, c)
        for v, c in _moves(ruleset, graph, position.k, position.order, colors, range(graph.n))
    ]


def apply_move(position: Position, move: Move) -> Position:
    """Play a move, returning the resulting position."""
    if move not in legal_moves(position):
        raise IllegalMoveError(f"{move} is not legal here")
    return _play(position, move)


def _play(position: Position, move: Move) -> Position:
    """The position after a move already known to be legal."""
    col = list(position.coloring)
    col[move.vertex] = move.color
    return replace(position, coloring=tuple(col))


# ---- solver ----------------------------------------------------------------

class _Solver:
    def __init__(
        self, graph: Graph, k: int, ruleset: Ruleset, order: tuple[int, ...] | None
    ) -> None:
        self.ruleset, self.graph = rs.translate_for_solving(ruleset, graph)
        self.k = k
        self.order = order
        self.adj = self.graph.adj
        self.symmetric = self.ruleset.color_symmetric
        self.live = self.ruleset.decomposition == rs.DECOMP_LIVE
        if self.ruleset.decomposition == rs.DECOMP_GRAPH:
            self.parts = sorted(tuple(sorted(c)) for c in self.graph.components())
        else:
            self.parts = [tuple(range(self.graph.n))]
        self.table: dict[tuple, int] = {}
        self.budget = byte_budget()
        self.bytes = 0

    # -- keys --

    def _canon(self, colors: tuple[int, ...]) -> tuple[int, ...]:
        if not self.symmetric:
            return colors
        perm: dict[int, int] = {}
        out = []
        for c in colors:
            if c == 0:
                out.append(0)
                continue
            m = perm.get(c)
            if m is None:
                m = perm[c] = len(perm) + 1
            out.append(m)
        return tuple(out)

    def _split(self, verts: Iterable[int], dropped: int = -1) -> list[tuple[int, ...]]:
        """Connected components of verts (minus dropped), each sorted."""
        remaining = set(verts)
        remaining.discard(dropped)
        comps = []
        while remaining:
            start = min(remaining)
            comp = [start]
            remaining.remove(start)
            stack = [start]
            while stack:
                x = stack.pop()
                for u in self.adj[x]:
                    if u in remaining:
                        remaining.remove(u)
                        comp.append(u)
                        stack.append(u)
            comps.append(tuple(sorted(comp)))
        return comps

    # -- the recursion --

    def _solve(self, colors: list[int], part: tuple[int, ...]) -> int:
        if self.live:
            # every neighbor outside a live component is painted, so the
            # component fixes its boundary and only the boundary colors vary
            seen: Iterable[int] = sorted(
                {u for v in part for u in self.adj[v] if colors[u]}
            )
        else:
            seen = part
        key = (part, self._canon(tuple(colors[u] for u in seen)))
        hit = self.table.get(key)
        if hit is not None:
            return hit
        opts = set()
        for v, c in _moves(self.ruleset, self.graph, self.k, self.order, colors, part):
            colors[v] = c
            val = 0
            for rest in self._split(part, dropped=v) if self.live else (part,):
                val ^= self._solve(colors, rest)
            opts.add(val)
            colors[v] = 0
        result = mex(opts)
        self._charge(key)
        self.table[key] = result
        return result

    def _charge(self, key: tuple) -> None:
        global _used
        # rough estimate: dict slot + key tuples + 8 bytes per color
        cost = 120 + 8 * len(key[1])
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
        if self.live:
            parts = self._split(v for v in range(self.graph.n) if not colors[v])
        else:
            parts = self.parts
        total = 0
        for part in parts:
            total ^= self._solve(colors, part)
        return total


_SOLVERS: dict[tuple, _Solver] = {}
_used = 0  # bytes charged by the tables of the solvers in _SOLVERS


def _solver_for(position: Position) -> _Solver:
    key = (position.graph, position.ruleset, position.k, position.order)
    solver = _SOLVERS.get(key)
    if solver is None:
        solver = _SOLVERS[key] = _Solver(
            position.graph, position.k, position.ruleset, position.order
        )
    return solver


def clear_solver_cache() -> None:
    """Drop all transposition tables and reset the byte budget accounting."""
    global _used
    _SOLVERS.clear()
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
