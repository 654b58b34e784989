"""Position model and the memoized Sprague-Grundy solver.

Positions are immutable. The solver memoizes on canonical keys: colors are
relabeled by first appearance for color-symmetric rulesets, and positions
split into independent parts when the ruleset allows it (components of the
uncolored subgraph for purely local rules, whole-graph components for the
weak rule, nothing for rules with global state). Distance games are solved
as proper games on the power graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import rulesets as rs
from .graphs import Graph
from .rulesets import Ruleset, check_compatible, is_legal_coloring, move_ok

Nimber = int
Coloring = tuple  # tuple[int | None, ...]

TT_BYTES_ENV = "COLORING_GAMES_TT_BYTES"
_DEFAULT_TT_BYTES = 1 << 30


class IllegalColoringError(ValueError):
    """Coloring violates the ruleset."""


class IllegalMoveError(ValueError):
    """Move is not legal in this position."""


class MemoryBudgetExceeded(RuntimeError):
    """Transposition table grew past the configured byte budget."""


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
        check_compatible(self.ruleset, self.graph, self.k, self.order)
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


def legal_moves(position: Position) -> list[Move]:
    """All (vertex, color) moves legal from this position, sorted."""
    ruleset, graph = rs.translate_for_solving(position.ruleset, position.graph)
    colors = [0 if c is None else c for c in position.coloring]
    if position.order is not None:
        m = position.painted_count
        if m >= graph.n:
            return []
        verts: Iterable[int] = (position.order[m],)
    else:
        verts = (v for v in range(graph.n) if colors[v] == 0)
    out = []
    for v in verts:
        for c in range(1, position.k + 1):
            if move_ok(ruleset, graph, position.k, colors, v, c):
                out.append(Move(v, c))
    return out


def apply_move(position: Position, move: Move) -> Position:
    """Play a move, returning the resulting position."""
    if not 0 <= move.vertex < position.graph.n:
        raise IllegalMoveError(f"vertex {move.vertex} out of range")
    if position.coloring[move.vertex] is not None:
        raise IllegalMoveError(f"vertex {move.vertex} already painted")
    if move not in legal_moves(position):
        raise IllegalMoveError(f"{move} is not legal here")
    return _play(position, move)


def _play(position: Position, move: Move) -> Position:
    """The position after a move already known to be legal."""
    col = list(position.coloring)
    col[move.vertex] = move.color
    return Position(
        graph=position.graph,
        k=position.k,
        ruleset=position.ruleset,
        coloring=tuple(col),
        order=position.order,
    )


# ---- solver ----------------------------------------------------------------

def byte_budget() -> int:
    """Memory cap for solver tables, from COLORING_GAMES_TT_BYTES (default 1 GiB)."""
    raw = os.environ.get(TT_BYTES_ENV)
    if raw is None:
        return _DEFAULT_TT_BYTES
    try:
        val = int(raw)
    except ValueError:
        raise ValueError(f"{TT_BYTES_ENV} must be an integer, got {raw!r}") from None
    if val <= 0:
        raise ValueError(f"{TT_BYTES_ENV} must be positive")
    return val


class _Budget:
    """Shared byte accounting for all transposition tables in the process."""

    def __init__(self) -> None:
        self.used = 0

    def charge(self, key: tuple) -> None:
        # rough estimate: dict slot + tuple overhead + 8 bytes per element
        self.used += 120 + 8 * len(key)
        if self.used > byte_budget():
            raise MemoryBudgetExceeded(
                f"transposition tables exceed {TT_BYTES_ENV}="
                f"{byte_budget()} bytes; raise the budget or shrink the instance"
            )


_BUDGET = _Budget()


class _Solver:
    def __init__(
        self, graph: Graph, k: int, ruleset: Ruleset, order: tuple[int, ...] | None
    ) -> None:
        self.ruleset, self.graph = rs.translate_for_solving(ruleset, graph)
        self.k = k
        self.order = order
        self.adj = self.graph.adj
        self.symmetric = self.ruleset.color_symmetric
        self.decomp = self.ruleset.decomposition
        self.table: dict[tuple, int] = {}
        if self.decomp == rs.DECOMP_GRAPH:
            self.comps = sorted(tuple(sorted(c)) for c in self.graph.components())

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

    # -- decomposition helpers --

    def _split(self, verts: Iterable[int], dropped: int = -1) -> list[tuple[int, ...]]:
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

    # -- recursion over live components (proper, oriented blue-red) --

    def _solve_live(self, colors: list[int], comp: tuple[int, ...]) -> int:
        boundary = sorted(
            {u for v in comp for u in self.adj[v] if colors[u]}
        )
        key = (comp, tuple(boundary), self._canon(tuple(colors[u] for u in boundary)))
        hit = self.table.get(key)
        if hit is not None:
            return hit
        opts = set()
        for v in comp:
            for c in range(1, self.k + 1):
                if move_ok(self.ruleset, self.graph, self.k, colors, v, c):
                    colors[v] = c
                    val = 0
                    for part in self._split(comp, dropped=v):
                        val ^= self._solve_live(colors, part)
                    opts.add(val)
                    colors[v] = 0
        result = mex(opts)
        _BUDGET.charge(key)
        self.table[key] = result
        return result

    # -- recursion inside a fixed graph component (weak) --

    def _solve_comp(self, colors: list[int], ci: int) -> int:
        verts = self.comps[ci]
        key = (ci, self._canon(tuple(colors[v] for v in verts)))
        hit = self.table.get(key)
        if hit is not None:
            return hit
        opts = set()
        for v in verts:
            if colors[v]:
                continue
            for c in range(1, self.k + 1):
                if move_ok(self.ruleset, self.graph, self.k, colors, v, c):
                    colors[v] = c
                    opts.add(self._solve_comp(colors, ci))
                    colors[v] = 0
        result = mex(opts)
        _BUDGET.charge(key)
        self.table[key] = result
        return result

    # -- monolithic recursion (oriented pair rule, sequential order) --

    def _solve_mono(self, colors: list[int], painted: int) -> int:
        key = self._canon(tuple(colors))
        hit = self.table.get(key)
        if hit is not None:
            return hit
        opts = set()
        if self.order is not None:
            verts: Iterable[int] = (
                (self.order[painted],) if painted < self.graph.n else ()
            )
        else:
            verts = (v for v in range(self.graph.n) if colors[v] == 0)
        for v in verts:
            for c in range(1, self.k + 1):
                if move_ok(self.ruleset, self.graph, self.k, colors, v, c):
                    colors[v] = c
                    opts.add(self._solve_mono(colors, painted + 1))
                    colors[v] = 0
        result = mex(opts)
        _BUDGET.charge(key)
        self.table[key] = result
        return result

    # -- entry points --

    def value(self, colors: list[int]) -> int:
        if self.decomp == rs.DECOMP_LIVE:
            live = [v for v in range(self.graph.n) if colors[v] == 0]
            total = 0
            for comp in self._split(live):
                total ^= self._solve_live(colors, comp)
            return total
        if self.decomp == rs.DECOMP_GRAPH:
            total = 0
            for ci in range(len(self.comps)):
                total ^= self._solve_comp(colors, ci)
            return total
        return self._solve_mono(colors, sum(1 for c in colors if c))


_SOLVERS: dict[tuple, _Solver] = {}


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
    _SOLVERS.clear()
    _BUDGET.used = 0


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
