"""Independent reference implementations used only by the test suite.

Everything here re-derives semantics straight from the textual rule
definitions, with no memoization, no decomposition, and no shared code with
the solver internals, so the suite double-checks the library instead of
echoing it. `D_ZEROS` is the one recorded census the suite checks the
Blue-Red tables against.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from typing import Sequence

import numpy as np

from coloring_games.graphs import Graph

BLUE, RED = 1, 2


def mex(vals) -> int:
    r = 0
    while r in vals:
        r += 1
    return r


def bfs_dist(g: Graph, s: int) -> list[int]:
    dist = [-1] * g.n
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for u in g.adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                q.append(u)
    return dist


def ref_legal(
    token: str,
    g: Graph,
    k: int,
    coloring: Sequence[int | None],
    order: tuple[int, ...] | None = None,
    d: int = 2,
) -> bool:
    """Literal transcription of each ruleset's definition."""
    if any(c is not None and not 1 <= c <= k for c in coloring):
        return False

    if token == "proper":
        return all(
            coloring[u] is None or coloring[u] != coloring[v] for u, v in g.edges
        )

    if token == "oriented":
        for u, v in g.edges:
            if coloring[u] is not None and coloring[u] == coloring[v]:
                return False
        for u, v in g.edges:
            if coloring[u] is None or coloring[v] is None:
                continue
            for u2, v2 in g.edges:
                if (u2, v2) == (u, v):
                    continue
                if coloring[u2] is None or coloring[v2] is None:
                    continue
                # other arc written (v', u'): tail matches v's color, head u's
                if coloring[v2] == coloring[u] and coloring[u2] == coloring[v]:
                    return False
        return True

    if token == "oriented-br":
        return all(
            coloring[u] is None
            or coloring[v] is None
            or (coloring[u] == BLUE and coloring[v] == RED)
            for u, v in g.edges
        )

    if token == "weak":
        for u, v in g.edges:
            if coloring[u] is not None and coloring[u] == coloring[v]:
                opp = 3 - coloring[u]
                if all(coloring[w] != opp for w in g.adj[u]):
                    return False
                if all(coloring[w] != opp for w in g.adj[v]):
                    return False
        return True

    if token == "distance":
        for s in range(g.n):
            if coloring[s] is None:
                continue
            dist = bfs_dist(g, s)
            for v in range(g.n):
                if v != s and 0 < dist[v] <= d and coloring[v] == coloring[s]:
                    return False
        return True

    if token == "sequential":
        assert order is not None
        painted = {v for v in range(g.n) if coloring[v] is not None}
        if painted != set(order[: len(painted)]):
            return False
        return ref_legal("proper", g, k, coloring)

    raise ValueError(f"unknown token {token}")


def ref_moves(
    token: str,
    g: Graph,
    k: int,
    coloring: Sequence[int | None],
    order: tuple[int, ...] | None = None,
    d: int = 2,
) -> list[tuple[int, int]]:
    """Legal moves by definition: paint and re-check the whole coloring."""
    out = []
    col = list(coloring)
    for v in range(g.n):
        if col[v] is not None:
            continue
        for c in range(1, k + 1):
            col[v] = c
            if ref_legal(token, g, k, col, order, d):
                out.append((v, c))
            col[v] = None
    return out


def ref_grundy(
    token: str,
    g: Graph,
    k: int,
    coloring: Sequence[int | None],
    order: tuple[int, ...] | None = None,
    d: int = 2,
    _memo: dict | None = None,
) -> int:
    """Plain game-tree walk over raw colorings. No decomposition, no color
    canonicalization, no incremental legality; just a dict memo on the
    coloring tuple so small-but-bushy instances stay affordable."""
    if _memo is None:
        _memo = {}
    key = tuple(coloring)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    col = list(coloring)
    vals = set()
    for v, c in ref_moves(token, g, k, col, order, d):
        col[v] = c
        vals.add(ref_grundy(token, g, k, col, order, d, _memo))
        col[v] = None
    r = mex(vals)
    _memo[key] = r
    return r


def ref_outcome(
    token: str,
    g: Graph,
    k: int,
    coloring: Sequence[int | None],
    order: tuple[int, ...] | None = None,
    d: int = 2,
) -> str:
    return "N" if ref_grundy(token, g, k, coloring, order, d) > 0 else "P"


# ---- Blue-Red directed path classes ----------------------------------------

def scalar_tables(K: int) -> tuple[list[int], list[int], list[int]]:
    """The three Mex recursions for the A, C and D path classes, written
    plainly in scalar Python; lengths count vertices, index 0 is the empty
    path."""
    a, c, d = [0] * (K + 1), [0] * (K + 1), [0] * (K + 1)
    for k in range(1, K + 1):
        opts = set()
        for i in range(3, k):
            opts.add(a[i - 2] ^ c[k + 1 - i])
        for i in range(2, k - 1):
            opts.add(c[i] ^ a[k - i - 1])
        c[k] = mex(opts)
        opts = set()
        for i in range(3, k + 1):
            opts.add(a[i - 2] ^ a[k + 1 - i])
        for i in range(2, k + 1):
            opts.add(c[i] ^ d[max(k - i - 1, 0)])
        a[k] = mex(opts)
        opts = set()
        for i in range(1, k + 1):
            opts.add(d[max(i - 2, 0)] ^ a[k + 1 - i])
            opts.add(a[i] ^ d[max(k - i - 1, 0)])
        d[k] = mex(opts)
    return a, c, d


def _np_mex(opts: np.ndarray) -> int:
    if opts.size == 0:
        return 0
    bound = min(opts.size + 1, 1 << 16)
    seen = np.zeros(bound + 1, dtype=bool)
    seen[np.minimum(opts.astype(np.intp), bound)] = True  # cast: bound may exceed uint16
    first = int(np.argmin(seen[:bound]))
    if seen[first]:
        raise OverflowError("Grundy value does not fit in 16 bits")
    return first


def naive_tables(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The recursions of scalar_tables, vectorized per length with index
    arrays; fast enough to serve as the bit-identity reference to K=10^4."""
    gA = np.zeros(K + 1, dtype=np.uint16)
    gC = np.zeros(K + 1, dtype=np.uint16)
    gD = np.zeros(K + 1, dtype=np.uint16)
    for k in range(1, K + 1):
        # C_k: Blue splits A_{i-2} + C_{k+1-i}; Red splits C_i + A_{k-i-1}
        i1 = np.arange(3, k, dtype=np.intp)
        i2 = np.arange(2, k - 1, dtype=np.intp)
        gC[k] = _np_mex(
            np.concatenate((gA[i1 - 2] ^ gC[k + 1 - i1], gC[i2] ^ gA[k - i2 - 1]))
        )
        # A_k: Blue splits A_{i-2} + A_{k+1-i}; Red splits C_i + D_{k-i-1}
        i1 = np.arange(3, k + 1, dtype=np.intp)
        i2 = np.arange(2, k + 1, dtype=np.intp)
        gA[k] = _np_mex(
            np.concatenate(
                (gA[i1 - 2] ^ gA[k + 1 - i1], gC[i2] ^ gD[np.maximum(k - i2 - 1, 0)])
            )
        )
        # D_k: Blue splits D_{i-2} + A_{k+1-i}; Red splits A_i + D_{k-i-1}
        i1 = np.arange(1, k + 1, dtype=np.intp)
        gD[k] = _np_mex(
            np.concatenate(
                (
                    gD[np.maximum(i1 - 2, 0)] ^ gA[k + 1 - i1],
                    gA[i1] ^ gD[np.maximum(k - i1 - 1, 0)],
                )
            )
        )
    return gA, gC, gD


# every D length (in vertices) of value 0 up to 32768; none between 8084 and
# 32768. The zeros up to 1600 are those of scalar_tables(1600); 3, 6, 11, 15
# and 16 are also zeros of ref_grundy on the raw colorings.
def table_file(K: int, body: bytes) -> bytes:
    """A table file around a given body, written from the documented format:
    a little-endian {magic CGBR, uint16 version 1, uint64 K} header, the
    body, then the 8-byte blake2b digest of both."""
    head = struct.pack("<4sHQ", b"CGBR", 1, K) + body
    return head + hashlib.blake2b(head, digest_size=8).digest()


D_ZEROS = [
    3, 6, 11, 15, 16, 22, 27, 32, 38, 43, 49, 55, 59, 65, 66, 81, 85, 92,
    97, 101, 141, 145, 151, 178, 523, 1251, 1376, 1456, 1526, 1538, 3625,
    3678, 3933, 8084,
]


# ---- standalone Node-Kayles -------------------------------------------------

def kayles_moves(g: Graph, removed: frozenset[int]) -> list[int]:
    """Node-Kayles: pick a vertex not yet picked and not adjacent to one."""
    picked = removed
    return [
        v
        for v in range(g.n)
        if v not in picked and all(u not in picked for u in g.adj[v])
    ]


def kayles_grundy(g: Graph, picked: frozenset[int] = frozenset(), _memo=None) -> int:
    if _memo is None:
        _memo = {}
    if picked in _memo:
        return _memo[picked]
    vals = {kayles_grundy(g, picked | {v}, _memo) for v in kayles_moves(g, picked)}
    r = mex(vals)
    _memo[picked] = r
    return r


# ---- plain graph model ------------------------------------------------------

class RefGraph:
    """The graph contract on a plain frozenset of pairs, with every view
    recomputed from the set on each call."""

    def __init__(self, n: int, directed: bool, pairs) -> None:
        edges = set()
        for u, v in pairs:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            edges.add((u, v) if directed or u < v else (v, u))
        self.n, self.directed, self.edges = n, directed, frozenset(edges)

    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        # an undirected edge is an arc both ways
        if not self.directed:
            return self.adj()
        return tuple(tuple(sorted(b for a, b in self.edges if a == v)) for v in range(self.n))

    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        if not self.directed:
            return self.adj()
        return tuple(tuple(sorted(a for a, b in self.edges if b == v)) for v in range(self.n))

    def adj(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(sorted({w for e in self.edges if v in e for w in e if w != v}))
            for v in range(self.n)
        )

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (not self.directed and (v, u) in self.edges)

    def components(self) -> set[frozenset[int]]:
        comps, left = set(), set(range(self.n))
        adj = self.adj()
        while left:
            comp, todo = set(), [min(left)]
            while todo:
                v = todo.pop()
                if v not in comp:
                    comp.add(v)
                    todo.extend(adj[v])
            comps.add(frozenset(comp))
            left -= comp
        return comps
