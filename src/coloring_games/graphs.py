"""Graph model, named graph families, involution search, and text serialization.

Vertices are 0-based integers 0..n-1. Graph(...) is the one constructor
(make_graph forwards to it): it takes edges in any order and normalizes
them. The solver walks its own parts; within, a breadth-first walk cut off
at d hops, serves the distance rule and power_graph. A graph keeps its edges
as sorted CSR (compressed sparse row) rows in array('q'):
targets[offsets[v]:offsets[v+1]] lists v's row in ascending order. An
undirected graph has one such pair, in which every edge sits in both
endpoints' rows; a digraph keeps its out rows there, and its in rows are
transposed from them when in_adj is first read. Everything else is derived
from the rows when it is read: the pairs, streamed in ascending order; the
adjacency tuples, one view for an undirected graph, whose edges are arcs
both ways; the degrees; and the edge set, which no engine path builds.
Graphs are immutable and compare and hash by value, so they can serve as
transposition-table keys.

check_order, the visit-order check, lives here so that every caller shares
it. A graph's sizes are checked against the byte budget (base.check_bytes)
before it is built, and its adjacency tuples before they are built.

parse_graph_text reads the text format through one table of the directives
a document gives at most once, under one duplicate rule; an error in a line
names the line. load_graph_file drops a leading UTF-8 byte-order mark.
"""

from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .base import Frozen, check_bytes


class UnknownFamilyError(ValueError):
    """Family name not recognized by build_family."""


class GraphFormatError(ValueError):
    """Malformed graph text document."""


class InvolutionSearchBudget(RuntimeError):
    """Exhaustive involution search would exceed its budget; existence unknown."""


# ---- input checks ----------------------------------------------------------

def _check_graph_budget(n: int, m: int, directed: bool, what: str) -> None:
    """Refuse, before building it, a graph on at least n vertices and m edges
    whose rows plus the endpoint buffer they are sorted from pass the budget."""
    check_bytes(8 * ((1 + directed) * (n + 1) + 4 * m), what)


def check_order(n: int, order: Sequence[int]) -> None:
    """Raise ValueError unless order is a permutation of 0..n-1."""
    if len(order) != n:
        raise ValueError("order must list every vertex exactly once")
    seen = bytearray(n)
    for v in order:
        if not 0 <= v < n or seen[v]:
            raise ValueError("order must list every vertex exactly once")
        seen[v] = 1


# ---- CSR rows ------------------------------------------------------------

def _rows(n: int, keys: Sequence[int], vals: Iterable[int]) -> tuple[array, array]:
    """Counting sort of (key, val) pairs into rows: row x lists, in input
    order, the vals paired with key x. keys is read twice."""
    count = [0] * n
    for x in keys:
        count[x] += 1
    offsets = array("q", itertools.accumulate(count, initial=0))
    del count
    fill = offsets[:-1]
    targets = array("q", [0]) * offsets[-1]
    for x, y in zip(keys, vals):
        p = fill[x]
        targets[p] = y
        fill[x] = p + 1
    return offsets, targets


def _row_ids(offsets: array) -> Iterator[int]:
    """Each row's index, once per entry of the row."""
    sizes = map(sub, itertools.islice(offsets, 1, None), offsets)
    return itertools.chain.from_iterable(map(itertools.repeat, itertools.count(), sizes))


def _row_tuples(offsets: array, targets: array) -> tuple[tuple[int, ...], ...]:
    """Every row as a tuple."""
    return tuple(
        tuple(targets[lo:hi]) for lo, hi in zip(offsets, itertools.islice(offsets, 1, None))
    )


def _csr(n: int, directed: bool, edges: Iterable[tuple[int, int]]) -> tuple[array, array]:
    """Sorted rows without repeats: (offsets, targets), a digraph's out rows.
    Undirected pairs are turned to (min, max)."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    ends = array("q")  # u0, v0, u1, v1, ...
    push = ends.append
    ordered = True  # pairs strictly increasing: sorted and without repeats
    pu = pv = -1
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on vertex {u}")
        if not directed and u > v:
            u, v = v, u
        if u < pu or u == pu and v <= pv:
            ordered = False
        pu, pv = u, v
        try:
            push(u)
            push(v)
        except OverflowError:  # beyond 64 bits, so beyond any n
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}") from None
    if ends and (min(ends) < 0 or max(ends) >= n):
        it = iter(ends)
        u, v = next((u, v) for u, v in zip(it, it) if not (0 <= u < n and 0 <= v < n))
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    m = len(ends) // 2
    _check_graph_budget(n, m, directed, f"a graph with {n} vertices and {m} edges")

    if not ordered:
        # sort the pairs and drop repeats, as one int key u * n + v per pair
        tails = itertools.islice(ends, 0, None, 2)
        heads = itertools.islice(ends, 1, None, 2)
        keys = sorted(set(map(add, map(mul, tails, itertools.repeat(n)), heads)))
        ends = array("q", itertools.chain.from_iterable(map(divmod, keys, itertools.repeat(n))))
        del keys

    # sorted pairs fill every row in ascending order
    if directed:
        return _rows(n, ends[::2], itertools.islice(ends, 1, None, 2))
    swapped = zip(itertools.islice(ends, 1, None, 2), itertools.islice(ends, 0, None, 2))
    return _rows(n, ends, itertools.chain.from_iterable(swapped))


# ---- graphs --------------------------------------------------------------

class Graph(Frozen):
    """Immutable simple graph (no loops, no multi-edges) on sorted CSR rows.

    The constructor takes the edges in any order: undirected pairs are
    turned to (min, max) and repeats are dropped. A self-loop or an endpoint
    outside 0..n-1 raises ValueError.

    offsets/targets hold the neighbour rows of an undirected graph and the
    out rows of a digraph. The arrays are read-only by contract.
    Equality and hash look at n, directed and the rows, never at family.
    Each adjacency view is built on first use, once the byte budget admits
    it together with the rows and the views built before it; an undirected
    graph has one, adj, which out_adj and in_adj return.
    """

    n: int
    directed: bool
    # family tag ("path", (5,)) set by build_family; not compared, and read
    # only by rulesets.closed_form_outcome
    family: tuple[str, tuple[int, ...]] | None
    offsets: array
    targets: array

    def __init__(
        self,
        n: int,
        directed: bool,
        edges: Iterable[tuple[int, int]],
        family: tuple[str, tuple[int, ...]] | None = None,
    ) -> None:
        offsets, targets = _csr(n, directed, edges)
        # __setattr__ refuses every assignment, so fill the instance dict
        self.__dict__.update(
            n=n,
            directed=directed,
            family=family,
            offsets=offsets,
            targets=targets,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and self.offsets == other.offsets
            and self.targets == other.targets
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # one digest of the rows, taken on first use; in rows follow from out rows
        return hash((self.n, self.directed, self.offsets.tobytes(), self.targets.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, directed={self.directed}, edges={self.edges!r})"

    # ---- derived views -------------------------------------------------

    def _charge(self, entries: int, shared: bool = False) -> None:
        """Count one view of the rows as tuples before it is built: 48 bytes
        per row for a tuple and its slot, and 40 per entry for a slot and an
        int, or 8 when shared (the ints are those of views already built)."""
        need = self.__dict__.get("_bytes", 8 * (self.n + 1 + len(self.targets)))
        need += 48 * self.n + (8 if shared else 40) * entries
        check_bytes(need, f"an adjacency view of a graph with {self.n} vertices")
        self.__dict__["_bytes"] = need

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Edges in ascending order, (min, max) pairs or (tail, head) arcs,
        streamed from the rows; nothing is kept."""
        pairs = zip(_row_ids(self.offsets), self.targets)
        if self.directed:
            return pairs
        return ((u, v) for u, v in pairs if u < v)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set, built on first use and not charged; for repr and
        outside callers, since the engine reads pairs() instead."""
        return frozenset(self.pairs())

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors ignoring direction (union of in and out for digraphs)."""
        if self.directed:
            out_adj, in_adj = self.out_adj, self.in_adj
            self._charge(2 * len(self.targets), shared=True)
            return tuple(tuple(sorted({*o, *i})) for o, i in zip(out_adj, in_adj))
        self._charge(len(self.targets))
        return _row_tuples(self.offsets, self.targets)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Arc heads per tail. An undirected edge is an arc both ways, so an
        undirected graph's out_adj is its adj, the same object."""
        if not self.directed:
            return self.adj
        self._charge(len(self.targets))
        return _row_tuples(self.offsets, self.targets)

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Arc tails per head; an undirected graph's in_adj is its adj."""
        if not self.directed:
            return self.adj
        self._charge(len(self.targets))
        # the out rows transposed: tails sorted by head
        return _row_tuples(*_rows(self.n, self.targets, _row_ids(self.offsets)))

    def has_edge(self, u: int, v: int) -> bool:
        """Edge {u, v}, or arc (u, v) in a digraph: a bisect in u's row."""
        if not 0 <= u < self.n:
            return False
        lo, hi = self.offsets[u], self.offsets[u + 1]
        i = bisect_left(self.targets, v, lo, hi)
        return i < hi and self.targets[i] == v

    def degree(self, v: int) -> int:
        if self.directed:
            return len(self.adj[v])
        return self.offsets[v + 1] - self.offsets[v]


def make_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    *,
    directed: bool = False,
    family: tuple[str, tuple[int, ...]] | None = None,
) -> Graph:
    """Graph(n, directed, edges, family), with directed and family by keyword."""
    return Graph(n, directed, edges, family)


# ---- named families ----------------------------------------------------

FAMILY_NAMES = (
    "path",
    "cycle",
    "grid",
    "hypercube",
    "complete_binary_tree",
    "directed_path",
    "directed_cycle",
)


def build_family(name: str, *params: int) -> Graph:
    """Build a named graph family instance.

    path:n, cycle:n (n >= 3), grid:d1,..,dm, hypercube:d,
    complete_binary_tree:depth, directed_path:n, directed_cycle:n (n >= 2).
    """
    name = name.replace("-", "_")
    if name not in FAMILY_NAMES:
        raise UnknownFamilyError(f"unknown family {name!r}")
    if not params:
        raise ValueError(f"family {name!r} needs parameters")
    if any(p <= 0 for p in params):
        raise ValueError(f"family parameters must be positive, got {params}")
    if name != "grid" and len(params) != 1:
        raise ValueError(f"family {name!r} takes one parameter, got {len(params)}")
    tag = (name, tuple(params))

    # each family gives its sizes and a lazy edge stream, and the sizes are
    # checked before any edge is made; the exponent families stop counting at
    # 2**64 vertices, past every budget, rather than build a huge integer
    p = params[0]
    directed = name.startswith("directed")
    if name == "grid":
        n = math.prod(params)
        m = sum(n // d * (d - 1) for d in params)
        # row-major ids: axis a steps by the product of the later dims
        steps = [(math.prod(params[a + 1 :]), d) for a, d in enumerate(params)][::-1]
        edges = ((v, v + s) for v in range(n) for s, d in steps if v // s % d < d - 1)
    elif name == "hypercube":
        n = 1 << min(p, 64)
        m = min(p, 64) * n // 2
        edges = ((v, v ^ (1 << b)) for v in range(n) for b in range(p) if v < v ^ (1 << b))
    elif name == "complete_binary_tree":
        n = (1 << min(p, 64) + 1) - 1
        m = n - 1
        edges = (((v - 1) // 2, v) for v in range(1, n))
    elif name.endswith("cycle"):
        n = m = p
        if n < 3 - directed:
            kind = "directed" if directed else "undirected"
            raise ValueError(f"{kind} cycles need n >= {3 - directed}")
        edges = ((i, (i + 1) % n) for i in range(n))
    else:
        n, m = p, p - 1
        edges = zip(range(n - 1), range(1, n))
    _check_graph_budget(n, m, directed, f"{name}:{','.join(map(str, params))}")
    return make_graph(n, edges, directed=directed, family=tag)


def parse_family_spec(spec: str) -> Graph:
    """Parse a shorthand like "path:7", "grid:3,4" or "dpath:5"."""
    if ":" not in spec:
        raise UnknownFamilyError(f"bad family spec {spec!r}, expected name:params")
    name, _, rest = spec.partition(":")
    name = name.strip().replace("-", "_")
    aliases = {"dpath": "directed_path", "dcycle": "directed_cycle"}
    name = aliases.get(name, name)
    try:
        params = tuple(int(p) for p in rest.split(",") if p.strip() != "")
    except ValueError as exc:
        raise UnknownFamilyError(f"bad parameters in family spec {spec!r}") from exc
    return build_family(name, *params)


def underlying_graph(g: Graph) -> Graph:
    """Forget arc directions."""
    return make_graph(g.n, g.pairs()) if g.directed else g


# ---- distances and power graphs ----------------------------------------

def within(g: Graph, s: int, d: int) -> Iterator[int]:
    """The vertices other than s within d hops of it, nearest first: a
    breadth-first walk on g's adjacency tuples, cut off at depth d. Arc
    directions are ignored."""
    adj, dist, queue = g.adj, {s: 0}, [s]
    for v in queue:  # grows as the walk reaches vertices, in order of distance
        hops = dist[v] + 1
        if hops > d:
            break
        for u in adj[v]:
            if u not in dist:
                dist[u] = hops
                queue.append(u)
                yield u


def power_graph(g: Graph, d: int) -> Graph:
    """Graph on the same vertices joining every pair at hop distance <= d.

    Always returns an undirected graph; arc directions are ignored for the
    distance measure. power_graph(g, 1) equals g for undirected g.
    """
    if d < 1:
        raise ValueError("power exponent must be >= 1")
    # each source's pairs (s, v), v > s, in ascending order: make_graph then
    # checks the budget on its endpoint buffer and needs no sort
    return make_graph(g.n, ((s, v) for s in range(g.n)
                            for v in sorted(v for v in within(g, s, d) if v > s)))


def connected_graph_census(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices.

    Exhaustive over edge subsets, so capped at n <= 6 (112 classes). A subset
    is a mask over the vertex pairs; the first connected mask of each class
    is its representative, and every permutation image of it is claimed, from
    the pair bits each permutation maps each pair to.
    """
    if not 1 <= n <= 6:
        raise ValueError("census enumeration is exhaustive only for 1 <= n <= 6")
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    images = [[1 << index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs]
              for perm in itertools.permutations(range(n))]
    everyone = (1 << n) - 1

    def connected(mask: int) -> bool:
        nbrs = [0] * n
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                nbrs[u] |= 1 << v
                nbrs[v] |= 1 << u
        reached = frontier = 1
        while frontier:
            grown = 0
            for v in range(n):
                if frontier >> v & 1:
                    grown |= nbrs[v]
            frontier = grown & ~reached
            reached |= frontier
        return reached == everyone

    out: list[Graph] = []
    claimed: set[int] = set()
    for mask in range(1 << len(pairs)):
        if mask in claimed or not connected(mask):
            continue
        present = [i for i in range(len(pairs)) if mask >> i & 1]
        out.append(make_graph(n, [pairs[i] for i in present]))
        for bits in images:
            image = 0
            for i in present:
                image |= bits[i]
            claimed.add(image)
    return out


# ---- involutions --------------------------------------------------------

SINGLE_FIXED_POINT = "single-fixed-point"  # exactly one fixed point, v never adjacent to s(v)
FIXED_POINT_FREE = "fixed-point-free"      # no fixed point at all

_INVOLUTION_MODES = (SINGLE_FIXED_POINT, FIXED_POINT_FREE)


def is_automorphism(g: Graph, mapping: Sequence[int]) -> bool:
    """Check that mapping preserves the edge set (direction included)."""
    try:
        check_order(g.n, mapping)
    except ValueError:
        return False
    return all(g.has_edge(mapping[u], mapping[v]) for u, v in g.pairs())


# the backtracking search takes graphs of at most EXHAUSTIVE_CAP vertices
# and stops after NODE_BUDGET nodes
EXHAUSTIVE_CAP = 24
NODE_BUDGET = 2_000_000


def find_involution(g: Graph, mode: str) -> tuple[int, ...] | None:
    """Search for an involutive automorphism with the given fixed-point shape.

    mode is SINGLE_FIXED_POINT (exactly one fixed vertex, and v is never
    adjacent to its image, so a pairing strategy can always answer on the
    partner) or FIXED_POINT_FREE. Returns the mapping as a tuple, v to its
    partner, or None when nonexistence is proven; the empty graph's
    fixed-point-free mapping is (), which is falsy, so test the result
    against None. Raises InvolutionSearchBudget when the search is cut short
    (n above EXHAUSTIVE_CAP, or the backtracking search passes NODE_BUDGET
    nodes). The family tag is not read.
    """
    if mode not in _INVOLUTION_MODES:
        raise ValueError(f"unknown involution mode {mode!r}")

    # parity of the fixed-point count is forced: n - #fixed is even
    want_fixed = 1 if mode == SINGLE_FIXED_POINT else 0
    if g.n % 2 != want_fixed % 2:
        return None
    if g.n == 0:
        return None if want_fixed == 1 else ()

    if g.n > EXHAUSTIVE_CAP:
        raise InvolutionSearchBudget(f"n={g.n} exceeds exhaustive cap {EXHAUSTIVE_CAP}")

    # Backtracking over pairings. Vertices are matched in index order; each
    # step either fixes v (if the fixed budget allows) or pairs it with a
    # degree-compatible unmatched partner, checking edge preservation against
    # everything already matched.
    n = g.n
    mapping = [-1] * n
    deg = [g.degree(v) for v in range(n)]
    nodes = 0

    out_adj, in_adj = g.out_adj, g.in_adj

    def consistent(v: int) -> bool:
        # all edges between v and matched vertices must map to edges; an
        # undirected graph's out_adj and in_adj are both its adj
        m = mapping[v]
        return all(mapping[w] < 0 or g.has_edge(m, mapping[w]) for w in out_adj[v]) and all(
            mapping[u] < 0 or g.has_edge(mapping[u], m) for u in in_adj[v]
        )

    def rec(fixed_left: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise InvolutionSearchBudget(
                f"involution search exceeded {NODE_BUDGET} nodes on n={n}"
            )
        v = next((i for i in range(n) if mapping[i] < 0), -1)
        if v < 0:
            return True
        if fixed_left > 0:
            mapping[v] = v
            if consistent(v) and rec(fixed_left - 1):
                return True
            mapping[v] = -1
        for u in range(v + 1, n):
            if mapping[u] >= 0 or deg[u] != deg[v]:
                continue
            if mode == SINGLE_FIXED_POINT and g.has_edge(v, u):
                continue
            mapping[v], mapping[u] = u, v
            if consistent(v) and consistent(u) and rec(fixed_left):
                return True
            mapping[v] = mapping[u] = -1
        return False

    if rec(want_fixed):
        assert is_automorphism(g, mapping)
        return tuple(mapping)
    return None


# ---- text format ---------------------------------------------------------

class GraphDocument(Frozen):
    """A graph plus the optional position data the text format can carry."""

    def __init__(self, graph: Graph, k: int | None = None,
                 coloring: tuple[int | None, ...] | None = None,
                 order: tuple[int, ...] | None = None) -> None:
        if coloring is not None:
            if len(coloring) != graph.n:
                raise ValueError("coloring length must equal vertex count")
            for c in coloring:
                if c is not None and c < 1:
                    raise ValueError("colors are 1-based positive integers")
                if c is not None and k is not None and c > k:
                    raise ValueError(f"color {c} exceeds declared k={k}")
        if order is not None:
            check_order(graph.n, order)
        self.__dict__.update(graph=graph, k=k, coloring=coloring, order=order)


def _count(args: list[str]) -> int:
    """The one argument of a vertices or k line, a nonnegative integer."""
    (val,) = map(int, args)  # a ValueError unless one integer
    if val < 0:
        raise ValueError(val)
    return val


# The directives a document gives at most once: the parser of the line's
# arguments, and the line's error when it raises ValueError. A line is parsed
# before it is checked for a repeat.
_ONCE = {
    "graph": (lambda args: ("undirected", "directed").index(" ".join(args)) == 1,
              "expected 'graph directed|undirected'"),
    "vertices": (_count, "expected 'vertices <n>'"),
    "k": (_count, "expected 'k <colors>'"),
    "order": (lambda args: tuple(map(int, args)), "order entries must be integers"),
}


def _pair(args: list[str], usage: str, what: str) -> tuple[int, int]:
    """The two integer arguments of an edge or color line."""
    if len(args) != 2:
        raise ValueError(f"expected '{usage}'")
    try:
        return int(args[0]), int(args[1])
    except ValueError:
        raise ValueError(f"{what} must be integers") from None


def parse_graph_text(text: str) -> GraphDocument:
    """Parse the line-oriented graph format.

    Directives: "graph directed|undirected", "vertices <n>", "edge <u> <v>",
    "color <v> <c>", "k <colors>", "order <v_1> ... <v_n>". '#' starts a
    comment; blank lines are skipped. Vertex ids are 0-based, colors 1-based.
    """
    once: dict[str, object] = {}
    edges: list[tuple[int, int]] = []
    colors: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, *args = raw.split("#", 1)[0].split() or [""]
        try:
            if key in _ONCE:
                parse, error = _ONCE[key]
                try:
                    val = parse(args)
                except ValueError:
                    raise ValueError(error) from None
                if key in once:
                    raise ValueError(f"duplicate {key} line")
                once[key] = val
            elif key == "edge":
                edges.append(_pair(args, "edge <u> <v>", "edge endpoints"))
            elif key == "color":
                v, c = _pair(args, "color <v> <c>", "color arguments")
                if v in colors:
                    raise ValueError(f"duplicate color for vertex {v}")
                colors[v] = c
            elif key:
                raise ValueError(f"unknown directive {key!r}")
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    if "graph" not in once:
        raise GraphFormatError("missing 'graph directed|undirected' line")
    if "vertices" not in once:
        raise GraphFormatError("missing 'vertices <n>' line")
    n = once["vertices"]
    # the graph and the document check the rest; their ValueErrors are
    # format errors here
    try:
        g = make_graph(n, edges, directed=once["graph"])
        if any(not 0 <= v < n for v in colors):
            raise ValueError("color line names a vertex out of range")
        coloring = tuple(colors.get(v) for v in range(n)) if colors else None
        return GraphDocument(graph=g, k=once.get("k"), coloring=coloring,
                             order=once.get("order"))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def format_graph_text(doc: GraphDocument) -> str:
    """Emit the canonical text form (stable line order, bit-exact round trip)."""
    g = doc.graph
    lines = [
        f"graph {'directed' if g.directed else 'undirected'}",
        f"vertices {g.n}",
    ]
    if doc.k is not None:
        lines.append(f"k {doc.k}")
    for u, v in g.pairs():
        lines.append(f"edge {u} {v}")
    if doc.coloring is not None:
        for v, c in enumerate(doc.coloring):
            if c is not None:
                lines.append(f"color {v} {c}")
    if doc.order is not None:
        lines.append("order " + " ".join(str(v) for v in doc.order))
    return "\n".join(lines) + "\n"


def load_graph_file(path: str) -> GraphDocument:
    # utf-8-sig: a leading byte-order mark, as some editors write, is dropped
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_graph_text(fh.read())


def save_graph_file(doc: GraphDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph_text(doc))
