"""Graph model, families, power graphs, involutions, and the text format."""

import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloring_games.base import TT_BYTES_ENV, MemoryBudgetExceeded
from coloring_games.graphs import (
    FIXED_POINT_FREE,
    SINGLE_FIXED_POINT,
    Graph,
    GraphDocument,
    GraphFormatError,
    InvolutionSearchBudget,
    UnknownFamilyError,
    build_family,
    find_involution,
    format_graph_text,
    is_automorphism,
    make_graph,
    parse_family_spec,
    parse_graph_text,
    power_graph,
)
from reference import RefGraph, bfs_dist
from strategies import graphs


# ---- model -----------------------------------------------------------------

def test_make_graph_normalizes_and_dedups():
    g = make_graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == frozenset({(0, 2), (1, 2)})
    assert g.adj == ((2,), (2,), (0, 1))
    assert g.degree(2) == 2 and g.degree(0) == 1
    assert g.has_edge(2, 0) and not g.has_edge(0, 1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 5)])


def test_directed_adjacency_split():
    g = make_graph(3, [(0, 1), (2, 1)], directed=True)
    assert g.out_adj == ((1,), (), (1,))
    assert g.in_adj == ((), (0, 2), ())
    assert g.adj == ((1,), (0, 2), (1,))
    assert g.has_edge(0, 1) and not g.has_edge(1, 0)


@st.composite
def edge_lists(draw, max_n: int = 7):
    """n, directedness and an edge list with repeats, reversed pairs,
    digraph 2-cycles and isolated vertices; sometimes sorted."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    directed = draw(st.booleans())
    pairs = []
    if n >= 2:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]
        )
        pairs = draw(st.lists(pair, max_size=3 * n))
        if draw(st.booleans()):
            pairs.sort()
    return n, directed, pairs


@settings(max_examples=300)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_graph_contract_against_frozenset_model(case, rnd):
    n, directed, pairs = case
    g = make_graph(n, pairs, directed=directed)
    ref = RefGraph(n, directed, pairs)
    assert (g.n, g.directed, g.edges) == (ref.n, ref.directed, ref.edges)
    assert g.adj == ref.adj()
    assert g.out_adj == ref.out_adj()
    assert g.in_adj == ref.in_adj()
    assert [g.degree(v) for v in range(n)] == [len(a) for a in ref.adj()]
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == ref.has_edge(u, v), (u, v)

    # the same edge set in another order, with undirected pairs turned
    # around at random, gives an equal graph with an equal hash, through
    # either constructor
    again = list(pairs)
    rnd.shuffle(again)
    if not directed:
        again = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in again]
    for h in (make_graph(n, again, directed=directed), Graph(n, directed, again)):
        assert h == g and hash(h) == hash(g)

    # dropping an edge, or flipping the kind of graph, breaks equality
    if ref.edges:
        fewer = sorted(ref.edges)[1:]
        assert make_graph(n, fewer, directed=directed) != g
    assert make_graph(n, ref.edges, directed=not directed) != g


@settings(max_examples=100)
@given(edge_lists())
def test_pairs_stream_the_edge_set_in_order(case):
    n, directed, pairs = case
    g = make_graph(n, pairs, directed=directed)
    assert list(g.pairs()) == sorted(RefGraph(n, directed, pairs).edges)
    assert "edges" not in g.__dict__


def test_undirected_graphs_keep_one_neighbour_view():
    # an undirected edge is an arc both ways
    for g in (build_family("path", 5), build_family("grid", 2, 3), make_graph(0, [])):
        assert g.out_adj is g.adj and g.in_adj is g.adj
    d = build_family("directed_path", 3)
    assert d.out_adj == ((1,), (2,), ()) and d.in_adj == ((), (0,), (1,))


def test_graph_rejects_huge_and_negative_endpoints():
    for bad in [(0, 2**70), (-1, 0), (0, -(2**70))]:
        with pytest.raises(ValueError, match="out of range"):
            make_graph(2, [bad])
    with pytest.raises(ValueError, match="nonnegative"):
        make_graph(-1, [])
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_graph_text(f"graph undirected\nvertices 2\nedge 0 {2**70}\n")


def test_graph_is_immutable():
    g = build_family("path", 3)
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        del g.targets


# ---- families ----------------------------------------------------------------

def test_path_cycle_shapes():
    p = build_family("path", 5)
    assert p.n == 5 and len(p.edges) == 4 and not p.directed
    assert p.family == ("path", (5,))
    c = build_family("cycle", 6)
    assert c.n == 6 and len(c.edges) == 6
    assert all(c.degree(v) == 2 for v in range(6))
    with pytest.raises(ValueError):
        build_family("cycle", 2)


def test_grid_matches_coordinate_oracle():
    g = build_family("grid", 3, 4)
    assert g.n == 12
    coords = list(itertools.product(range(3), range(4)))
    expect = sum(
        1
        for a, b in itertools.combinations(coords, 2)
        if abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
    )
    assert len(g.edges) == expect == 17
    # index layout is row-major over itertools.product
    assert g.has_edge(0, 1) and g.has_edge(0, 4) and not g.has_edge(0, 5)


def test_hypercube_matches_bit_oracle():
    g = build_family("hypercube", 3)
    assert g.n == 8 and len(g.edges) == 12
    for u in range(8):
        for v in range(u + 1, 8):
            assert g.has_edge(u, v) == (bin(u ^ v).count("1") == 1)


def test_complete_binary_tree_heap_shape():
    g = build_family("complete_binary_tree", 2)
    assert g.n == 7 and len(g.edges) == 6
    for v in range(1, 7):
        assert g.has_edge((v - 1) // 2, v)
    assert g.degree(0) == 2 and g.degree(6) == 1


def test_directed_families():
    p = build_family("directed_path", 4)
    assert p.directed and p.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    c = build_family("directed_cycle", 2)
    assert c.edges == frozenset({(0, 1), (1, 0)})


def test_family_errors():
    with pytest.raises(UnknownFamilyError):
        build_family("petersen", 1)
    with pytest.raises(ValueError):
        build_family("path")
    with pytest.raises(ValueError):
        build_family("path", 0)


def test_parse_family_spec():
    assert parse_family_spec("path:7").family == ("path", (7,))
    assert parse_family_spec("grid:3,4").family == ("grid", (3, 4))
    assert parse_family_spec("dpath:5").family == ("directed_path", (5,))
    assert parse_family_spec("dcycle:5").family == ("directed_cycle", (5,))
    with pytest.raises(UnknownFamilyError):
        parse_family_spec("path")
    with pytest.raises(UnknownFamilyError):
        parse_family_spec("path:x")


# ---- distances and powers -----------------------------------------------------

def test_power_graph_of_path():
    g = power_graph(build_family("path", 5), 2)
    assert g.edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)}
    )
    with pytest.raises(ValueError):
        power_graph(g, 0)


def test_power_graph_saturates_at_diameter():
    g = build_family("cycle", 5)
    full = power_graph(g, 4)
    assert len(full.edges) == 10  # complete on 5 vertices


@given(graphs(max_n=7), st.integers(min_value=1, max_value=3))
def test_power_graph_against_distance_oracle(g, d):
    pg = power_graph(g, d)
    for u in range(g.n):
        dist = bfs_dist(g, u)
        for v in range(u + 1, g.n):
            assert pg.has_edge(u, v) == (0 < dist[v] <= d)


@given(graphs(max_n=7))
def test_power_one_is_identity_and_powers_compose(g):
    assert power_graph(g, 1).edges == g.edges
    assert power_graph(power_graph(g, 2), 2).edges == power_graph(g, 4).edges


def test_power_graph_refused_before_its_rows_are_built(monkeypatch):
    """The 8th power of path:20000 has about 160,000 edges; under a 1 MB
    budget it is refused from its endpoint buffer, without a set of pairs."""
    g = build_family("path", 20000)
    g.adj  # the source's rows are not the power graph's cost
    monkeypatch.setenv(TT_BYTES_ENV, str(1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceeded):
            power_graph(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


@pytest.mark.parametrize("spec", [("path", 20000), ("directed_path", 20000),
                                  ("grid", 100, 200), ("hypercube", 12)],
                         ids=lambda spec: spec[0])
def test_adjacency_tuples_are_charged_before_they_are_built(spec, monkeypatch):
    g = build_family(*spec)
    rows = 8 * (g.n + 1 + len(g.targets))
    gc.collect()  # a full collection empties the free lists, which tracemalloc does not see
    tracemalloc.start()
    try:
        for view in ("out_adj", "in_adj", "adj"):
            getattr(g, view)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    charged = g._bytes - rows
    assert 0.9 * traced <= charged <= 1.1 * traced, (charged, traced)
    # the budget the graph's own check needs admits the graph, not its tuples
    monkeypatch.setenv(TT_BYTES_ENV, str(8 * ((1 + g.directed) * (g.n + 1) + 4 * len(g.edges))))
    fresh = build_family(*spec)
    for view in ("out_adj", "in_adj", "adj"):
        with pytest.raises(MemoryBudgetExceeded, match="adjacency view"):
            getattr(fresh, view)
    assert fresh.has_edge(0, 1) and fresh == g


# ---- involutions ---------------------------------------------------------------

def _oracle_involutions(g, mode):
    """Every involutive automorphism with the required fixed-point shape."""
    out = []
    for perm in itertools.permutations(range(g.n)):
        if any(perm[perm[v]] != v for v in range(g.n)):
            continue
        if not is_automorphism(g, perm):
            continue
        fixed = [v for v in range(g.n) if perm[v] == v]
        if mode == FIXED_POINT_FREE and fixed:
            continue
        if mode == SINGLE_FIXED_POINT:
            if len(fixed) != 1:
                continue
            if any(perm[v] != v and g.has_edge(v, perm[v]) for v in range(g.n)):
                continue
        out.append(perm)
    return out


def test_is_automorphism():
    p = build_family("path", 4)
    assert is_automorphism(p, (3, 2, 1, 0))
    assert not is_automorphism(p, (1, 0, 2, 3))
    assert not is_automorphism(p, (0, 0, 1, 2))
    d = build_family("directed_path", 3)
    assert not is_automorphism(d, (2, 1, 0))  # reversal flips arc direction


def test_family_involutions_found_fast():
    cases = [
        (build_family("path", 9), SINGLE_FIXED_POINT),
        (build_family("path", 8), FIXED_POINT_FREE),
        (build_family("cycle", 8), FIXED_POINT_FREE),
        (build_family("grid", 3, 3), SINGLE_FIXED_POINT),
        (build_family("grid", 2, 3), FIXED_POINT_FREE),
        (build_family("hypercube", 4), FIXED_POINT_FREE),
        (build_family("complete_binary_tree", 3), SINGLE_FIXED_POINT),
    ]
    for g, mode in cases:
        inv = find_involution(g, mode)
        assert inv is not None, (g.family, mode)
        assert is_automorphism(g, inv)
        want = 1 if mode == SINGLE_FIXED_POINT else 0
        assert sum(u == v for v, u in enumerate(inv)) == want


def test_find_involution_returns_the_mapping():
    empty = make_graph(0, [])
    assert find_involution(empty, FIXED_POINT_FREE) == ()
    assert find_involution(empty, SINGLE_FIXED_POINT) is None
    assert find_involution(build_family("path", 4), FIXED_POINT_FREE) == (3, 2, 1, 0)
    assert find_involution(build_family("path", 5), SINGLE_FIXED_POINT) == (4, 3, 2, 1, 0)


def test_directed_graphs_keep_arc_directions():
    # a directed path's only automorphism is the identity, so no involution
    # with few fixed points exists even though the undirected shadow has one
    g = build_family("directed_path", 7)
    assert find_involution(g, SINGLE_FIXED_POINT) is None
    from coloring_games.graphs import underlying_graph

    u = underlying_graph(g)
    assert not u.directed
    assert find_involution(u, SINGLE_FIXED_POINT) is not None


def test_single_fixed_point_rejects_adjacent_pairs():
    # triangle: every involution swaps an adjacent pair
    g = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert find_involution(g, SINGLE_FIXED_POINT) is None
    assert _oracle_involutions(g, SINGLE_FIXED_POINT) == []


def test_parity_shortcut():
    # fixed-point count parity must match n, so these are settled instantly
    assert find_involution(build_family("path", 4), SINGLE_FIXED_POINT) is None
    assert find_involution(build_family("path", 5), FIXED_POINT_FREE) is None


def test_involution_none_is_a_proof_on_asymmetric_graph():
    # n=6 tree with all-distinct degree multiset breaking every pairing
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    assert find_involution(g, FIXED_POINT_FREE) is None
    assert _oracle_involutions(g, FIXED_POINT_FREE) == []


def test_involution_budget_raises_beyond_cap():
    # above the exhaustive cap the search refuses rather than guesses, and a
    # family tag does not change that
    for g in (make_graph(30, [(i, i + 1) for i in range(29)]), build_family("path", 30)):
        with pytest.raises(InvolutionSearchBudget):
            find_involution(g, FIXED_POINT_FREE)


def test_involution_unknown_mode_rejected():
    with pytest.raises(ValueError):
        find_involution(build_family("path", 3), "two-fixed-points")


@given(graphs(max_n=6), st.sampled_from([SINGLE_FIXED_POINT, FIXED_POINT_FREE]))
@settings(max_examples=60)
def test_involution_search_matches_exhaustive_oracle(g, mode):
    found = find_involution(g, mode)
    oracle = _oracle_involutions(g, mode)
    if found is None:
        assert oracle == []
    else:
        assert found in oracle


# ---- text format -----------------------------------------------------------------

SAMPLE = """\
# a directed square with one painted vertex
graph directed
vertices 4
k 2
edge 0 1
edge 1 2   # trailing comment
edge 2 3
edge 3 0
color 1 2
"""


def test_parse_graph_text_sample():
    doc = parse_graph_text(SAMPLE)
    assert doc.graph.directed and doc.graph.n == 4
    assert doc.k == 2
    assert doc.coloring == (None, 2, None, None)
    assert doc.order is None


def test_format_round_trip_is_canonical():
    doc = parse_graph_text(SAMPLE)
    text = format_graph_text(doc)
    assert parse_graph_text(text) == doc
    assert format_graph_text(parse_graph_text(text)) == text


def test_order_line_round_trip():
    doc = GraphDocument(
        graph=build_family("path", 3), k=2, coloring=None, order=(2, 0, 1)
    )
    assert parse_graph_text(format_graph_text(doc)).order == (2, 0, 1)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("vertices 3\n", "missing 'graph"),
        ("graph undirected\n", "missing 'vertices"),
        ("graph sideways\nvertices 1\n", "graph directed"),
        ("graph undirected\nvertices 2\nedge 0 2\n", "out of range"),
        ("graph undirected\nvertices 2\nedge 0 0\n", "self-loop"),
        ("graph undirected\nvertices 2\nwidth 3\n", "unknown directive"),
        ("graph undirected\nvertices 2\ncolor 0 1\ncolor 0 2\n", "duplicate color"),
        ("graph undirected\nvertices 2\ncolor 0 0\n", "1-based"),
        ("graph undirected\nvertices 2\ncolor 5 1\n", "out of range"),
        ("graph undirected\nvertices 2\nk 1\ncolor 0 2\n", "exceeds declared k"),
        ("graph undirected\nvertices 3\norder 0 1\n", "every vertex"),
        ("graph undirected\nvertices 2\ngraph directed\nvertices 2\n", "duplicate"),
    ],
)
def test_parse_errors(text, msg):
    with pytest.raises(GraphFormatError, match=msg):
        parse_graph_text(text)


def test_document_validation():
    g = build_family("path", 3)
    with pytest.raises(ValueError):
        GraphDocument(graph=g, coloring=(1, None))
    with pytest.raises(ValueError):
        GraphDocument(graph=g, k=2, coloring=(3, None, None))
    with pytest.raises(ValueError):
        GraphDocument(graph=g, order=(0, 1))


@given(graphs(max_n=6, directed=False), st.booleans())
def test_round_trip_random_documents(g, with_colors):
    coloring = None
    if with_colors and g.n:
        coloring = tuple(3 if v == 0 else None for v in range(g.n))
    doc = GraphDocument(graph=g, k=3 if with_colors else None, coloring=coloring)
    again = parse_graph_text(format_graph_text(doc))
    assert again.graph.edges == g.edges and again.graph.n == g.n
    assert again.coloring == doc.coloring and again.k == doc.k
