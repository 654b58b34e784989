"""Kayles embedding gadgets and the lockstep equivalence verifier."""

import random

import pytest

from coloring_games import games, reductions as rd
from coloring_games.games import Position
from coloring_games.graphs import build_family, connected_graph_census, make_graph
from coloring_games.rulesets import ProperColoring
from reference import bfs_dist, connected_graph_census as reference_census


def kayles(g):
    return Position.start(g, 1, ProperColoring())


EDGE = make_graph(2, [(0, 1)])


def test_census_counts():
    assert [len(connected_graph_census(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]
    with pytest.raises(ValueError):
        connected_graph_census(7)
    with pytest.raises(ValueError):
        connected_graph_census(0)


@pytest.mark.parametrize("n", range(1, 7))
def test_census_matches_reference(n):
    # the same representatives, in the same order, as the plain enumeration
    assert [g.edges for g in connected_graph_census(n)] == [
        g.edges for g in reference_census(n)]


def test_census_members_are_connected_and_distinct():
    seen = set()
    for g in connected_graph_census(5):
        assert all(d >= 0 for d in bfs_dist(g, 0))
        assert g.edges not in seen
        seen.add(g.edges)


def test_proper_identity_when_one_color():
    g = build_family("path", 3)
    inst = rd.reduce_to_proper_k(g, 1)
    assert inst.position.graph == g
    assert inst.vertex_map == {0: 0, 1: 1, 2: 2}
    assert rd.verify_equivalence(kayles(g), inst).equivalent


def test_proper_gadget_shape():
    inst = rd.reduce_to_proper_k(EDGE, 3)
    pos = inst.position
    assert pos.graph.n == 6 and pos.painted_count == 4
    assert inst.vertex_map == {0: 0, 1: 3}
    # hubs accept exactly the one unburned color
    moves = games.legal_moves(pos)
    assert {m.vertex for m in moves} == {0, 3}
    assert {m.color for m in moves} == {3}
    assert games.grundy(pos) == games.grundy(kayles(EDGE)) == 1


def test_proper_size_is_linear():
    for n in (1, 3, 5):
        g = build_family("path", n)
        for k in (2, 4):
            assert rd.reduce_to_proper_k(g, k).position.graph.n == k * n


def test_oriented_gadget_shape():
    one = make_graph(1, [])
    inst = rd.reduce_to_oriented_k(one, 2)
    assert inst.position.graph.directed
    assert len(games.legal_moves(inst.position)) == 1  # hub forced to color 2

    inst = rd.reduce_to_oriented_k(EDGE, 2)
    mv = next(m for m in games.legal_moves(inst.position) if m.vertex == 0)
    after = games.apply_move(inst.position, mv)
    assert all(m.vertex != 2 for m in games.legal_moves(after))  # other hub blocked
    with pytest.raises(ValueError):
        rd.reduce_to_oriented_k(EDGE, 1)


def test_blue_red_gadget_shape():
    inst = rd.reduce_to_oriented_br(EDGE)
    assert inst.position.graph.n == 2 and len(inst.position.graph.edges) == 2
    for mv in games.legal_moves(inst.position):
        after = games.apply_move(inst.position, mv)
        other = 1 - mv.vertex
        assert all(m.vertex != other for m in games.legal_moves(after))


def test_blue_red_empty_graph_is_parity():
    for n in range(1, 6):
        inst = rd.reduce_to_oriented_br(make_graph(n, []))
        assert games.grundy(inst.position) == n % 2


def test_distance_gadget_shape():
    inst = rd.reduce_to_distance_2k(EDGE, 2)
    pos = inst.position
    assert pos.graph.n == 2 + 3  # one edge gadget
    moves = games.legal_moves(pos)
    assert {m.vertex for m in moves} == {0, 1}
    assert {m.color for m in moves} == {1}

    inst3 = rd.reduce_to_distance_2k(EDGE, 3)
    assert inst3.position.graph.n == 2 + 4
    assert {m.vertex for m in games.legal_moves(inst3.position)} == {0, 1}
    with pytest.raises(ValueError):
        rd.reduce_to_distance_2k(EDGE, 1)


def test_distance_size_formula():
    g = build_family("cycle", 4)
    for k in (2, 3, 5):
        inst = rd.reduce_to_distance_2k(g, k)
        assert inst.position.graph.n == g.n + (3 + k - 2) * len(g.edges)


def test_distance_handles_isolated_vertices():
    g = make_graph(4, [(0, 1)])  # vertices 2, 3 isolated
    inst = rd.reduce_to_distance_2k(g, 2)
    rep = rd.verify_equivalence(kayles(g), inst)
    assert rep.equivalent, rep


ALL_VARIANTS = [
    lambda g: rd.reduce_to_proper_k(g, 2),
    lambda g: rd.reduce_to_proper_k(g, 3),
    lambda g: rd.reduce_to_oriented_k(g, 2),
    lambda g: rd.reduce_to_oriented_k(g, 3),
    rd.reduce_to_oriented_br,
    lambda g: rd.reduce_to_distance_2k(g, 2),
    lambda g: rd.reduce_to_distance_2k(g, 3),
]


def test_equivalence_on_small_census():
    for n in range(1, 5):
        for g in connected_graph_census(n):
            orig = kayles(g)
            for make in ALL_VARIANTS:
                rep = make(g)
                result = rd.verify_equivalence(orig, rep)
                assert result.equivalent, (n, sorted(g.edges), result.reason)
                assert result.grundy_original == result.grundy_reduced
                assert result.pairs_checked >= 1


def test_equivalence_spot_n5():
    rng = random.Random(1)
    census = connected_graph_census(5)
    for g in rng.sample(census, 6):
        orig = kayles(g)
        for make in rng.sample(ALL_VARIANTS, 3):
            assert rd.verify_equivalence(orig, make(g)).equivalent


def test_corrupted_gadget_detected():
    inst = rd.reduce_to_proper_k(EDGE, 3)
    col = list(inst.position.coloring)
    col[2] = None  # unburn one color at vertex 0's hub
    bad = rd.ReducedInstance(
        Position.start(inst.position.graph, 3, ProperColoring(), coloring=col),
        inst.vertex_map,
    )
    rep = rd.verify_equivalence(kayles(EDGE), bad)
    assert not rep.equivalent and "grundy" in rep.reason


def test_unmapped_playable_vertex_detected():
    g = make_graph(2, [])
    bad = rd.ReducedInstance(Position.start(g, 1, ProperColoring()), {0: 0})
    rep = rd.verify_equivalence(kayles(g), bad)
    assert not rep.equivalent and "playable" in rep.reason


def test_move_set_mismatch_detected():
    orig = kayles(build_family("path", 4))  # grundy 0, four playable vertices
    red = rd.ReducedInstance(Position.start(make_graph(2, []), 1, ProperColoring()),
                             {0: 0, 1: 1})
    rep = rd.verify_equivalence(orig, red)
    assert not rep.equivalent and "move sets differ" in rep.reason


def test_reduced_instance_validation():
    with pytest.raises(ValueError):
        rd.ReducedInstance(Position.start(EDGE, 1, ProperColoring()), {0: 0, 1: 0})
    pos = Position.start(EDGE, 2, ProperColoring(), coloring=(1, None))
    with pytest.raises(ValueError):
        rd.ReducedInstance(pos, {0: 0, 1: 1})


def test_verifier_input_guards():
    big = build_family("path", rd.VERIFY_CAP + 1)
    with pytest.raises(ValueError):
        rd.verify_equivalence(kayles(big), rd.reduce_to_proper_k(big, 2))
    two_color = Position.start(EDGE, 2, ProperColoring())
    with pytest.raises(ValueError):
        rd.verify_equivalence(two_color, rd.reduce_to_proper_k(EDGE, 2))
    with pytest.raises(ValueError):
        rd.reduce_to_proper_k(build_family("directed_path", 3), 2)


def test_proper_reduction_preserves_planarity():
    nx = pytest.importorskip("networkx")
    for g in connected_graph_census(5):
        orig_nx = nx.Graph(list(g.edges))
        orig_nx.add_nodes_from(range(g.n))
        if not nx.check_planarity(orig_nx)[0]:
            continue
        red = rd.reduce_to_proper_k(g, 3).position.graph
        red_nx = nx.Graph(list(red.edges))
        red_nx.add_nodes_from(range(red.n))
        assert nx.check_planarity(red_nx)[0]


@pytest.mark.parametrize("reduce", [
    lambda g: rd.reduce_to_proper_k(g, 1),
    lambda g: rd.reduce_to_proper_k(g, 3),
    lambda g: rd.reduce_to_oriented_k(g, 3),
    rd.reduce_to_oriented_br,
    lambda g: rd.reduce_to_distance_2k(g, 3),
], ids=["proper-k1", "proper-k3", "oriented-k3", "oriented-br", "distance-k3"])
def test_reductions_build_no_edge_set(reduce):
    g = build_family("path", 6)
    inst = reduce(g)
    assert set(inst.vertex_map) == set(range(6))
    assert "edges" not in g.__dict__
