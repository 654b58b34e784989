"""Position model and solver, double-checked against the reference walker."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloring_games import games, rulesets
from coloring_games.base import TT_BYTES_ENV, MemoryBudgetExceeded
from coloring_games.games import (
    IllegalColoringError,
    IllegalMoveError,
    Move,
    Position,
    apply_move,
    best_move,
    clear_solver_cache,
    grundy,
    legal_moves,
    mex,
    nim_sum,
    outcome,
)
from coloring_games.graphs import build_family, make_graph
from coloring_games.rulesets import (
    RULESET_TOKENS,
    DistanceColoring,
    OrientedBlueRed,
    OrientedColoring,
    ProperColoring,
    SequentialColoring,
    WeakColoring,
)
from reference import RefGraph, kayles_grundy, kayles_moves, ref_grundy, ref_legal
from strategies import colored_graphs, graphs, ruleset_for

TOKENS = ["proper", "oriented", "oriented-br", "weak", "distance", "sequential"]


# ---- nimber arithmetic -------------------------------------------------------

def test_mex_examples():
    assert mex([]) == 0
    assert mex([0, 1, 2]) == 3
    assert mex([1, 2, 5]) == 0
    assert mex([0, 2, 2, 3]) == 1


def test_nim_sum_examples():
    assert nim_sum(0, 0) == 0
    assert nim_sum(24, 40) == 48
    assert nim_sum(1, 2, 4) == 7
    with pytest.raises(ValueError):
        nim_sum(1, -2)


@given(st.sets(st.integers(min_value=0, max_value=200)))
def test_mex_is_least_excluded(values):
    m = mex(values)
    assert m not in values
    assert all(i in values for i in range(m))


@given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
def test_nim_sum_is_xor(a, b):
    assert nim_sum(a, b) == a ^ b == nim_sum(b, a)
    assert nim_sum(a, a) == 0


# ---- position model ----------------------------------------------------------

def test_position_rejects_illegal_colorings():
    p3 = build_family("path", 3)
    with pytest.raises(IllegalColoringError):
        Position.start(p3, 2, ProperColoring(), coloring=(1, 1, None))
    with pytest.raises(IllegalColoringError):
        Position.start(p3, 2, ProperColoring(), coloring=(1, None))
    Position.start(p3, 2, ProperColoring(), coloring=(1, None, 1))


def test_legal_move_examples():
    p2 = Position.start(build_family("path", 2), 2, ProperColoring())
    assert legal_moves(p2) == [Move(0, 1), Move(0, 2), Move(1, 1), Move(1, 2)]

    # Red on the tail of an arc freezes the head completely
    arc = Position.start(
        build_family("directed_path", 2), 2, OrientedBlueRed(), coloring=(2, None)
    )
    assert legal_moves(arc) == []

    seq = Position.start(build_family("path", 3), 2, SequentialColoring((1, 0, 2)))
    assert {m.vertex for m in legal_moves(seq)} == {1}

    # the next vertex is the first uncolored one of the order
    later = Position.start(
        build_family("path", 3), 2, SequentialColoring((1, 0, 2)), coloring=(None, 1, None)
    )
    assert legal_moves(later) == [Move(0, 2)]


def test_apply_move_and_errors(monkeypatch):
    p = Position.start(build_family("path", 3), 2, ProperColoring())
    q = apply_move(p, Move(1, 2))
    assert q.coloring == (None, 2, None)
    with pytest.raises(IllegalMoveError):
        apply_move(q, Move(1, 1))       # already painted
    with pytest.raises(IllegalMoveError):
        apply_move(q, Move(0, 2))       # clashes with the painted neighbor
    with pytest.raises(IllegalMoveError):
        apply_move(q, Move(9, 1))
    # -1 is no vertex, not the last one; 0 and k+1 are outside 1..k
    for mv in (Move(-1, 1), Move(None, 1), Move(0, 0), Move(0, 3)):
        with pytest.raises(IllegalMoveError):
            apply_move(p, mv)
    seq = Position.start(build_family("path", 3), 2, SequentialColoring((1, 0, 2)))
    with pytest.raises(IllegalMoveError):
        apply_move(seq, Move(0, 1))     # legal color, but not the order's next vertex
    assert apply_move(seq, Move(1, 1)).coloring == (None, 1, None)

    # one move is checked alone: a million-color palette never lists n*k moves
    def refuse(position):
        raise AssertionError("legal_moves called")

    monkeypatch.setattr(games, "legal_moves", refuse)
    p = Position.start(build_family("path", 5), 10**6, ProperColoring())
    q = apply_move(p, Move(2, 10**6))
    assert q.coloring == (None, None, 10**6, None, None)
    with pytest.raises(IllegalMoveError):
        apply_move(q, Move(3, 10**6))
    assert apply_move(q, Move(3, 1)).coloring == (None, None, 10**6, 1, None)


@given(st.data(), st.sampled_from(TOKENS))
@settings(max_examples=60)
def test_apply_move_accepts_exactly_the_legal_moves(data, token):
    g, k, coloring, order = data.draw(colored_graphs(token, max_n=5))
    pos = Position.start(g, k, ruleset_for(token, order), coloring=coloring)
    legal = set(legal_moves(pos))
    for v in range(-1, g.n + 1):
        for c in range(0, k + 2):
            mv = Move(v, c)
            if mv in legal:
                assert apply_move(pos, mv) == games._play(pos, mv)
            else:
                with pytest.raises(IllegalMoveError):
                    apply_move(pos, mv)


def test_fully_painted_position_is_zero():
    p = Position.start(build_family("path", 2), 2, ProperColoring(), coloring=(1, 2))
    assert grundy(p) == 0 and outcome(p) == "P"


# ---- solver vs reference walker ------------------------------------------------

@given(st.data(), st.sampled_from(TOKENS))
@settings(max_examples=60)
def test_grundy_matches_reference(data, token):
    max_n = 5 if token in ("oriented", "sequential") else 6
    g, k, coloring, order = data.draw(colored_graphs(token, max_n=max_n))
    pos = Position.start(g, k, ruleset_for(token, order), coloring=coloring)
    assert grundy(pos) == ref_grundy(token, g, k, coloring, order), (
        g.edges,
        coloring,
        order,
    )


@given(st.data(), st.sampled_from(["proper", "oriented", "distance", "sequential"]))
@settings(max_examples=40)
def test_grundy_matches_reference_with_spare_colors(data, token):
    # k = 3 and 4 leave colors that no painted vertex uses, which a
    # color-symmetric search tries only once per move
    g, k, coloring, order = data.draw(colored_graphs(token, max_n=5, k_min=3, k_max=4))
    pos = Position.start(g, k, ruleset_for(token, order), coloring=coloring)
    assert grundy(pos) == ref_grundy(token, g, k, coloring, order), (
        g.edges, k, coloring, order)


def test_search_paints_seen_colors_and_the_lowest_unseen(monkeypatch):
    # on path:4 a part sees at most two colors, so however large k is the
    # search never paints a color above 3, and it finds the k=3 value
    asked = set()
    rule = ProperColoring.move_ok
    monkeypatch.setattr(ProperColoring, "move_ok",
                        lambda self, g, colors, v, c: asked.add(c) or rule(self, g, colors, v, c))
    g = build_family("path", 4)
    clear_solver_cache()
    try:
        wide = grundy(Position.start(g, 100_000, ProperColoring()))
        assert asked == {1, 2, 3}
        assert wide == grundy(Position.start(g, 3, ProperColoring()))
    finally:
        clear_solver_cache()


@given(graphs(max_n=8))
def test_one_color_game_is_node_kayles(g):
    pos = Position.start(g, 1, ProperColoring())
    assert {m.vertex for m in legal_moves(pos)} == set(kayles_moves(g, frozenset()))
    assert grundy(pos) == kayles_grundy(g)


# ---- disjoint sums ---------------------------------------------------------------

def _shift_union(g1, g2):
    edges = list(g1.edges) + [(u + g1.n, v + g1.n) for u, v in g2.edges]
    return make_graph(g1.n + g2.n, edges, directed=g1.directed)


@given(st.data(), st.sampled_from(["proper", "oriented-br", "weak", "distance"]))
@settings(max_examples=40)
def test_disjoint_sum_is_nim_sum(data, token):
    g1, k1, col1, _ = data.draw(colored_graphs(token, max_n=5))
    g2, k2, col2, _ = data.draw(colored_graphs(token, max_n=5))
    ruleset = RULESET_TOKENS[token]()
    k = max(k1, k2)  # a shared palette; enlarging k never breaks legality
    union = _shift_union(g1, g2)
    a = grundy(Position.start(g1, k, ruleset, coloring=col1))
    b = grundy(Position.start(g2, k, ruleset, coloring=col2))
    u = grundy(Position.start(union, k, ruleset, coloring=tuple(col1) + tuple(col2)))
    assert u == nim_sum(a, b)


def test_oriented_game_is_not_component_local():
    """Two painted arcs: parts have nim-sum 0 but the union is a first-player
    win, because a move in one part can forbid the reversed color pair in the
    other. This is why the solver never decomposes the pair-rule game."""
    arc = make_graph(2, [(0, 1)], directed=True)
    union = make_graph(4, [(0, 1), (2, 3)], directed=True)
    rs = OrientedColoring()
    a = grundy(Position.start(arc, 2, rs, coloring=(1, None)))
    b = grundy(Position.start(arc, 2, rs, coloring=(None, 1)))
    u = grundy(Position.start(union, 2, rs, coloring=(1, None, None, 1)))
    assert (a, b) == (1, 1)
    assert u == 1 != nim_sum(a, b)
    assert u == ref_grundy("oriented", union, 2, (1, None, None, 1))


def test_oriented_move_between_equal_colors_is_refused():
    """On 0 -> 1 -> 2 with both ends painted 1, vertex 1 painted c would make
    both (1, c) and (c, 1), so it has no legal color."""
    pos = Position.start(build_family("directed_path", 3), 3, OrientedColoring(),
                         coloring=(1, None, 1))
    assert all(m.vertex != 1 for m in legal_moves(pos))
    assert grundy(pos) == ref_grundy("oriented", pos.graph, 3, pos.coloring)


# ---- symmetry and determinism ------------------------------------------------------

@given(st.data(), st.sampled_from(["proper", "weak", "distance", "oriented"]))
@settings(max_examples=30)
def test_color_permutation_invariance(data, token):
    g, k, coloring, _ = data.draw(colored_graphs(token, max_n=5))
    ruleset = RULESET_TOKENS[token]()
    perm = data.draw(st.permutations(range(1, k + 1)))
    mapped = tuple(None if c is None else perm[c - 1] for c in coloring)
    a = grundy(Position.start(g, k, ruleset, coloring=coloring))
    b = grundy(Position.start(g, k, ruleset, coloring=mapped))
    assert a == b


def test_distance_one_equals_proper():
    for n in range(1, 7):
        g = build_family("path", n)
        assert grundy(Position.start(g, 2, DistanceColoring(d=1))) == grundy(
            Position.start(g, 2, ProperColoring())
        )


# ---- play helpers --------------------------------------------------------------

@given(st.data(), st.sampled_from(TOKENS))
@settings(max_examples=60)
def test_play_children_of_legal_moves_are_legal(data, token):
    # _play skips the whole-coloring check; every child it makes from a
    # move legal_moves offers must still satisfy the ruleset's definition
    g, k, coloring, order = data.draw(colored_graphs(token, max_n=5))
    pos = Position.start(g, k, ruleset_for(token, order), coloring=coloring)
    for mv in legal_moves(pos):
        child = games._play(pos, mv)
        want = list(coloring)
        want[mv.vertex] = mv.color
        assert child.coloring == tuple(want)
        assert (child.graph, child.k, child.ruleset) == (g, k, pos.ruleset)
        assert ref_legal(token, g, k, child.coloring, order), (g.edges, coloring, order, mv)


def test_best_move_wins_and_losses_return_none():
    n_pos = Position.start(build_family("path", 3), 2, ProperColoring())
    mv = best_move(n_pos)
    assert mv is not None
    assert grundy(apply_move(n_pos, mv)) == 0

    p_pos = Position.start(build_family("path", 4), 2, ProperColoring())
    assert grundy(p_pos) == 0 and best_move(p_pos) is None


def test_best_move_derives_moves_once_and_keeps_order(monkeypatch):
    # path 7, k=2: 14 legal moves, the first winning one is the 7th
    pos = Position.start(build_family("path", 7), 2, ProperColoring())
    expect = next(mv for mv in legal_moves(pos) if grundy(apply_move(pos, mv)) == 0)
    assert expect != legal_moves(pos)[0]
    calls = []
    real = games.legal_moves
    monkeypatch.setattr(games, "legal_moves", lambda p: calls.append(p) or real(p))
    assert best_move(pos) == expect
    assert calls == [pos]


# ---- memory budget ---------------------------------------------------------------

def test_transposition_budget_enforced(monkeypatch):
    clear_solver_cache()
    # built before the budget is set, which the graph alone would pass
    pos = Position.start(build_family("path", 41), 3, ProperColoring())
    monkeypatch.setenv(TT_BYTES_ENV, "600")
    try:
        with pytest.raises(MemoryBudgetExceeded):
            grundy(pos)
    finally:
        clear_solver_cache()


def test_budget_drops_other_tables_before_it_fires(monkeypatch):
    clear_solver_cache()
    monkeypatch.setenv(TT_BYTES_ENV, "750000")
    weak = WeakColoring()
    try:
        # 0.06 to 0.41 MB of table each, 1.16 MB together
        for fam, n in (("path", 8), ("path", 9), ("path", 10), ("cycle", 9), ("cycle", 10)):
            assert grundy(Position.start(build_family(fam, n), 2, weak)) == n % 2
        with pytest.raises(MemoryBudgetExceeded):  # about 1.02 MB in one table
            grundy(Position.start(build_family("path", 11), 2, weak))
        assert grundy(Position.start(build_family("path", 3), 2, ProperColoring())) == 1
    finally:
        clear_solver_cache()


def test_clear_solver_cache_releases_power_graphs():
    # the search plays a distance game on the cached power graph, which the
    # release must not outlive
    clear_solver_cache()
    grundy(Position.start(build_family("path", 7), 2, DistanceColoring(d=2)))
    assert rulesets._power.cache_info().currsize == 1
    clear_solver_cache()
    assert rulesets._power.cache_info().currsize == 0


@pytest.mark.parametrize("ruleset, k, graph", [
    (WeakColoring(), 2, ("cycle", 9)),
    (ProperColoring(), 3, ("grid", 2, 4)),
    (DistanceColoring(2), 2, ("path", 11)),
], ids=["weak cycle:9", "proper k=3 grid:2,4", "distance-2 path:11"])
def test_charged_bytes_match_table_memory(ruleset, k, graph):
    """The budget's per-entry charge is within 0.5-2x of what the table
    really holds (tracemalloc, after a collection empties the free lists);
    measured at 0.88-1.1x."""
    clear_solver_cache()
    pos = Position.start(build_family(*graph), k, ruleset)
    solver = games._solver_for(pos)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grundy(pos)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        clear_solver_cache()
    assert 0.5 * grown <= solver.bytes <= 2 * grown


# Grundy value and table size per solver path, recorded with the earlier
# tuple-keyed table: fewer entries would mean colliding keys, more would mean
# lost sharing between positions that should have one key.
@pytest.mark.parametrize("ruleset, k, graph, value, entries", [
    (ProperColoring(), 3, ("grid", 2, 4), 0, 349),
    (DistanceColoring(2), 2, ("path", 11), 0, 1419),
    (OrientedBlueRed(), 2, ("directed_path", 20), 6, 761),
    (WeakColoring(), 2, ("cycle", 9), 1, 1990),
    (OrientedColoring(), 3, ("directed_cycle", 7), 0, 358),
    (SequentialColoring((3, 0, 7, 5, 1, 6, 2, 4)), 2, ("path", 8), 0, 31),
], ids=["live proper", "live distance", "live oriented-br", "weak graph parts",
        "oriented no split", "sequential order"])
def test_table_keys_keep_values_and_entry_counts(ruleset, k, graph, value, entries):
    clear_solver_cache()
    pos = Position.start(build_family(*graph), k, ruleset)
    try:
        assert grundy(pos) == value
        assert len(games._solver_for(pos).table) == entries
    finally:
        clear_solver_cache()


@given(graphs(max_n=7))
def test_weak_root_parts_are_the_graph_components(g):
    solver = games._Solver(g, 2, WeakColoring())
    assert {frozenset(verts) for verts in solver.parts.values()} == RefGraph(
        g.n, g.directed, g.edges
    ).components()
    for (lo, rel), verts in solver.parts.items():
        assert verts == sorted(verts) and verts[0] == lo
        assert rel == sum(1 << (v - lo) for v in verts)


@pytest.mark.parametrize("coloring, value, entries", [
    ([None] * 10, 0, 33),
    ([1] + [None] * 9, 3, 29),
])
def test_weak_parts_with_interleaved_labels(coloring, value, entries):
    # four components whose vertices interleave: {0,3,6}, {1,4,7,8}, {2}, {5,9}
    g = make_graph(10, [(0, 3), (3, 6), (1, 4), (4, 7), (7, 8), (8, 1), (5, 9)])
    clear_solver_cache()
    pos = Position.start(g, 2, WeakColoring(), coloring=coloring)
    try:
        assert grundy(pos) == value == ref_grundy("weak", g, 2, coloring)
        assert len(games._solver_for(pos).table) == entries
    finally:
        clear_solver_cache()


def test_key_size_follows_the_part_not_the_graph():
    # the same ten free vertices, alone past one painted vertex and at the
    # end of a long painted path: same table, keys of about the same size
    per_entry = []
    for n in (12, 3000):
        clear_solver_cache()
        coloring = [1 + v % 2 for v in range(n - 10)] + [None] * 10
        pos = Position.start(build_family("path", n), 2, ProperColoring(), coloring=coloring)
        try:
            assert grundy(pos) == 10
            solver = games._solver_for(pos)
            assert len(solver.table) == 100
            per_entry.append(solver.bytes / len(solver.table))
        finally:
            clear_solver_cache()
    assert per_entry[1] <= per_entry[0] + 8


def test_many_small_parts_of_a_large_graph_stay_linear(monkeypatch):
    # every third vertex of a long path free: 5,000 one-vertex parts of value
    # 1 under a small budget. Each part's masks span the part, so the solve
    # peaks near 120 bytes per vertex; masks spanning the graph up to each
    # part would pass 16 MB here. The position, whose adjacency tuples the
    # budget would refuse, is built first: the budget is the solve's
    clear_solver_cache()
    n = 15000
    coloring = [None if v % 3 == 2 else 1 + v % 3 for v in range(n)]
    pos = Position.start(build_family("path", n), 3, ProperColoring(), coloring=coloring)
    monkeypatch.setenv(TT_BYTES_ENV, "1000000")
    tracemalloc.start()
    try:
        assert grundy(pos) == (n // 3) % 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_solver_cache()
    assert peak <= 200 * n


def test_budget_env_validation(monkeypatch):
    clear_solver_cache()
    monkeypatch.setenv(TT_BYTES_ENV, "lots")
    with pytest.raises(ValueError):
        grundy(Position.start(build_family("path", 3), 1, ProperColoring()))
    clear_solver_cache()
