"""Legality predicates, move legality, and outcome shortcuts."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloring_games import graphs, rulesets
from coloring_games.games import Position, grundy, legal_moves
from coloring_games.graphs import build_family, make_graph, power_graph
from coloring_games.oriented_paths import SHORT_FILL_MAX
from coloring_games.rulesets import (
    BLUE,
    RED,
    OUTCOME_N,
    OUTCOME_P,
    OUTCOME_UNKNOWN,
    DistanceColoring,
    OrientedBlueRed,
    OrientedColoring,
    ProperColoring,
    RULESET_TOKENS,
    RulesetMismatchError,
    SequentialColoring,
    WeakColoring,
    check_compatible,
    closed_form_outcome,
    is_legal_coloring,
    move_rule,
    outcome_by_involution,
    translate_for_solving,
)
from reference import ref_legal
from strategies import colored_graphs, ruleset_for

TOKENS = ["proper", "oriented", "oriented-br", "weak", "distance", "sequential"]


# ---- traits ----------------------------------------------------------------

# token: (class name, needs_directed, fixed_k, color_symmetric, decomposition),
# written out in full so a changed default shows here
TRAITS = {
    "proper": ("ProperColoring", None, None, True, "live"),
    "oriented": ("OrientedColoring", True, None, True, None),
    "oriented-br": ("OrientedBlueRed", True, 2, False, "live"),
    "weak": ("WeakColoring", False, 2, True, "graph"),
    "distance": ("DistanceColoring", False, None, True, "live"),
    "sequential": ("SequentialColoring", False, None, True, None),
}


def test_every_token_keeps_its_traits():
    assert list(RULESET_TOKENS) == TOKENS
    for token, cls in RULESET_TOKENS.items():
        assert cls.token == token
        got = (cls.__name__, cls.needs_directed, cls.fixed_k, cls.color_symmetric,
               cls.decomposition)
        assert got == TRAITS[token], token


# ---- compatibility ----------------------------------------------------------

def test_check_compatible_errors():
    path = build_family("path", 3)
    dpath = build_family("directed_path", 3)
    with pytest.raises(RulesetMismatchError):
        check_compatible(ProperColoring(), path, 0)
    with pytest.raises(RulesetMismatchError):
        check_compatible(OrientedColoring(), path, 2)
    with pytest.raises(RulesetMismatchError):
        check_compatible(WeakColoring(), dpath, 2)
    with pytest.raises(RulesetMismatchError):
        check_compatible(OrientedBlueRed(), dpath, 3)
    with pytest.raises(ValueError, match="sequential needs a visit order"):
        SequentialColoring()
    with pytest.raises(RulesetMismatchError):
        check_compatible(SequentialColoring((0, 1)), path, 2)
    check_compatible(ProperColoring(), dpath, 1)  # direction tolerated
    check_compatible(SequentialColoring([2, 0, 1]), path, 2)
    assert SequentialColoring([2, 0, 1]) == SequentialColoring((2, 0, 1))


def test_distance_parameter_validation():
    with pytest.raises(ValueError):
        DistanceColoring(d=0)
    assert DistanceColoring().d == 2


def test_translate_for_solving():
    ruleset, g = translate_for_solving(DistanceColoring(d=2), build_family("path", 4))
    assert isinstance(ruleset, ProperColoring)
    assert g.has_edge(0, 2) and not g.has_edge(0, 3)
    r2, g2 = translate_for_solving(WeakColoring(), build_family("path", 4))
    assert isinstance(r2, WeakColoring) and g2.edges == build_family("path", 4).edges


# ---- whole-coloring legality: textual spot checks ------------------------------

def test_proper_legality():
    p = build_family("path", 3)
    assert is_legal_coloring(ProperColoring(), p, 2, (1, 2, 1))
    assert is_legal_coloring(ProperColoring(), p, 2, (1, None, 1))
    assert not is_legal_coloring(ProperColoring(), p, 2, (1, 1, None))
    assert not is_legal_coloring(ProperColoring(), p, 2, (None, 3, None))


def test_oriented_blue_red_legality():
    arc = make_graph(2, [(0, 1)], directed=True)
    ok = lambda col: is_legal_coloring(OrientedBlueRed(), arc, 2, col)
    assert ok((BLUE, RED)) and ok((BLUE, None)) and ok((RED, None)) and ok((None, BLUE))
    assert not ok((RED, BLUE)) and not ok((BLUE, BLUE)) and not ok((RED, RED))


def test_oriented_pair_rule_legality():
    two_arcs = make_graph(4, [(0, 1), (2, 3)], directed=True)
    ok = lambda col: is_legal_coloring(OrientedColoring(), two_arcs, 3, col)
    assert ok((1, 2, 1, 2))       # repeating the same ordered pair is fine
    assert not ok((1, 2, 2, 1))   # (1,2) and (2,1) reversed across arcs
    assert not ok((1, 1, None, None))
    assert ok((1, 2, 3, 1))
    arc = make_graph(2, [(0, 1)], directed=True)
    assert not is_legal_coloring(OrientedColoring(), arc, 3, (2, 2))


def test_weak_legality_needs_opposite_support():
    p3, p4 = build_family("path", 3), build_family("path", 4)
    assert not is_legal_coloring(WeakColoring(), p3, 2, (1, 1, 2))  # v0 unsupported
    assert not is_legal_coloring(WeakColoring(), p3, 2, (2, 1, 1))  # v2 unsupported
    assert is_legal_coloring(WeakColoring(), p4, 2, (2, 1, 1, 2))
    assert is_legal_coloring(WeakColoring(), p3, 2, (1, 2, 1))


def test_distance_legality():
    p4 = build_family("path", 4)
    assert not is_legal_coloring(DistanceColoring(d=2), p4, 2, (1, None, 1, None))
    assert is_legal_coloring(DistanceColoring(d=2), p4, 2, (1, None, None, 1))
    assert not is_legal_coloring(DistanceColoring(d=3), p4, 2, (1, None, None, 1))


def test_sequential_legality_tracks_order_prefix():
    p3 = build_family("path", 3)
    seq = SequentialColoring((2, 0, 1))
    assert is_legal_coloring(seq, p3, 2, (None, None, 1))
    assert is_legal_coloring(seq, p3, 2, (2, None, 1))
    assert not is_legal_coloring(seq, p3, 2, (1, None, None))  # skipped v2
    assert not is_legal_coloring(seq, p3, 2, (1, 1, 2))        # not proper


# ---- double entry against the reference predicates ------------------------------

@given(st.data(), st.sampled_from(TOKENS))
@settings(max_examples=80)
def test_legality_matches_reference(data, token):
    g, k, coloring, order = data.draw(colored_graphs(token))
    ruleset = ruleset_for(token, order)
    assert is_legal_coloring(ruleset, g, k, coloring)
    assert ref_legal(token, g, k, coloring, order)
    # mutate: paint one more vertex without any legality filter
    free = [v for v in range(g.n) if coloring[v] is None]
    if free:
        v = data.draw(st.sampled_from(free))
        c = data.draw(st.integers(1, k))
        mutated = list(coloring)
        mutated[v] = c
        assert is_legal_coloring(ruleset, g, k, mutated) == ref_legal(
            token, g, k, mutated, order
        )


@given(st.data(), st.sampled_from(TOKENS))
@settings(max_examples=80)
def test_move_ok_matches_full_recheck(data, token):
    g, k, coloring, order = data.draw(colored_graphs(token))
    game = ruleset_for(token, order)
    colors = [0 if c is None else c for c in coloring]
    painted = sum(1 for c in colors if c)
    if token == "sequential":
        verts = [order[painted]] if painted < g.n else []
    else:
        verts = [v for v in range(g.n) if colors[v] == 0]
    move_ok = move_rule(game, g, colors)
    if token == "distance":  # the search's form of the game: proper on G^d
        power = power_graph(g, game.d)
        proper_ok = move_rule(ProperColoring(), power, colors)
    for v in verts:
        for c in range(1, k + 1):
            after = list(coloring)
            after[v] = c
            legal = ref_legal(token, g, k, after, order)
            assert move_ok(g, colors, v, c) == legal, (g.edges, coloring, v, c)
            if token == "distance":
                assert proper_ok(power, colors, v, c) == legal, (g.edges, coloring, v, c)


def test_distance_rule_walks_each_ball_once(monkeypatch):
    # the bound rule walks a vertex's ball on its first color and reuses the
    # colors it found for the others; the moves are those of proper on G^2
    g = build_family("path", 6)
    expected = legal_moves(Position.start(power_graph(g, 2), 3, ProperColoring()))
    walks = []
    within = rulesets.within
    monkeypatch.setattr(rulesets, "within", lambda g, s, d: walks.append(s) or within(g, s, d))
    assert legal_moves(Position.start(g, 3, DistanceColoring(2))) == expected
    assert len(expected) == 18 and walks == list(range(6))


def _all_graphs(n, directed):
    """Every labelled graph on n vertices; digraphs have no antiparallel arcs."""
    pairs = list(itertools.combinations(range(n), 2))
    choices = [(None, (u, v), (v, u)) if directed else (None, (u, v)) for u, v in pairs]
    for pick in itertools.product(*choices):
        yield make_graph(n, [e for e in pick if e], directed=directed)


# k = 1..3 for proper and distance, so the palette 1..3 also meets colors out
# of range; the fixed k for blue-red and weak; sequential's color rule is
# proper's, so it runs at k = 2 and spends the time on every visit order
EXHAUSTIVE_KS = {"proper": (1, 2, 3), "distance": (1, 2, 3), "oriented": (3,),
                 "oriented-br": (2,), "weak": (2,), "sequential": (2,)}


@pytest.mark.parametrize("token", TOKENS)
def test_legality_exhaustive_against_reference(token):
    """is_legal_coloring and every move rule against ref_legal on every
    labelled graph with n <= 4 and every coloring in the palette. Each rule
    runs on the game's own graph; distance's is also checked in the form
    the search plays it, as proper on the power graph."""
    checked = moves = 0
    palette = (None, *range(1, max(EXHAUSTIVE_KS[token]) + 1))
    for n in range(5):
        orders = list(itertools.permutations(range(n))) if token == "sequential" else [None]
        cols = list(itertools.product(palette, repeat=n))
        for g in _all_graphs(n, token in ("oriented", "oriented-br")):
            power = power_graph(g, ruleset_for(token).d) if token == "distance" else None
            for k, order in itertools.product(EXHAUSTIVE_KS[token], orders):
                game = ruleset_for(token, order)
                ref = {col: ref_legal(token, g, k, col, order) for col in cols}
                for col, legal in ref.items():
                    checked += 1
                    assert is_legal_coloring(game, g, k, col) == legal, (
                        g.edges, col)
                    if not legal:
                        continue
                    colors = [0 if c is None else c for c in col]
                    painted = n - col.count(None)
                    if order is None:
                        verts = [v for v in range(n) if col[v] is None]
                    else:
                        verts = order[painted:painted + 1]
                    move_ok = move_rule(game, g, colors)
                    if power is not None:
                        proper_ok = move_rule(ProperColoring(), power, colors)
                    for v, c in itertools.product(verts, range(1, k + 1)):
                        after = list(col)
                        after[v] = c
                        moves += 1
                        want = ref[tuple(after)]
                        assert move_ok(g, colors, v, c) == want, (g.edges, col, v, c)
                        if power is not None:
                            assert proper_ok(power, colors, v, c) == want, (
                                g.edges, col, v, c)
    assert checked > 1_000 and moves > 1_000


# ---- involution shortcut ---------------------------------------------------------

def test_outcome_by_involution_spots():
    assert outcome_by_involution(build_family("grid", 3, 3), 5) == OUTCOME_N
    assert outcome_by_involution(build_family("grid", 2, 3), 2) == OUTCOME_P
    assert outcome_by_involution(build_family("grid", 2, 3), 3) == OUTCOME_UNKNOWN
    assert outcome_by_involution(build_family("path", 4), 2) == OUTCOME_P
    assert outcome_by_involution(build_family("path", 5), 7) == OUTCOME_N
    triangle = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert outcome_by_involution(triangle, 2) == OUTCOME_UNKNOWN
    # arc directions are irrelevant to the proper game
    assert outcome_by_involution(build_family("directed_path", 5), 2) == OUTCOME_N


def test_outcome_by_involution_budget_is_unknown():
    g = make_graph(30, [(i, i + 1) for i in range(29)])  # no family tag
    assert outcome_by_involution(g, 2) == OUTCOME_UNKNOWN


def test_outcome_by_involution_search_budget_is_unknown(monkeypatch):
    # under the exhaustive cap, a search cut short by its node budget is
    # "unknown": path:5 runs out in the single-fixed-point search (its
    # fixed-point-free one is settled by parity), path:4 in the
    # fixed-point-free one
    assert outcome_by_involution(build_family("path", 5), 2) == OUTCOME_N
    assert outcome_by_involution(build_family("path", 4), 2) == OUTCOME_P
    monkeypatch.setattr(graphs, "NODE_BUDGET", 0)
    assert outcome_by_involution(build_family("path", 5), 2) == OUTCOME_UNKNOWN
    assert outcome_by_involution(build_family("path", 4), 2) == OUTCOME_UNKNOWN


def test_outcome_by_involution_on_the_empty_graph():
    # the empty graph's fixed-point-free mapping is (): falsy, but found
    assert outcome_by_involution(make_graph(0, []), 2) == OUTCOME_P
    assert outcome_by_involution(make_graph(0, []), 3) == OUTCOME_UNKNOWN


def test_engine_paths_build_no_edge_set():
    # the oriented rule and the pairing shortcut read the rows, not the
    # uncharged frozenset Graph.edges
    g = build_family("directed_cycle", 10)
    assert grundy(Position.start(g, 3, OrientedColoring())) == 0
    assert "edges" not in g.__dict__
    # test_cli checks an oriented start on directed_path:200000 with its memory
    for n, want in ((5, OUTCOME_N), (31, OUTCOME_UNKNOWN)):
        g = make_graph(n, [(i, i + 1) for i in range(n - 1)], directed=True)
        assert outcome_by_involution(g, 2) == want
        assert "edges" not in g.__dict__
    # above the search's cap nothing is built, not even the neighbour views
    assert "adj" not in g.__dict__
    # outside callers still get the edge set
    assert g.edges == frozenset((i, i + 1) for i in range(30))


def _named_families(max_n):
    """Every named family instance with at most max_n vertices; grids take
    2 to 4 sides of length >= 2, in every order, since the order changes
    the vertex numbering the pairing search walks."""
    out = [build_family(name, n) for name in ("path", "directed_path")
           for n in range(1, max_n + 1)]
    out += [build_family("cycle", n) for n in range(3, max_n + 1)]
    out += [build_family("directed_cycle", n) for n in range(2, max_n + 1)]
    out += [build_family("hypercube", d) for d in range(1, max_n.bit_length())]
    out += [build_family("complete_binary_tree", d)
            for d in range(1, (max_n + 1).bit_length() - 1)]
    for m in (2, 3, 4):
        for dims in itertools.product(range(2, max_n // 2 + 1), repeat=m):
            if math.prod(dims) <= max_n:
                out.append(build_family("grid", *dims))
    return out


def test_closed_forms_cover_every_pairing_answer():
    # the named families have no pairing shortcut of their own: wherever the
    # exhaustive pairing search answers on one, the closed form must already
    # give that outcome
    answered = 0
    for g in _named_families(24):
        assert g.n <= 24
        for k in (1, 2, 3):
            got = outcome_by_involution(g, k)
            if got != OUTCOME_UNKNOWN:
                answered += 1
                assert closed_form_outcome(ProperColoring(), k, g)[0] == got, (g.family, k)
    assert answered >= 200


# ---- closed forms ----------------------------------------------------------------

def test_closed_form_spots():
    assert closed_form_outcome(ProperColoring(), 4, build_family("path", 7)) == (OUTCOME_N, 1)
    assert closed_form_outcome(ProperColoring(), 1, build_family("path", 7)) == (OUTCOME_N, None)
    assert closed_form_outcome(ProperColoring(), 2, build_family("path", 6)) == (OUTCOME_P, 0)
    assert closed_form_outcome(ProperColoring(), 3, build_family("path", 6)) == (OUTCOME_UNKNOWN, None)
    assert closed_form_outcome(ProperColoring(), 2, build_family("cycle", 8)) == (OUTCOME_P, 0)
    assert closed_form_outcome(ProperColoring(), 9, build_family("grid", 3, 3))[0] == OUTCOME_N
    assert closed_form_outcome(ProperColoring(), 2, build_family("grid", 2, 4)) == (OUTCOME_P, 0)
    assert closed_form_outcome(ProperColoring(), 2, build_family("hypercube", 3)) == (OUTCOME_P, 0)
    assert closed_form_outcome(ProperColoring(), 3, build_family("complete_binary_tree", 2))[0] == OUTCOME_N
    assert closed_form_outcome(WeakColoring(), 2, build_family("path", 5))[0] == OUTCOME_N
    assert closed_form_outcome(WeakColoring(), 2, build_family("cycle", 7)) == (OUTCOME_N, 1)
    assert closed_form_outcome(DistanceColoring(d=2), 2, build_family("path", 3)) == (OUTCOME_P, 0)
    assert closed_form_outcome(DistanceColoring(d=2), 2, build_family("path", 5))[0] == OUTCOME_N
    assert closed_form_outcome(DistanceColoring(d=2), 2, build_family("path", 19)) == (OUTCOME_P, 0)
    assert closed_form_outcome(DistanceColoring(d=2), 2, build_family("path", 21)) == (OUTCOME_N, None)
    assert closed_form_outcome(OrientedBlueRed(), 2, build_family("directed_cycle", 9)) == (OUTCOME_P, 0)
    assert closed_form_outcome(OrientedBlueRed(), 2, build_family("directed_cycle", 3)) == (OUTCOME_UNKNOWN, None)
    # an uncolored directed path is class D, answered from the table at any
    # length: 9729 is above the stdlib fill's bound, where numpy's kernel fills
    assert closed_form_outcome(OrientedBlueRed(), 2, build_family("directed_path", 3)) == (OUTCOME_P, 0)
    assert closed_form_outcome(OrientedBlueRed(), 2, build_family("directed_path", 40)) == (OUTCOME_N, 3)
    assert SHORT_FILL_MAX < 9729
    assert closed_form_outcome(OrientedBlueRed(), 2, build_family(
        "directed_path", 9729)) == (OUTCOME_N, 262)
    untagged = make_graph(3, [(0, 1)])
    assert closed_form_outcome(ProperColoring(), 2, untagged) == (OUTCOME_UNKNOWN, None)
    # sequential: the linear path decision holds for k=2 only; on this order
    # the k=1 and k=3 games are first-player wins although k=2 is P
    seq = SequentialColoring((0, 1, 2, 4, 3))
    path = build_family("path", 5)
    assert closed_form_outcome(seq, 2, path) == (OUTCOME_P, None)
    for k in (1, 3):
        assert closed_form_outcome(seq, k, path) == (OUTCOME_UNKNOWN, None)
        assert grundy(Position.start(path, k, seq)) != 0
    cycle = build_family("cycle", 5)
    assert closed_form_outcome(seq, 2, cycle) == (OUTCOME_UNKNOWN, None)


def test_closed_forms_agree_with_search():
    """Every claimed closed form must match the solver on small instances."""
    cases = []
    for n in range(1, 9):
        for k in (1, 2, 3):
            cases.append((ProperColoring(), k, build_family("path", n)))
    for n in range(3, 8):
        cases.append((ProperColoring(), 2, build_family("cycle", n)))
    cases += [
        (ProperColoring(), 2, build_family("grid", 2, 3)),
        (ProperColoring(), 2, build_family("grid", 3, 3)),
        (ProperColoring(), 2, build_family("grid", 2, 2)),
        (ProperColoring(), 2, build_family("hypercube", 3)),
        (ProperColoring(), 2, build_family("complete_binary_tree", 2)),
        (ProperColoring(), 3, build_family("complete_binary_tree", 1)),
    ]
    for n in range(1, 8):
        cases.append((WeakColoring(), 2, build_family("path", n)))
    for n in range(3, 8):
        cases.append((WeakColoring(), 2, build_family("cycle", n)))
    for n in range(2, 10):
        cases.append((DistanceColoring(d=2), 2, build_family("path", n)))
    for n in (4, 6, 8):
        cases.append((DistanceColoring(d=2), 2, build_family("cycle", n)))
    for n in (4, 5, 6, 7):
        cases.append((OrientedBlueRed(), 2, build_family("directed_cycle", n)))
    for n in range(1, 11):
        cases.append((OrientedBlueRed(), 2, build_family("directed_path", n)))
    # the proper rule ignores arc directions, so directed families take the
    # closed forms of their undirected shapes
    for k in (1, 2, 3):
        for n in range(1, 9):
            cases.append((ProperColoring(), k, build_family("directed_path", n)))
        for n in range(2, 8):
            cases.append((ProperColoring(), k, build_family("directed_cycle", n)))

    checked = 0
    for ruleset, k, g in cases:
        claim, value = closed_form_outcome(ruleset, k, g)
        if claim == OUTCOME_UNKNOWN:
            continue
        got = grundy(Position.start(g, k, ruleset))
        assert (OUTCOME_N if got else OUTCOME_P) == claim, (ruleset.token, k, g.family)
        if value is not None:
            assert got == value, (ruleset.token, k, g.family)
        checked += 1
    assert checked >= 86
