"""Forced-order path game: the elimination decision against play-out oracles."""

import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloring_games import games, sequential as sq
from coloring_games.graphs import build_family, make_graph
from coloring_games.rulesets import SequentialColoring


def test_classification_examples():
    p3 = build_family("path", 3)
    assert sq.classify(p3, (1, 0, 2)) == {
        0: sq.CONSTRAINED, 1: sq.SOURCE, 2: sq.CONSTRAINED}
    assert sq.classify(p3, (0, 2, 1)) == {0: sq.SOURCE, 1: sq.CLOSED, 2: sq.SOURCE}
    assert sq.classify(build_family("path", 1), (0,)) == {0: sq.SOURCE}


def test_endpoints_are_never_closed():
    rng = random.Random(3)
    for n in range(2, 12):
        g = build_family("path", n)
        for _ in range(40):
            labels = sq.classify(g, tuple(rng.sample(range(n), n)))
            assert labels[0] != sq.CLOSED and labels[n - 1] != sq.CLOSED


def test_decision_examples():
    p3 = build_family("path", 3)
    assert sq.decide_outcome(p3, (0, 2, 1)) == "P"
    assert sq.decide_outcome(p3, (1, 0, 2)) == "N"
    assert sq.decide_outcome(build_family("path", 1), (0,)) == "N"
    p2 = build_family("path", 2)
    assert {sq.decide_outcome(p2, o) for o in permutations(range(2))} == {"P"}
    assert sq.brute_force_outcome(build_family("path", 4), (0, 1, 2, 3)) == "P"


def test_exhaustive_oracle_equivalence_small():
    for n in range(1, 8):
        g = build_family("path", n)
        for o in permutations(range(n)):
            assert sq.decide_outcome(g, o) == sq.brute_force_outcome(g, o), (n, o)


def test_random_oracle_equivalence_medium():
    rng = random.Random(11)
    for n in range(9, 15):
        g = build_family("path", n)
        for _ in range(300):
            o = tuple(rng.sample(range(n), n))
            assert sq.decide_outcome(g, o) == sq.brute_force_outcome(g, o), (n, o)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_engine_agreement(n, rng):
    g = build_family("path", n)
    o = tuple(rng.sample(range(n), n))
    pos = games.Position.start(g, 2, SequentialColoring(o))
    assert games.outcome(pos) == sq.decide_outcome(g, o)


def test_decide_path_matches_graph_form():
    rng = random.Random(5)
    for n in (1, 2, 3, 9, 23, 60):
        g = build_family("path", n)
        for _ in range(25):
            o = tuple(rng.sample(range(n), n))
            assert sq.decide_path(o) == sq.decide_outcome(g, o)


def _playout_choice_counts(n, order):
    """Walk every play-out; yield (vertex, label, number of legal colors)."""
    g = build_family("path", n)
    labels = sq.classify(g, order)
    colors = [0] * n

    def rec(t):
        if t == n:
            return
        v = order[t]
        legal = [c for c in (1, 2)
                 if not (v > 0 and colors[v - 1] == c)
                 and not (v + 1 < n and colors[v + 1] == c)]
        yield v, labels[v], len(legal)
        for c in legal:
            colors[v] = c
            yield from rec(t + 1)
            colors[v] = 0

    yield from rec(0)


def test_only_closed_vertices_can_block():
    for n in range(1, 7):
        for o in permutations(range(n)):
            for v, label, count in _playout_choice_counts(n, o):
                if count == 0:
                    assert label == sq.CLOSED, (n, o, v)


def test_forced_and_free_color_counts():
    for n in range(1, 7):
        for o in permutations(range(n)):
            for v, label, count in _playout_choice_counts(n, o):
                if label == sq.SOURCE:
                    assert count == 2, (n, o, v)
                elif label == sq.CONSTRAINED:
                    assert count == 1, (n, o, v)


def test_outcome_only_depends_on_reduced_skeleton():
    # monotone orders have no closed vertices: outcome is pure parity
    for n in range(1, 12):
        g = build_family("path", n)
        up = tuple(range(n))
        assert sq.decide_outcome(g, up) == ("N" if n % 2 else "P")
        assert sq.decide_outcome(g, up[::-1]) == ("N" if n % 2 else "P")


def test_rejects_non_paths():
    with pytest.raises(ValueError):
        sq.decide_outcome(build_family("cycle", 5), tuple(range(5)))
    with pytest.raises(ValueError):
        sq.decide_outcome(build_family("directed_path", 4), tuple(range(4)))
    star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        sq.classify(star, (0, 1, 2, 3))
    two_bits = make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        sq.decide_outcome(two_bits, (0, 1, 2, 3))


@pytest.mark.parametrize("g, reason", [
    (make_graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),  # plus a cycle
     "graph is not a path"),
    (make_graph(4, [(0, 1), (1, 2)]), "graph is not a path"),  # plus an isolated vertex
    (make_graph(0, []), "^graph has no vertices$"),
], ids=["path+cycle", "path+isolated", "empty"])
def test_rejects_paths_with_extra_components(g, reason):
    with pytest.raises(ValueError, match=reason):
        sq.path_walk(g)
    with pytest.raises(ValueError, match=reason):
        sq.decide_outcome(g, tuple(range(g.n)))


def test_rejects_bad_orders():
    g = build_family("path", 4)
    with pytest.raises(ValueError):
        sq.decide_outcome(g, (0, 1, 2))
    with pytest.raises(ValueError):
        sq.decide_outcome(g, (0, 1, 2, 2))
    with pytest.raises(ValueError):
        sq.brute_force_outcome(g, (3, 3, 1, 0))


def test_oracle_size_cap():
    n = sq.ORACLE_CAP + 1
    with pytest.raises(ValueError):
        sq.brute_force_outcome(build_family("path", n), tuple(range(n)))


def test_scrambled_long_path_matches_decide_path():
    n = 2_000
    rng = random.Random(17)
    ids = rng.sample(range(n), n)  # path position -> vertex id
    g = make_graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])
    walk = list(sq.path_walk(g))
    assert walk in (ids, ids[::-1])
    for _ in range(20):
        o = tuple(rng.sample(range(n), n))  # paint order of path positions
        assert sq.decide_outcome(g, tuple(ids[i] for i in o)) == sq.decide_path(o)


def test_classify_reads_neighbour_turns():
    rng = random.Random(23)
    for n in (1, 2, 3, 4, 9, 40):
        ids = rng.sample(range(n), n)
        g = make_graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])
        for _ in range(20):
            o = tuple(rng.sample(range(n), n))
            turn = {v: t for t, v in enumerate(o)}
            labels = sq.classify(g, o)
            for i, v in enumerate(ids):
                nbr = [turn[ids[j]] for j in (i - 1, i + 1) if 0 <= j < n]
                if all(turn[v] < t for t in nbr):
                    expect = sq.SOURCE
                elif len(nbr) == 2 and all(turn[v] > t for t in nbr):
                    expect = sq.CLOSED
                else:
                    expect = sq.CONSTRAINED
                assert labels[v] == expect, (n, o, v)


def test_path_graph_memory_per_vertex():
    n = 200_000
    tracemalloc.start()
    try:
        g = build_family("path", n)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == n
    # CSR rows keep 8 B of offsets and 16 B of targets per vertex; a
    # frozenset of edge tuples kept about 160
    assert retained / n <= 40, retained / n
    assert peak / n <= 64, peak / n


def test_decide_outcome_memory_per_vertex():
    n = 200_000
    g = build_family("path", n)
    order = tuple(random.Random(4).sample(range(n), n))
    tracemalloc.start()
    try:
        sq.decide_outcome(g, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 64, peak / n  # flat arrays; dicts and lists took 337


def test_arbitrary_vertex_labels():
    # same path shape, scrambled ids: 2-4-0-3-1 in a line
    g = make_graph(5, [(2, 4), (4, 0), (0, 3), (3, 1)])
    ref = build_family("path", 5)
    relabel = {0: 2, 1: 4, 2: 0, 3: 3, 4: 1}  # path position -> id
    rng = random.Random(9)
    for _ in range(60):
        o = tuple(rng.sample(range(5), 5))
        mapped = tuple(relabel[v] for v in o)
        assert sq.decide_outcome(g, mapped) == sq.decide_outcome(ref, o)
        assert sq.brute_force_outcome(g, mapped) == sq.decide_outcome(g, mapped)