"""Acceptance gate: ten primary criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v`. Each test emits
`ACCEPTANCE <n> <name>: PASS|FAIL (<elapsed>s)`; conftest replays the
collected lines as a terminal summary section so they survive output
capture. Every criterion asserts its stated time budget. Lengths 15, 17 and
19 of the distance table are opt-in: `pytest -m extended`.
"""

import itertools
import random
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coloring_games import games, oriented_paths as op, reductions as rd
from coloring_games import sequential as seq
from coloring_games.games import Position, apply_move, legal_moves
from coloring_games.graphs import (
    build_family,
    connected_graph_census,
    make_graph,
    parse_family_spec,
)
from coloring_games.rulesets import (
    DistanceColoring,
    OrientedBlueRed,
    ProperColoring,
    WeakColoring,
    outcome_by_involution,
)

from reference import D_ZEROS, bfs_dist, naive_tables, scalar_tables

K_FULL = 10_000

VERDICT_LINES: list[str] = []


@contextmanager
def criterion(num, name, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(num, name, "FAIL", t0)
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        _report(num, name, "FAIL", t0)
        raise AssertionError(f"criterion {num} took {dt:.1f}s, budget {budget}s")
    _report(num, name, "PASS", t0)


def _report(num, name, verdict, t0):
    dt = time.perf_counter() - t0
    line = f"ACCEPTANCE {num:>2} {name}: {verdict} ({dt:.1f}s)"
    VERDICT_LINES.append(line)
    print(line, file=sys.stderr, flush=True)


@pytest.fixture(scope="module")
def table_full():
    return op.compute_tables(K_FULL)


def test_criterion_01_proper_closed_forms():
    with criterion(1, "proper closed forms", budget=60):
        for n in (3, 5, 7, 9, 11, 13):
            pos = Position.start(build_family("path", n), 2, ProperColoring())
            assert games.grundy(pos) == 1, f"odd path {n}"
        for n in (2, 4, 6, 8, 10, 12):
            pos = Position.start(build_family("path", n), 2, ProperColoring())
            assert games.grundy(pos) == 0, f"even path {n}"
        for n in range(3, 13):
            pos = Position.start(build_family("cycle", n), 2, ProperColoring())
            assert games.outcome(pos) == "P", f"cycle {n}"


def test_criterion_02_involution_shortcuts():
    with criterion(2, "involution shortcuts", budget=300):
        cases = [("grid:3,3", "N"), ("grid:2,3", "P"),
                 ("hypercube:3", "P"), ("complete_binary_tree:2", "N")]
        for spec, want in cases:
            g = parse_family_spec(spec)
            fast = outcome_by_involution(g, 2)
            slow = games.outcome(Position.start(g, 2, ProperColoring()))
            assert fast == slow == want, (spec, fast, slow, want)


def test_criterion_03_distance_odd_paths():
    with criterion(3, "distance-2 odd paths", budget=1800):
        expected = {3: "P", 5: "N", 7: "N", 9: "P", 11: "P", 13: "N"}
        for n, want in expected.items():
            pos = Position.start(build_family("path", n), 2, DistanceColoring(2))
            assert games.outcome(pos) == want, f"path {n}"


@pytest.mark.extended
def test_criterion_03_distance_extended_lengths():
    with criterion(3, "distance-2 paths 15, 17 and 19 (extended)", budget=1800):
        for n in (15, 17, 19):
            pos = Position.start(build_family("path", n), 2, DistanceColoring(2))
            assert games.outcome(pos) == "P", f"path {n}"


def test_criterion_04_blue_red_recursion(table_full):
    with criterion(4, "blue-red recursion vs search", budget=600):
        small = op.compute_tables(12)
        for klass in (op.CLASS_A, op.CLASS_B, op.CLASS_C, op.CLASS_D):
            lo = 2 if klass == op.CLASS_C else 1
            for k in range(lo, 13):
                engine = games.grundy(op.build_class_position(klass, k))
                assert engine == small.value(klass, k), (klass, k)
        t = table_full
        assert np.array_equal(t.gC[4:], t.gD[1 : K_FULL - 2]), "offset identity"
        for k in range(1, K_FULL + 1):
            assert t.value(op.CLASS_B, k) == t.value(op.CLASS_A, k)
            if k > 14:
                break  # the arrays are shared; spot-check the accessor only
        assert min(t.gA[4:]) > 0, "first-player classes vanish somewhere"


def test_criterion_05_d_class_census(table_full):
    # The source states 26 such lengths; no length convention the repo can
    # check gives that count (README, "Known discrepancy"). The faithful
    # count is 34, and its zeros up to 1600 are checked here against the
    # scalar recursion, which shares no code with the table fill.
    with criterion(5, "D-class P-position census", budget=600):
        lengths = op.enumerate_p_positions(table_full, op.CLASS_D)
        lengths = [k for k in lengths if k <= 8084]
        assert lengths[-1] == 8084, f"last P-position below 8085 is {lengths[-1]}"
        assert lengths == D_ZEROS, f"D-class P-positions up to 8084: {lengths}"
        _, _, d = scalar_tables(1600)
        independent = [k for k in range(1, 1601) if d[k] == 0]
        assert [k for k in lengths if k <= 1600] == independent


def test_criterion_06_rare_common_structure(table_full):
    with criterion(6, "rare/common structure", budget=None):
        report = op.classify_rare_common(table_full)
        closure = op.rare_set()
        observed = set(report.value_counts)
        assert set(report.rare_values) <= closure
        assert set(report.rare_values) | set(report.common_values) == observed
        assert not (set(report.rare_values) & set(report.common_values))
        assert sum(report.value_counts.values()) == 3 * K_FULL - 1
        gA, gC, gD = naive_tables(K_FULL)
        assert np.array_equal(table_full.gA, gA)
        assert np.array_equal(table_full.gC, gC)
        assert np.array_equal(table_full.gD, gD)


def _weak_cycle_start(n):
    return Position.start(build_family("cycle", n), 2, WeakColoring())


def test_criterion_07_weak_parity():
    with criterion(7, "weak 2-coloring parity", budget=900):
        for n in (3, 5, 7, 9):
            start = _weak_cycle_start(n)
            seen = {start.coloring}
            stack = [start]
            while stack:
                pos = stack.pop()
                unc = sum(1 for c in pos.coloring if c is None)
                assert games.grundy(pos) == unc % 2, (n, pos.coloring)
                for mv in legal_moves(pos):
                    child = apply_move(pos, mv)
                    if child.coloring not in seen:
                        seen.add(child.coloring)
                        stack.append(child)
        rng = random.Random(20260819)
        for n in (11, 13):
            start = _weak_cycle_start(n)
            states = {start.coloring: start}
            while len(states) < 10_000:
                pos = start
                while True:
                    mvs = legal_moves(pos)
                    if not mvs:
                        break
                    pos = apply_move(pos, rng.choice(mvs))
                    states.setdefault(pos.coloring, pos)
            for pos in states.values():
                unc = sum(1 for c in pos.coloring if c is None)
                assert games.grundy(pos) == unc % 2, (n, pos.coloring)


def test_criterion_08_sequential_oracle_and_scaling():
    with criterion(8, "sequential oracle + linear scaling", budget=1200):
        for n in range(1, 9):
            g = build_family("path", n)
            for perm in itertools.permutations(range(n)):
                assert seq.decide_path(perm) == seq.brute_force_outcome(g, perm), perm
        rng = random.Random(417)
        for n in range(9, 17):
            g = build_family("path", n)
            for _ in range(10_000):
                perm = list(range(n))
                rng.shuffle(perm)
                perm = tuple(perm)
                assert seq.decide_path(perm) == seq.brute_force_outcome(g, perm), (n, perm)

        sizes = [10**3, 10**4, 10**5, 10**6]
        reps = {10**3: 200, 10**4: 40, 10**5: 4, 10**6: 1}
        times = []
        for n in sizes:
            perm = list(range(n))
            rng.shuffle(perm)
            perm = tuple(perm)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                for _ in range(reps[n]):
                    seq.decide_path(perm)
                best = min(best, (time.perf_counter() - t0) / reps[n])
            times.append(best)
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        assert 0.8 <= slope <= 1.2, f"scaling exponent {slope:.3f} outside [0.8, 1.2]"


def _connected(g):
    return all(d >= 0 for d in bfs_dist(g, 0))


def _random_connected(n, rng):
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = make_graph(n, edges)
        if _connected(g):
            return g


REDUCTION_VARIANTS = [
    lambda g: rd.reduce_to_proper_k(g, 2),
    lambda g: rd.reduce_to_proper_k(g, 3),
    lambda g: rd.reduce_to_oriented_k(g, 2),
    lambda g: rd.reduce_to_oriented_k(g, 3),
    rd.reduce_to_oriented_br,
    lambda g: rd.reduce_to_distance_2k(g, 2),
    lambda g: rd.reduce_to_distance_2k(g, 3),
]


def test_criterion_09_reductions():
    import networkx as nx

    with criterion(9, "reductions + planarity", budget=1800):
        graphs = [g for n in range(1, 6) for g in connected_graph_census(n)]
        rng = random.Random(88)
        graphs += [_random_connected(6, rng) for _ in range(50)]
        for g in graphs:
            orig = Position.start(g, 1, ProperColoring())
            for make in REDUCTION_VARIANTS:
                rep = rd.verify_equivalence(orig, make(g))
                assert rep.equivalent, (g.n, sorted(g.edges), rep.reason)

        def nx_of(graph):
            h = nx.Graph(list(graph.edges))
            h.add_nodes_from(range(graph.n))
            return h

        planar_inputs = [g for n in range(1, 6) for g in connected_graph_census(n)
                         if nx.check_planarity(nx_of(g))[0]]
        for n in (6, 7, 8):
            found = 0
            while found < 5:
                g = _random_connected(n, rng)
                if nx.check_planarity(nx_of(g))[0]:
                    planar_inputs.append(g)
                    found += 1
        for g in planar_inputs:
            for k in (2, 3):
                red = rd.reduce_to_proper_k(g, k).position.graph
                assert nx.check_planarity(nx_of(red))[0], (g.n, sorted(g.edges), k)


def test_criterion_10_blue_red_cycles():
    with criterion(10, "blue-red directed cycles", budget=300):
        for n in range(4, 12):
            pos = Position.start(build_family("directed_cycle", n), 2,
                                 OrientedBlueRed())
            assert games.outcome(pos) == "P", f"directed cycle {n}"