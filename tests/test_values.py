"""Value semantics of the engine's rulesets and records: equal values compare
and hash equal, reprs name the fields, assignment and deletion raise
AttributeError, and each constructor keeps its checks and messages."""

import re
from array import array

import numpy as np
import pytest

from coloring_games import games, oriented_paths as op, reductions
from coloring_games.graphs import GraphDocument, make_graph
from coloring_games.rulesets import (
    DistanceColoring,
    OrientedBlueRed,
    OrientedColoring,
    ProperColoring,
    SequentialColoring,
    WeakColoring,
)

EDGE = make_graph(2, [(0, 1)])
EDGE_REPR = "Graph(n=2, directed=False, edges=frozenset({(0, 1)}))"
TABLE = op.compute_tables(3)
REDUCED = reductions.reduce_to_proper_k(EDGE, 1)
KAYLES_EDGE = games.Position.start(EDGE, 1, ProperColoring())

# (id, make, repr, hashable): make builds a new value equal to the last one
CASES = [
    ("proper", ProperColoring, "ProperColoring()", True),
    ("oriented", OrientedColoring, "OrientedColoring()", True),
    ("oriented-br", OrientedBlueRed, "OrientedBlueRed()", True),
    ("weak", WeakColoring, "WeakColoring()", True),
    ("distance", lambda: DistanceColoring(d=2), "DistanceColoring(d=2)", True),
    ("distance-default", DistanceColoring, "DistanceColoring(d=2)", True),
    ("sequential", lambda: SequentialColoring([2, 0, 1]),
     "SequentialColoring(order=(2, 0, 1))", True),
    ("sequential-array", lambda: SequentialColoring(order=array("q", [2, 0, 1])),
     "SequentialColoring(order=(2, 0, 1))", True),
    ("graph-document",
     lambda: GraphDocument(graph=make_graph(2, [(1, 0)]), k=2, coloring=(1, None)),
     f"GraphDocument(graph={EDGE_REPR}, k=2, coloring=(1, None), order=None)", True),
    ("move", lambda: games.Move(1, 2), "Move(vertex=1, color=2)", True),
    ("position", lambda: games.Position.start(EDGE, 2, ProperColoring()),
     f"Position(graph={EDGE_REPR}, k=2, ruleset=ProperColoring(), coloring=(None, None))",
     True),
    ("grundy-table", lambda: op.GrundyTable(K=3, gA=array("H", TABLE.gA),
                                            gC=array("H", TABLE.gC), gD=array("H", TABLE.gD)),
     "GrundyTable(K=3, gA=..., gC=..., gD=...)", False),
    ("rare-common-report", lambda: op.classify_rare_common(TABLE),
     "RareCommonReport(K=3, value_counts={0: 4, 1: 3, 2: 1}, rare_values=(0, 1, 2), "
     "common_values=(), largest_rare_index={'A': 3, 'C': 3, 'D': 3}, max_value=2)", False),
    ("reduced-instance", lambda: reductions.reduce_to_proper_k(EDGE, 1),
     f"ReducedInstance(position=Position(graph={EDGE_REPR}, k=1, ruleset=ProperColoring(), "
     "coloring=(None, None)), vertex_map={0: 0, 1: 1})", False),
    ("equivalence-report",
     lambda: reductions.verify_equivalence(KAYLES_EDGE, REDUCED),
     "EquivalenceReport(equivalent=True, reason=None, pairs_checked=3, grundy_original=1, "
     "grundy_reduced=1)", True),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("_id, make, text, hashable", CASES, ids=IDS)
def test_equal_values_compare_and_hash_equal(_id, make, text, hashable):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b) and len({a, b}) == 1
    else:  # a field holds arrays or a dict
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("_id, make, text, hashable", CASES, ids=IDS)
def test_repr_names_the_fields(_id, make, text, hashable):
    assert repr(make()) == text


@pytest.mark.parametrize("_id, make, text, hashable", CASES, ids=IDS)
def test_assignment_and_deletion_raise(_id, make, text, hashable):
    value = make()
    field = re.match(r"\w+\((\w*)", text).group(1) or "token"
    before = repr(value)
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("a, b", [
    (ProperColoring(), OrientedColoring()),
    (DistanceColoring(2), DistanceColoring(3)),
    (SequentialColoring((0, 1)), SequentialColoring((1, 0))),
    (games.Move(1, 2), games.Move(2, 1)),
    (games.Position.start(EDGE, 2, ProperColoring()),
     games.Position.start(EDGE, 2, ProperColoring(), coloring=(1, None))),
    (games.Position.start(EDGE, 2, ProperColoring()),
     games.Position.start(EDGE, 3, ProperColoring())),
    (GraphDocument(graph=EDGE), GraphDocument(graph=EDGE, k=2)),
], ids=lambda v: type(v).__name__)
def test_different_values_compare_unequal(a, b):
    assert a != b and not a == b


def test_tables_compare_by_value(tmp_path):
    path = str(tmp_path / "t.bin")
    op.save_table(op.compute_tables(50), path)
    a, b = op.load_table(path), op.compute_tables(50)
    assert a.gA is not b.gA
    assert a == b and not a != b
    gD = array("H", b.gD)
    gD[7] ^= 1
    changed = op.GrundyTable(K=50, gA=b.gA, gC=b.gC, gD=gD)
    assert changed != b and not changed == b


@pytest.mark.parametrize("make, error, message", [
    (lambda: DistanceColoring(0), ValueError, "distance parameter d must be >= 1"),
    (lambda: DistanceColoring(d=-1), ValueError, "distance parameter d must be >= 1"),
    (lambda: SequentialColoring(), ValueError, "sequential needs a visit order"),
    (lambda: GraphDocument(graph=EDGE, k=2, coloring=(3, None)), ValueError,
     "color 3 exceeds declared k=2"),
    (lambda: GraphDocument(graph=EDGE, coloring=(0, None)), ValueError,
     "colors are 1-based positive integers"),
    (lambda: GraphDocument(graph=EDGE, coloring=(1,)), ValueError,
     "coloring length must equal vertex count"),
    (lambda: GraphDocument(graph=EDGE, order=(0, 0)), ValueError,
     "order must list every vertex exactly once"),
    (lambda: games.Position(graph=EDGE, k=2, ruleset=ProperColoring(), coloring=(None,)),
     games.IllegalColoringError, "coloring length must equal vertex count"),
    # the id names the refused input; the message itself leaves the coloring out
    pytest.param(lambda: games.Position.start(EDGE, 2, ProperColoring(), coloring=(1, 1)),
                 games.IllegalColoringError, "coloring is illegal under proper",
                 id="<lambda>-IllegalColoringError-coloring (1, 1) is illegal under proper"),
    (lambda: reductions.ReducedInstance(REDUCED.position, {0: 1, 1: 1}), ValueError,
     "vertex_map must be injective"),
    (lambda: reductions.ReducedInstance(
        games.Position.start(EDGE, 1, ProperColoring(), coloring=(1, None)), {0: 0}),
     ValueError, "mapped vertices must start uncolored"),
    (lambda: op.GrundyTable(K=3, gA=TABLE.gA[:3], gC=TABLE.gC, gD=TABLE.gD), ValueError,
     "table arrays must be uint16 of length K+1"),
    (lambda: op.GrundyTable(K=3, gA=TABLE.gA, gC=TABLE.gC, gD=array("q", TABLE.gD)),
     ValueError, "table arrays must be uint16 of length K+1"),
    (lambda: op.GrundyTable(K=3, gA=TABLE.gA, gC=TABLE.gC, gD=np.array(TABLE.gD, np.uint16)),
     ValueError, "table arrays must be uint16 of length K+1"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_constructors_keep_their_checks(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message
