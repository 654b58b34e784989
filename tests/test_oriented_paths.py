"""Tables for the Blue-Red game on directed paths, checked three ways:
against the search engine on small lengths, against a from-scratch scalar
recursion on moderate lengths, and against frozen landmark values."""

import hashlib
import io
import os
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coloring_games import base, games, oriented_paths as op
from coloring_games.rulesets import BLUE, RED

from reference import D_ZEROS, naive_tables, ref_grundy, scalar_tables, table_file

# landmark values, frozen from the k <= 12 engine cross-check plus the
# recursion continued past it
GA_SMALL = [0, 0, 1, 1, 2, 3, 1, 1, 4, 3, 2, 2, 4, 5, 2]
GD_SMALL = [0, 1, 2, 0, 3, 1, 0, 3, 3, 2, 4, 0, 5, 2, 3]
GC_SMALL = [0, 0, 0, 0, 1, 2, 0, 3, 1, 0, 3, 3, 2, 4, 0]


@pytest.fixture(scope="module")
def table():
    return op.compute_tables(300)


def test_landmark_values(table):
    assert table.gA[:15].tolist() == GA_SMALL
    assert table.gD[:15].tolist() == GD_SMALL
    assert table.gC[2:15].tolist() == GC_SMALL[2:]


def test_matches_scalar_recursion(table):
    a, c, d = scalar_tables(300)
    assert table.gA.tolist() == a
    assert table.gC[2:].tolist() == c[2:]
    assert table.gD.tolist() == d


def test_engine_cross_validation(table):
    # B is built literally (last vertex Red), not via the mirror identity
    for klass in "ABCD":
        for k in range(2 if klass == "C" else 1, 13):
            pos = op.build_class_position(klass, k)
            assert games.grundy(pos) == table.value(klass, k), (klass, k)


def test_class_positions_reject_bad_input():
    with pytest.raises(ValueError):
        op.build_class_position("E", 5)
    with pytest.raises(ValueError):
        op.build_class_position("C", 1)
    with pytest.raises(ValueError):
        op.build_class_position("A", 0)


def test_reference_walker_agrees_on_tiny_paths(table):
    for klass, kmax in (("A", 6), ("D", 13)):
        for k in range(1, kmax + 1):
            pos = op.build_class_position(klass, k)
            assert ref_grundy("oriented-br", pos.graph, 2, pos.coloring) == table.value(klass, k)


@pytest.mark.extended
def test_reference_walker_d_zeros_15_and_16():
    for k in (15, 16):
        pos = op.build_class_position("D", k)
        assert ref_grundy("oriented-br", pos.graph, 2, pos.coloring) == 0, k


def test_offset_identity_full_table(table):
    for k in range(0, table.K - 2):
        assert table.value("C", k + 3) == table.value("D", k)


def test_a_and_b_positive_beyond_three(table):
    for k in range(4, table.K + 1):
        assert table.value("A", k) > 0
        assert table.value("B", k) > 0


def test_value_bounds(table):
    assert table.value("A", -5) == 0
    assert table.value("D", 0) == 0
    with pytest.raises(IndexError):
        table.value("A", table.K + 1)
    with pytest.raises(ValueError):
        table.value("C", 1)
    with pytest.raises(ValueError):
        table.value("Q", 4)


def test_d_zero_census_to_9000():
    t = op.compute_tables(9000)
    assert op.enumerate_p_positions(t, "D") == D_ZEROS
    assert op.enumerate_p_positions(t, "A") == [1]  # positive for every k > 1
    # by the offset identity the C zeros are the shifted D zeros plus the
    # two degenerate lengths whose D partner is the empty path
    zeros_c = op.enumerate_p_positions(t, "C")
    assert set(zeros_c) == {2, 3} | {k + 3 for k in D_ZEROS}


def test_p_position_enumeration_starts_at_one(table):
    assert op.enumerate_p_positions(table, "A")[0] == 1
    with pytest.raises(ValueError):
        op.enumerate_p_positions(table, "X")


# ---- rare/common structure ----

def test_rare_set_shape():
    rare = op.rare_set()
    assert len(rare) == 1024
    assert 0 in rare and 48 in rare  # 48 = 24 ^ 40
    assert 8 not in rare
    members = sorted(rare)
    for _ in range(500):
        x, y = random.choice(members), random.choice(members)
        assert (x ^ y) in rare


def test_classification_report(table):
    rep = op.classify_rare_common(table)
    rare = op.rare_set()
    assert all(v in rare for v in rep.rare_values)
    assert all(v not in rare for v in rep.common_values)
    assert rep.max_value == max(rep.value_counts)
    assert sum(rep.value_counts.values()) == 3 * table.K - 1  # C starts at 2
    assert rep.max_rare_index == max(rep.largest_rare_index.values())
    for name in "ACD":
        idx = rep.largest_rare_index[name]
        assert table.value(name, idx) in rare


@pytest.fixture(scope="module")
def reference():
    # one reference fill, to the longest table compared here, sliced per
    # table: a fill to each K would grow with SHORT_FILL_MAX
    return naive_tables(op.SHORT_FILL_MAX + 300)


def _assert_matches_reference(t, reference):
    gA, gC, gD = (arr[: t.K + 1].tolist() for arr in reference)
    assert t.gA.tolist() == gA
    assert t.gC.tolist() == gC
    assert t.gD.tolist() == gD


def test_accelerated_matches_naive(reference):
    # the stdlib kernel up to SHORT_FILL_MAX, numpy's above it
    for K in (1, 2, 3, 600, op.SHORT_FILL_MAX, op.SHORT_FILL_MAX + 1):
        _assert_matches_reference(op.compute_tables(K), reference)


def test_accelerated_extend_matches_naive_full(reference):
    t120 = op.compute_tables(120)
    t300 = op.extend_table(t120, 300)
    ext = op.extend_table(t300, 450)
    assert ext.gA[:121].tolist() == t120.gA.tolist()
    _assert_matches_reference(t300, reference)
    _assert_matches_reference(ext, reference)
    # a chain that hands over from the stdlib kernel to numpy's. Every value
    # to 900 fits in 8 bits and the first of 256 or more is D_4583, so the
    # stdlib kernel adds a high plane within the second link and starts the
    # third from a table that needs one
    t900 = op.compute_tables(900)
    assert max(max(t900.gA), max(t900.gC), max(t900.gD)) < 256
    mid = op.extend_table(t900, 5000)
    short = op.extend_table(mid, op.SHORT_FILL_MAX)
    long = op.extend_table(short, op.SHORT_FILL_MAX + 300)
    assert long.gD[:901].tolist() == t900.gD.tolist()
    for t in (mid, short, long):
        _assert_matches_reference(t, reference)


def test_numpy_kernel_matches_stdlib_kernel_on_short_tables(monkeypatch):
    # numpy's kernel otherwise fills only above SHORT_FILL_MAX, so here its
    # empty families at k <= 3 and its single options at j = k meet the
    # stdlib kernel's arrays: whole tables and extensions with the bound at
    # 0, then extensions of a stdlib head by a numpy tail with it at 40
    def arrays(t):
        return t.gA, t.gC, t.gD

    stdlib = {K: arrays(op.compute_tables(K)) for K in range(1, 65)}
    monkeypatch.setattr(op, "SHORT_FILL_MAX", 0)
    for K in range(1, 65):
        assert arrays(op.compute_tables(K)) == stdlib[K]
    for bound in (0, 40):
        monkeypatch.setattr(op, "SHORT_FILL_MAX", bound)
        for start in range(1, 17):
            assert arrays(op.extend_table(op.compute_tables(start), 64)) == stdlib[64]


def _family(values, nhigh):
    """values as an option family of op._plane_mex."""
    planes = op._planes(array("H", values), nhigh)
    return (len(values), *(int.from_bytes(p, "little") for p in planes))


def _set_mex(families):
    seen = set().union(*families)
    return next(v for v in range(len(seen) + 1) if v not in seen)


def _plane_mex_cases():
    # lanes holding 0xFF in their low byte on either side of a bucket edge,
    # full buckets, a bucket full but for 255, and families with no options
    rng = random.Random(23)
    cases = [[], [[]], [[], [3]], [list(range(256))], [list(range(512))],
             [list(range(255))], [list(range(255)), [511, 767]],
             [list(range(256)), list(range(256, 511)), [767, 1023]],
             [[0xFF] * 9], [[0xFF, 0x1FF, 0x2FF]], [[0xFFFF] * 4]]
    for edge in (256, 512):
        for _ in range(40):
            top = edge + rng.randrange(-3, 4)
            values = list(range(top))
            for _ in range(rng.randrange(3)):
                values.remove(rng.choice(values))
            values += rng.choices((0xFF, 0x1FF, 0x2FF, edge - 1, edge, edge + 255),
                                  k=rng.randrange(8))
            rng.shuffle(values)
            cuts = sorted(rng.sample(range(len(values) + 1), rng.randrange(1, 4)))
            cases.append([values[i:j] for i, j in zip([0, *cuts], [*cuts, len(values)])])
    return cases


def test_plane_mex_matches_a_set_mex():
    for families in _plane_mex_cases():
        top = max((v for fam in families for v in fam), default=0)
        for nhigh in range(max(0, top.bit_length() - 8), 9):  # planes to spare too
            got = op._plane_mex([_family(fam, nhigh) for fam in families], nhigh)
            assert got == _set_mex(families), (families, nhigh)


def test_plane_mex_on_full_uint16_options():
    options = list(range(1 << 16))
    with pytest.raises(OverflowError):
        op._plane_mex([_family(options, 8)], 8)
    options[40000] = 7
    assert op._plane_mex([_family(options, 8)], 8) == 40000


def test_planes_split_lanes_in_either_host_byte_order(monkeypatch):
    values = array("H", [0, 1, 0xFF, 0x100, 0x1FF, 0x1234, 0xFFFF])
    want = [bytes(v & 0xFF for v in values),
            *(bytes(0xFF * (v >> b & 1) for v in values) for b in range(8, 16))]
    assert op._planes(values, 8) == want
    # the same values as a host of the other byte order holds them
    swapped = array("H", values)
    swapped.byteswap()
    monkeypatch.setattr(op.sys, "byteorder", "big" if op.sys.byteorder == "little" else "little")
    assert op._planes(swapped, 8) == want


def test_bad_mode_and_bounds():
    with pytest.raises(ValueError):
        op.compute_tables(0)


def test_mex_on_full_uint16_option_array():
    # 65,536 uint16 options (2k options of D_k at k = 32768 in the naive
    # recursion): a clamp to 65536 in uint16 overflows, so none may be needed
    opts = np.arange(1 << 16, dtype=np.uint16)
    with pytest.raises(OverflowError):
        op._mex(opts)
    opts[40000] = 7
    assert op._mex(opts) == 40000


def test_mex_matches_a_set_mex():
    # the cases of numpy's mex and of _plane_mex are the same: bucket edges,
    # values repeated across families, and families with no options
    for families in _plane_mex_cases():
        if families:
            got = op._mex(*(np.array(fam, dtype=np.uint16) for fam in families))
            assert got == _set_mex(families), families


@pytest.mark.extended
def test_d_zero_census_to_32768():
    t = op.compute_tables(32768)
    assert op.enumerate_p_positions(t, "D") == D_ZEROS


def test_budget_guard(monkeypatch):
    monkeypatch.setenv(base.TT_BYTES_ENV, "100")
    with pytest.raises(base.MemoryBudgetExceeded):
        op.compute_tables(1000)


# ---- moves ----

def _split_value(table, parts):
    total = 0
    for c, l in parts:
        total ^= table.value(c, l)
    return total


def test_move_options_reconstruct_entries(table):
    rng = random.Random(7)
    ks = list(range(1, 25)) + [rng.randrange(25, 201) for _ in range(30)]
    for klass in "ABCD":
        for k in ks:
            if klass == "C" and k < 2:
                continue
            opts = {_split_value(table, parts) for _, parts in op.class_move_options(klass, k)}
            assert games.mex(opts) == table.value(klass, k), (klass, k)


def test_move_options_are_engine_legal():
    for klass in "ABCD":
        for k in range(2 if klass == "C" else 1, 9):
            pos = op.build_class_position(klass, k)
            expect = set(games.legal_moves(pos))
            got = {mv for mv, _ in op.class_move_options(klass, k)}
            assert got == expect, (klass, k)


@pytest.mark.parametrize("klass", ["A", "B"])
def test_winning_move_small_by_engine(klass, table):
    for k in range(4, 13):
        mv = op.winning_move_AB(k, klass)
        pos = op.build_class_position(klass, k)
        assert mv in games.legal_moves(pos)
        assert games.grundy(games.apply_move(pos, mv)) == 0


@pytest.mark.parametrize("klass", ["A", "B"])
def test_winning_move_large_by_table(klass, table):
    for k in range(4, 201):
        mv = op.winning_move_AB(k, klass)
        matches = [p for m, p in op.class_move_options(klass, k) if m == mv]
        assert len(matches) == 1, (klass, k)
        assert _split_value(table, matches[0]) == 0, (klass, k)


def test_winning_move_known_splits():
    # A_5: Blue on v_4 leaves A_2 + A_2; A_6: Red on v_4 leaves C_4 + D_1
    assert op.winning_move_AB(5, "A") == games.Move(3, BLUE)
    assert op.winning_move_AB(6, "A") == games.Move(3, RED)
    t = op.compute_tables(10)
    assert (t.value("C", 4), t.value("D", 1)) == (1, 1)
    with pytest.raises(ValueError):
        op.winning_move_AB(3, "A")
    with pytest.raises(ValueError):
        op.winning_move_AB(8, "D")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.sampled_from("ABCD"), st.data())
def test_split_soundness_random(table, k, klass, data):
    if klass == "C" and k < 2:
        k = 2
    moves = op.class_move_options(klass, k)
    if not moves:
        return
    _, parts = data.draw(st.sampled_from(moves))
    # every split reaches an option of the entry, and mex(S) is never in S
    assert _split_value(table, parts) != table.value(klass, k)


# ---- persistence ----

def test_save_load_round_trip(tmp_path, table):
    path = str(tmp_path / "t.bin")
    op.save_table(table, path)
    back = op.load_table(path)
    assert back.K == table.K
    assert back.gA.tolist() == table.gA.tolist()
    assert back.gC.tolist() == table.gC.tolist()
    assert back.gD.tolist() == table.gD.tolist()


def test_save_load_file_objects(table):
    buf = io.BytesIO()
    op.save_table(table, buf)
    back = op.load_table(io.BytesIO(buf.getvalue()))
    assert back.gD.tolist() == table.gD.tolist()


def test_corruption_detected(tmp_path, table):
    path = str(tmp_path / "t.bin")
    op.save_table(table, path)
    raw = bytearray(open(path, "rb").read())
    raw[40] ^= 0xFF
    with pytest.raises(op.TableChecksumError):
        op.load_table(io.BytesIO(bytes(raw)))


def test_bad_magic_and_version(table):
    buf = io.BytesIO()
    op.save_table(table, buf)
    raw = bytearray(buf.getvalue())
    with pytest.raises(op.TableFormatError):
        op.load_table(io.BytesIO(b"XXXX" + bytes(raw[4:])))
    bad = bytearray(raw)
    bad[4:6] = (99).to_bytes(2, "little")
    import hashlib
    bad[-8:] = hashlib.blake2b(bytes(bad[:-8]), digest_size=8).digest()
    with pytest.raises(op.TableVersionError):
        op.load_table(io.BytesIO(bytes(bad)))
    with pytest.raises(op.TableFormatError):
        op.load_table(io.BytesIO(b"CG"))


def test_extend_after_load_preserves_prefix(tmp_path):
    t100 = op.compute_tables(100)
    path = str(tmp_path / "t.bin")
    op.save_table(t100, path)
    t200 = op.extend_table(op.load_table(path), 200)
    assert t200.gA[:101].tolist() == t100.gA.tolist()
    assert t200.gA.tolist() == op.compute_tables(200).gA.tolist()
    assert op.extend_table(t200, 150) is t200  # no shrinking


def test_csv_export_deterministic(table):
    one, two = io.StringIO(), io.StringIO()
    op.export_csv(table, one)
    op.export_csv(table, two)
    assert one.getvalue() == two.getvalue()
    lines = one.getvalue().splitlines()
    assert len(lines) == table.K
    assert lines[0] == "1,0,0,1"
    k, ga, gc, gd = map(int, lines[13].split(","))
    assert (k, ga, gc, gd) == (14, 2, 0, 3)


def test_table_array_validation():
    zeros = array("H", [0] * 4)
    with pytest.raises(ValueError):
        op.GrundyTable(K=3, gA=zeros, gC=zeros, gD=array("H", [0] * 3))
    with pytest.raises(ValueError):
        op.GrundyTable(K=3, gA=array("i", [0] * 4), gC=zeros, gD=zeros)
    with pytest.raises(ValueError):  # a numpy array holds the same values, but is refused
        op.GrundyTable(K=3, gA=np.zeros(4, np.uint16), gC=zeros, gD=zeros)


def test_table_file_bytes_are_frozen():
    # the sha256 of this file as written before the tables became array('H')
    buf = io.BytesIO()
    op.save_table(op.compute_tables(200), buf)
    assert len(buf.getvalue()) == 14 + 6 * 201 + 8
    assert hashlib.sha256(buf.getvalue()).hexdigest() == (
        "ef021ac75cda6191709d30162d6c71cb903bc7728ed16ee2741e917db1f81525")


def test_load_reads_little_endian_values_above_255():
    K = 2
    values = [0, 256, 65535, 0, 0, 511, 0, 1, 4660]  # A, then C, then D
    body = b"".join(v.to_bytes(2, "little") for v in values)
    back = op.load_table(io.BytesIO(table_file(K, body)))
    assert (back.gA.tolist(), back.gC.tolist(), back.gD.tolist()) == (
        values[0:3], values[3:6], values[6:9])


def test_load_checks_the_budget_before_the_body(monkeypatch):
    class HeaderOnly(io.BytesIO):
        def read(self, size=-1):
            if self.tell() > 0:
                raise AssertionError("the body was read")
            return super().read(size)

    K = 200_000
    monkeypatch.setenv(base.TT_BYTES_ENV, "500000")
    with pytest.raises(base.MemoryBudgetExceeded, match=r"needs at least 1200006 bytes"):
        op.load_table(HeaderOnly(table_file(K, bytes(6 * (K + 1)))))


def test_interrupted_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "t.bin")
    old = op.compute_tables(100)
    op.save_table(old, path)

    class FailingWrite(io.FileIO):
        def write(self, data):
            super().write(data[: len(data) // 2])
            raise OSError("disk went away")

    monkeypatch.setattr(op, "open", lambda name, mode: FailingWrite(name, mode),
                        raising=False)
    with pytest.raises(OSError, match="disk went away"):
        op.save_table(op.compute_tables(150), path)
    monkeypatch.undo()
    assert op.load_table(path) == old
    assert os.listdir(tmp_path) == ["t.bin"]
