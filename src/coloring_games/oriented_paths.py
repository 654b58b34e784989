"""Fast Grundy tables for the Blue-Red arc game on directed paths.

An uncolored directed path is class D; painting its ends gives the other
classes (A: first vertex Blue, B: last vertex Red, C: both). Painting v_i
Blue makes v_{i-1} permanently unpaintable and leaves an A-type tail from
v_i on; painting v_i Red kills v_{i+1} the same way. The classes therefore
satisfy Mex recursions over split pairs, with lengths counted in vertices
and any length <= 0 standing for the empty path (value 0). B mirrors A
(reverse the path and swap colors), so only A, C, D are stored.

The fill reads every option family as a forward run of one class XOR a
reversed run of another, and is O(K^2) in time. It has two kernels, picked
by the target K alone, that read the same families over the same ranges: up
to SHORT_FILL_MAX lengths, _short_fill keeps each class as byte planes
packed into Python ints, XORs each family plane by plane and takes its mex
with bytes.translate, all in the standard library; above it, _fill reads
the families as views of numpy buffers padded with the empty path at length
-1 and counts each length's options for its mex (np.bincount). numpy's
import costs about 0.06-0.1 s, which its kernel repays from about 7168
lengths on, and 13 MB, which no default command's table pays. Observed
values split into "rare" ones, members of a small XOR-closed set, and
"common" ones; classify_rare_common reports that split for a computed table.

The tables are stdlib uint16 arrays (array('H')), compared, saved, loaded
and reported on without numpy. Only a fill above SHORT_FILL_MAX loads numpy,
so a short table, or loading, inspecting or exporting a table file, needs
no numpy. Nor does it need the engine: at module level this file imports
only base (Frozen and the byte budget): build_class_position and the move
helpers import graphs, rulesets and games when they are called, and
save_table and load_table import hashlib for the file's checksum.
"""

from __future__ import annotations

import contextlib
import os
import struct
import sys
from array import array
from collections import Counter
from typing import TYPE_CHECKING, BinaryIO, NamedTuple, TextIO

from .base import Frozen, check_bytes

if TYPE_CHECKING:
    from .games import Move, Position

CLASS_A = "A"
CLASS_B = "B"
CLASS_C = "C"
CLASS_D = "D"
PATH_CLASSES = (CLASS_A, CLASS_B, CLASS_C, CLASS_D)

# values grundy-seq accepts for --mode; both run the same fill, whose kernel
# the target K picks (SHORT_FILL_MAX), not the mode
MODE_NAIVE = "naive"
MODE_ACCELERATED = "accelerated"

# the longest table the stdlib kernel fills: the default p-positions K, which
# is also the benchmark's path-tables K, so no table a default command fills
# pays numpy's 13 MB import. Every longer fill takes numpy's kernel, which a
# fresh grundy-seq runs faster from about 7168 lengths on (BENCH_32.json);
# tests/test_cli.py checks that the two values agree
SHORT_FILL_MAX = 8084

RARE_GENERATORS = (0, 1, 2, 3, 4, 5, 6, 7, 24, 40, 64, 136, 264, 520, 1032)


class TableFormatError(ValueError):
    """Table file is malformed or truncated."""


class TableVersionError(TableFormatError):
    """Table file was written by an unsupported format version."""


class TableChecksumError(TableFormatError):
    """Table file content does not match its checksum."""


def _painted_ends(klass: str) -> tuple[bool, bool]:
    """Whether a class's first vertex is Blue and whether its last is Red;
    their count picks its values: none D's, one A's (B mirrors A), two C's."""
    if klass not in PATH_CLASSES:
        raise ValueError(f"unknown path class {klass!r}")
    return klass in (CLASS_A, CLASS_C), klass in (CLASS_B, CLASS_C)


def rare_set() -> frozenset[int]:
    """XOR-closure of RARE_GENERATORS (1024 members)."""
    span = {0}
    for gen in RARE_GENERATORS:
        span |= {gen ^ x for x in span}
    return frozenset(span)


_RARE = rare_set()


# ---- table ------------------------------------------------------------------

class GrundyTable(Frozen):
    """Class values for lengths 0..K; index 0 is the empty path.

    gB is not stored (gB[k] == gA[k] by the mirror symmetry); gC[1] is a
    0 sentinel for the unrealizable one-vertex C class and is never read.
    The arrays are array('H') and read-only by contract.
    """

    def __init__(self, K: int, gA: array, gC: array, gD: array) -> None:
        for arr in (gA, gC, gD):
            if not isinstance(arr, array) or arr.typecode != "H" or len(arr) != K + 1:
                raise ValueError("table arrays must be uint16 of length K+1")
        self.__dict__.update(K=K, gA=gA, gC=gC, gD=gD)

    def __repr__(self) -> str:
        # the arrays hold 3(K+1) values, so they are elided
        return f"GrundyTable(K={self.K}, gA=..., gC=..., gD=...)"

    def value(self, klass: str, length: int) -> int:
        """Grundy value of a class position; lengths <= 0 are the empty path."""
        values = (self.gD, self.gA, self.gC)[sum(_painted_ends(klass))]
        if length <= 0:
            return 0
        if length > self.K:
            raise IndexError(f"length {length} beyond computed bound {self.K}")
        if klass == CLASS_C and length == 1:
            raise ValueError("a one-vertex path cannot be class C")
        return values[length]


def build_class_position(klass: str, k: int) -> Position:
    """The colored directed path a class stands for, as an engine position."""
    first_blue, last_red = _painted_ends(klass)
    if k < 1 or (klass == CLASS_C and k < 2):
        raise ValueError(f"class {klass} needs a longer path than k={k}")
    from .games import Position
    from .graphs import build_family
    from .rulesets import BLUE, RED, OrientedBlueRed

    coloring: list[int | None] = [None] * k
    if first_blue:
        coloring[0] = BLUE
    if last_red:
        coloring[-1] = RED
    graph = build_family("directed_path", k)
    return Position.start(graph, 2, OrientedBlueRed(), coloring=coloring)


def class_move_options(
    klass: str, k: int
) -> list[tuple[Move, tuple[tuple[str, int], ...]]]:
    """Legal moves in a class-k path with the class split each one leaves.

    Derived from the move semantics (Blue kills the in-neighbor, Red the
    out-neighbor), not from the table recursion, so it can cross-check it.
    Vertices in the returned moves are 0-based; parts with length <= 0 are
    omitted.
    """
    from .games import Move
    from .rulesets import BLUE, RED

    first_blue, last_red = _painted_ends(klass)
    out: list[tuple[Move, tuple[tuple[str, int], ...]]] = []

    def parts(*ps: tuple[str, int]) -> tuple[tuple[str, int], ...]:
        return tuple(p for p in ps if p[1] > 0)

    for i in range(1, k + 1):  # 1-based vertex positions
        painted = (i == 1 and first_blue) or (i == k and last_red)
        if painted:
            continue
        # Blue on v_i: the in-neighbor must be unpainted, the out-neighbor
        # unpainted or Red
        if i == 1 or not (i - 1 == 1 and first_blue):
            left = ("A" if first_blue else "D", i - 2)
            right = ("C" if last_red else "A", k - i + 1)
            out.append((Move(i - 1, BLUE), parts(left, right)))
        # Red on v_i: the out-neighbor must be unpainted, the in-neighbor
        # unpainted or Blue
        if i == k or not (i + 1 == k and last_red):
            left = ("C" if first_blue else "B", i)
            right = ("B" if last_red else "D", k - i - 1)
            out.append((Move(i - 1, RED), parts(left, right)))
    return out


# ---- fill ----------------------------------------------------------------------
#
# Both kernels read the same option families, each the splits X_j + Y_{k-1-j}
# for lo <= j <= hi. Y_{-1} is the empty path, so the split j = k is X_k
# alone. At length k, in fill order:
# - C_k: Blue on v_i leaves A_{i-2} + C_{k+1-i} and Red on v_i leaves
#   C_i + A_{k-1-i}; both are the splits A_j + C_{k-1-j}, 1 <= j <= k-3.
# - A_k: Blue leaves A_{i-2} + A_{k+1-i}, splits symmetric in j = i - 2, so
#   A_j + A_{k-1-j} for 1 <= j <= (k-1)//2 holds every option; Red leaves
#   C_i + D_{k-1-i}, the splits C_j + D_{k-1-j}, 2 <= j <= k, where j = k
#   (Red on v_k) is C_k alone.
# - D_k: Blue leaves D_{i-2} + A_{k+1-i} and Red leaves A_i + D_{k-1-i};
#   both are the splits A_j + D_{k-1-j}, 1 <= j <= k (D_0 is the empty
#   path), where j = k is A_k alone.

def _mex(*families) -> int:
    """Least value in no option family (numpy uint16 arrays): the first zero
    count, with one appended in case every value up to the largest occurs.
    bincount reads intp, so the families are joined into intp, copied once."""
    import numpy as np

    counts = np.append(np.bincount(np.concatenate(families, dtype=np.intp)), 0)
    first = int(counts.argmin())
    if first >= 1 << 16:
        raise OverflowError("Grundy value does not fit in 16 bits")
    return first


def _fill(gA: array, gC: array, gD: array, start: int, K: int) -> None:
    """Fill lengths start..K in place; the lengths below start are already set.

    This kernel, for K above SHORT_FILL_MAX, copies each class into a numpy
    buffer of K + 2 entries, entry i holding length i - 1: entry 0 stands
    for length -1 and stays 0, as the lanes above K of _short_fill's
    reversed ints do. Each option family is then a forward view of one
    buffer XOR a reversed view of another, with no index arrays and no case
    of its own for the split j = k, and _mex counts each length's options
    afresh.
    """
    import numpy as np

    arrs = [np.frombuffer(arr, dtype=np.uint16) for arr in (gA, gC, gD)]
    A, C, D = bufs = [np.zeros(K + 2, dtype=np.uint16) for _ in arrs]
    for buf, arr in zip(bufs, arrs):
        buf[1 : start + 1] = arr[:start]
    rA, rC, rD = (buf[::-1] for buf in bufs)
    for k in range(start, K + 1):
        r = K + 1 - k  # rY[r + j] holds Y_{k-1-j}
        # the option families above, as (X, rY, lo, hi)
        for Z, families in ((C, [(A, rC, 1, k - 3)]),
                            (A, [(A, rA, 1, (k - 1) // 2), (C, rD, 2, k)]),
                            (D, [(A, rD, 1, k)])):
            Z[k + 1] = _mex(*(X[lo + 1 : hi + 2] ^ rY[r + lo : r + hi + 1]
                              for X, rY, lo, hi in families))
    for buf, arr in zip(bufs, arrs):
        arr[start:] = buf[start + 1 :]


_BYTES = bytes(range(256))


def _planes(arr: array, nhigh: int) -> list[bytes]:
    """arr's values as byte planes, one byte lane per value: the low bytes,
    then per bit 8 + b (b < nhigh) 0xFF where that bit is set, else 0x00.
    The bytes are split from little-endian values, in any host byte order."""
    raw = _little_endian(arr).tobytes()
    high = raw[1::2]
    return [raw[0::2], *(high.translate(bytes(0xFF * (x >> b & 1) for x in range(256)))
                         for b in range(nhigh))]


def _plane_mex(families, nhigh: int) -> int:
    """Least value in no option family, for _short_fill.

    A family of m options is a tuple (m, low, *high) of ints with one byte
    lane per option, lane i at bits 8i..8i+7, as int.from_bytes reads the
    planes of _planes; every option lies below 1 << (8 + nhigh). For bucket
    h, the values 256h..256h+255, the lanes of options outside the bucket
    are forced to 0xFF, so deleting every low byte from 0..255 leaves the
    bucket's absent values, bar 255: that is present only where more lanes
    hold 0xFF than were forced.
    """
    for h in range(1 << nhigh):
        rest, seen = _BYTES, []
        for m, low, *high in families:
            forced = 0
            for b, plane in enumerate(high):
                forced |= plane ^ ((1 << 8 * m) - 1) if h >> b & 1 else plane
            lanes = (low | forced).to_bytes(m, "little")
            rest = rest.translate(None, lanes)
            seen.append((lanes, forced))
        if rest:
            return 256 * h + rest[0]
        if all(lanes.count(0xFF) == forced.bit_count() >> 3 for lanes, forced in seen):
            return 256 * h + 0xFF
    value = 256 << nhigh  # every value below it is an option
    if value >> 16:
        raise OverflowError("Grundy value does not fit in 16 bits")
    return value


def _short_fill(gA: array, gC: array, gD: array, start: int, K: int) -> None:
    """_fill without numpy, for tables short enough that numpy's import would
    cost more than the fill.

    Each class is kept as byte planes (see _planes) packed into Python ints,
    lane j holding length j, once forward and once reversed (lane K - j), so
    every option family X_j + Y_{k-1-j} is a shift of each and one XOR per
    plane, and _plane_mex takes its mex without a loop over the options. No
    family reads D forward, so D is kept reversed only.
    Lanes above K in a reversed int are zero, so Y_{-1} reads as the empty
    path. A value that needs a higher bit adds a plane, zero for every length
    before it.
    """
    arrs = (gA, gC, gD)
    nhigh = max(0, max(max(arr[:start]) for arr in arrs).bit_length() - 8)
    fwd: list[list[int]] = []
    rev: list[list[int]] = []
    for arr in arrs:
        planes = _planes(arr[:start], nhigh)
        if arr is not gD:
            fwd.append([int.from_bytes(p, "little") for p in planes])
        rev.append([int.from_bytes(p[::-1], "little") << 8 * (K + 1 - start) for p in planes])
    (A, C), (rA, rC, rD) = fwd, rev

    def splits(X: list[int], rY: list[int], lo: int, hi: int) -> tuple:
        """X_j + Y_{k-1-j} for lo <= j <= hi, as a family of _plane_mex."""
        m = hi + 1 - lo
        if m <= 0:
            return ()
        f, r = 8 * lo, 8 * (K - k + 1 + lo)
        if hi == k:  # X has no lane above k yet, and rY none above K
            return ((m, *(x >> f ^ y >> r for x, y in zip(X, rY))),)
        mask = (1 << 8 * m) - 1
        return ((m, *((x >> f ^ y >> r) & mask for x, y in zip(X, rY))),)

    def put(X: list[int] | None, rX: list[int], value: int) -> int:
        nonlocal nhigh
        while value >> (8 + nhigh):
            for planes in fwd + rev:
                planes.append(0)
            nhigh += 1
        lanes = [value & 0xFF, *(0xFF * (value >> b & 1) for b in range(8, 8 + nhigh))]
        for p, lane in enumerate(lanes):
            if lane:
                if X is not None:
                    X[p] |= lane << 8 * k
                rX[p] |= lane << 8 * (K - k)
        return value

    for k in range(start, K + 1):  # the option families above
        gC[k] = put(C, rC, _plane_mex(splits(A, rC, 1, k - 3), nhigh))
        gA[k] = put(A, rA, _plane_mex(splits(A, rA, 1, (k - 1) // 2)
                                      + splits(C, rD, 2, k), nhigh))
        gD[k] = put(None, rD, _plane_mex(splits(A, rD, 1, k), nhigh))


def _check_budget(K: int) -> None:
    check_bytes(6 * (K + 1), f"a table to K={K}")  # three uint16 arrays


def compute_tables(K: int) -> GrundyTable:
    """Fill gA/gC/gD for all lengths <= K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return _compute(None, K)


def extend_table(table: GrundyTable, K: int) -> GrundyTable:
    """Continue a computed table to a larger bound; existing entries are kept."""
    if K <= table.K:
        return table
    return _compute(table, K)


def _compute(base: GrundyTable | None, K: int) -> GrundyTable:
    _check_budget(K)
    start = (base.K if base else 0) + 1
    head = (base.gA, base.gC, base.gD) if base else (array("H", [0]),) * 3
    tail = array("H", bytes(2 * (K + 1 - start)))  # zeros for lengths start..K
    gA, gC, gD = (arr + tail for arr in head)
    (_short_fill if K <= SHORT_FILL_MAX else _fill)(gA, gC, gD, start, K)
    return GrundyTable(K=K, gA=gA, gC=gC, gD=gD)


# ---- enumeration and classification reports ---------------------------------------

def enumerate_p_positions(table: GrundyTable, klass: str) -> list[int]:
    """All lengths 1 <= k <= K whose class value is 0."""
    values = (table.gD, table.gA, table.gC)[sum(_painted_ends(klass))]
    lo = 2 if klass == CLASS_C else 1  # a C path has at least two vertices
    return [k for k in range(lo, table.K + 1) if values[k] == 0]


class RareCommonReport(NamedTuple):
    """Which Grundy values occur, how often, and where rare ones last appear."""

    K: int
    value_counts: dict[int, int]
    rare_values: tuple[int, ...]
    common_values: tuple[int, ...]
    largest_rare_index: dict[str, int]  # per class; 0 when no rare value occurs
    max_value: int

    @property
    def max_rare_index(self) -> int:
        return max(self.largest_rare_index.values())


def classify_rare_common(table: GrundyTable) -> RareCommonReport:
    counts: Counter[int] = Counter()
    largest: dict[str, int] = {}
    for name, arr, lo in ((CLASS_A, table.gA, 1), (CLASS_C, table.gC, 2), (CLASS_D, table.gD, 1)):
        counts.update(arr[lo:])
        largest[name] = next((k for k in range(table.K, lo - 1, -1) if arr[k] in _RARE), 0)
    rare = tuple(sorted(v for v in counts if v in _RARE))
    common = tuple(sorted(v for v in counts if v not in _RARE))
    return RareCommonReport(
        K=table.K,
        value_counts=dict(sorted(counts.items())),
        rare_values=rare,
        common_values=common,
        largest_rare_index=largest,
        max_value=max(counts),
    )


# ---- prescribed winning moves for A and B ------------------------------------------

def winning_move_AB(k: int, klass: str) -> Move:
    """The prescribed first-player winning move in A_k or B_k, k > 3.

    For A and odd k, Blue on v_{(k+3)/2} splits into two equal A parts. For
    even k the zero option is C_{k/2+1} + D_{k/2-2} (equal by the C/D offset
    identity), reached by painting v_{k/2+1} Red: Red is what ends the left
    part with a Red vertex and kills v_{k/2+2}. B mirrors A with the path
    reversed and colors swapped. Vertices are returned 0-based.
    """
    from .games import Move
    from .rulesets import BLUE, RED

    if klass not in (CLASS_A, CLASS_B):
        raise ValueError("prescribed moves exist for classes A and B only")
    if k <= 3:
        raise ValueError("prescribed winning moves need k > 3")
    if klass == CLASS_A:
        if k % 2:
            return Move((k + 3) // 2 - 1, BLUE)
        return Move(k // 2, RED)  # v_{k/2+1}, 1-based
    if k % 2:
        return Move((k - 1) // 2 - 1, RED)
    return Move(k // 2 - 1, BLUE)  # v_{k/2}, 1-based


# ---- persistence ---------------------------------------------------------------

_MAGIC = b"CGBR"
_VERSION = 1
_HEADER = struct.Struct("<4sHQ")


def _little_endian(arr: array) -> array:
    """arr, or on a big-endian host a byteswapped copy: the order of the
    file's values, from the host's and back."""
    if sys.byteorder == "big":
        arr = array("H", arr)
        arr.byteswap()
    return arr


def save_table(table: GrundyTable, dest: str | BinaryIO) -> None:
    """Binary format: {magic, version, K} header, three little-endian uint16
    arrays of length K+1 (A, C, D), then a 64-bit checksum of the rest.

    A path is written through a temporary file in the same directory and
    renamed over dest, so a run killed mid-save keeps the previous file."""
    import hashlib

    header = _HEADER.pack(_MAGIC, _VERSION, table.K)
    body = b"".join(_little_endian(arr).tobytes() for arr in (table.gA, table.gC, table.gD))
    data = header + body + hashlib.blake2b(header + body, digest_size=8).digest()
    if not isinstance(dest, str):
        dest.write(data)
        return
    tmp = f"{dest}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, dest)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_table(src: str | BinaryIO) -> GrundyTable:
    """Read a table file. Its header is checked, and the table's size held to
    the byte budget, before the body is read."""
    import hashlib

    with (open(src, "rb") if isinstance(src, str) else contextlib.nullcontext(src)) as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TableFormatError("table file is truncated")
        magic, version, K = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TableFormatError("not a Grundy table file (bad magic)")
        if version != _VERSION:
            raise TableVersionError(f"unsupported table version {version}")
        _check_budget(K)
        rest = fh.read()
    if len(rest) < 8:
        raise TableFormatError("table file is truncated")
    body, digest = rest[:-8], rest[-8:]
    if hashlib.blake2b(header + body, digest_size=8).digest() != digest:
        raise TableChecksumError("table file checksum mismatch")
    expect = 3 * 2 * (K + 1)
    if len(body) != expect:
        raise TableFormatError(f"table body has {len(body)} bytes, expected {expect}")
    values = _little_endian(array("H", body))
    return GrundyTable(K=K, gA=values[: K + 1], gC=values[K + 1 : 2 * K + 2],
                       gD=values[2 * K + 2 :])


def export_csv(table: GrundyTable, dest: str | TextIO) -> None:
    """One `k,gA,gC,gD` line per length, k = 1..K, no header."""
    lines = (
        f"{k},{a},{c},{d}\n"
        for k, a, c, d in zip(range(1, table.K + 1), table.gA[1:], table.gC[1:], table.gD[1:])
    )
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        dest.writelines(lines)
