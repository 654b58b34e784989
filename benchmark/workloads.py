"""The four benchmark workloads: seeded inputs, request lists and output checks.

A workload makes its inputs once per set-up (`make`), then the runner plays
its request list in passes. Each request is one `coloring_games.cli.main`
argv. After a pass, `check` judges every output and returns the indices of
the requests that failed their check. Checks use oracles that share no code
with the search engine where they are cheap, and outputs recorded when the
benchmark was defined (`expected.json`) otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from coloring_games import games, oriented_paths as op, rulesets
from coloring_games.games import Position
from coloring_games.graphs import (
    GraphDocument,
    connected_graph_census,
    make_graph,
    parse_family_spec,
    save_graph_file,
)
from coloring_games.rulesets import DISTANCE2_ODD_PATHS, RULESET_TOKENS, DistanceColoring

DEFAULT_SEED = 1

# D-class P-positions up to 8084 from the faithful recursion, as listed in
# README's "Known discrepancy"
FAITHFUL_D_ZEROS = [3, 6, 11, 15, 16, 22, 27, 32, 38, 43, 49, 55, 59, 65, 66, 81, 85,
                    92, 97, 101, 141, 145, 151, 178, 523, 1251, 1376, 1456, 1526,
                    1538, 3625, 3678, 3933, 8084]


@dataclass
class Output:
    code: int | None  # None when cli.main raised
    stdout: str
    seconds: float


@dataclass
class Workload:
    """Base: a request list over inputs in `work`, fixed for one run."""

    seed: int
    work: Path
    requests: list[list[str]] = field(default_factory=list)

    def make(self) -> None:
        """Generate and write the seeded inputs and the request list."""

    def before_pass(self) -> None:
        """Reset state so that every pass starts as a fresh process would."""
        clear_caches()

    def before_request(self, index: int) -> None:
        """Hook run untimed before each request."""

    def order(self) -> list[int]:
        """Request indices in the order one pass sends them."""
        idx = list(range(len(self.requests)))
        random.Random(self.seed).shuffle(idx)
        return idx

    def check(self, outputs: list[Output]) -> list[int]:
        raise NotImplementedError


def expected(workload: str) -> dict:
    """Outputs recorded when the benchmark was defined."""
    return json.loads((Path(__file__).parent / "expected.json").read_text())[workload]


def clear_caches() -> None:
    games.clear_solver_cache()
    rulesets._power.cache_clear()


def digest(outputs: list[Output]) -> str:
    """sha256 over exit codes and stdout, in request-list order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(f"{out.code}\0{len(out.stdout)}\0".encode())
        h.update(out.stdout.encode())
    return h.hexdigest()


def _json(out: Output):
    try:
        return json.loads(out.stdout) if out.code == 0 else None
    except json.JSONDecodeError:
        return None


def _json_lines(out: Output) -> list | None:
    try:
        return [json.loads(line) for line in out.stdout.splitlines()] if out.code == 0 else None
    except json.JSONDecodeError:
        return None


def _solve_ok(rec) -> bool:
    """Internal consistency of one solve record."""
    if not isinstance(rec, dict) or rec.get("outcome") not in ("N", "P"):
        return False
    g = rec.get("grundy")
    if g is not None and (g > 0) != (rec["outcome"] == "N"):
        return False
    if "winning_move" in rec and rec["outcome"] != "N":
        return False
    return True


# ---- search-cold -------------------------------------------------------------

class SearchCold(Workload):
    """Six exhaustive searches, each with empty transposition tables."""

    INSTANCES = [
        ("distance-2 path:15", ["--ruleset", "distance", "--d", "2", "--k", "2",
                                "--graph", "path:15"]),
        ("proper k=3 grid:3,4", ["--ruleset", "proper", "--k", "3", "--graph", "grid:3,4"]),
        ("proper k=1 path:60", ["--ruleset", "proper", "--k", "1", "--graph", "path:60"]),
        ("oriented-br dpath:40", ["--ruleset", "oriented-br", "--graph", "dpath:40"]),
        ("weak cycle:11", ["--ruleset", "weak", "--graph", "cycle:11"]),
        ("oriented k=3 dcycle:10", ["--ruleset", "oriented", "--k", "3", "--graph", "dcycle:10"]),
    ]

    def make(self) -> None:
        self.requests = [["solve", *argv, "--method", "search", "--format", "json"]
                         for _name, argv in self.INSTANCES]

    def before_request(self, index: int) -> None:
        clear_caches()

    def check(self, outputs: list[Output]) -> list[int]:
        # oracles that share no code with the search: the path-class table,
        # the published distance-2 odd-path outcome, and cycle parity
        independent = {
            "distance-2 path:15": ("outcome", DISTANCE2_ODD_PATHS[15]),
            "oriented-br dpath:40": ("grundy", op.compute_tables(40).value(op.CLASS_D, 40)),
            "weak cycle:11": ("grundy", 11 % 2),
        }
        recorded = expected("search-cold")
        failed = []
        for i, (name, _argv) in enumerate(self.INSTANCES):
            rec = _json(outputs[i])
            key, want = independent.get(name, ("grundy", recorded[name]["grundy"]))
            ok = (_solve_ok(rec) and rec.get("method") == "search"
                  and rec.get(key) == want)
            if ok and rec["outcome"] == "N":
                ok = _winning_move_ok(self.requests[i], rec.get("winning_move"),
                                      recorded[name].get("winning_move"))
            if not ok:
                failed.append(i)
        return failed


def _winning_move_ok(argv: list[str], move, recorded) -> bool:
    """The recorded move, or else a legal move to a Grundy-0 position."""
    if move is None:
        return False
    if move == recorded:
        return True
    flags = dict(zip(argv[1::2], argv[2::2]))
    graph = parse_family_spec(flags["--graph"])
    ruleset = RULESET_TOKENS[flags["--ruleset"]]
    rs = DistanceColoring(int(flags["--d"])) if ruleset is DistanceColoring else ruleset()
    k = int(flags.get("--k", rs.fixed_k or 0))
    clear_caches()
    try:
        child = games.apply_move(Position.start(graph, k, rs),
                                 games.Move(move["vertex"], move["color"]))
    except ValueError:
        return False
    return games.grundy(child) == 0


# ---- solve-mix ---------------------------------------------------------------

# (ruleset, k, shape, vertex counts): one random connected graph per count,
# sized so that a cold exhaustive solve stays well under a second. Mirror
# graphs carry an involution, so their starts take the pairing shortcut.
POOL = [
    ("proper", 2, "random", (6, 7, 8, 9, 10)),
    ("proper", 3, "random", (5, 6, 7, 8, 9)),
    ("proper", 2, "mirror", (7, 8, 9, 10, 11)),
    ("proper", 3, "mirror", (5, 7, 9)),
    ("distance", 2, "random", (9, 10, 11, 12, 13)),
    ("weak", 2, "random", (5, 6, 7, 8, 9)),
    ("oriented-br", 2, "directed", (7, 8, 9, 10, 11)),
    ("oriented", 3, "directed", (4, 5, 6, 7, 8)),
]
POOL_SEED = 2012  # fixes the graphs and openings, so every seed searches alike
OPENING_MOVES = (0, 1, 1, 2, 2, 3)  # random legal moves played, one position each
FILE_SOLVES = 1200
FAMILY_SOLVES = 150
REDUCES = 150

# family starts where closed forms, involutions or a short search answer
FAMILIES = (
    [("proper", 2, f"path:{n}") for n in range(6, 15)]
    + [("proper", 2, f"cycle:{n}") for n in range(6, 13)]
    + [("proper", 2, s) for s in ("grid:2,3", "grid:3,3", "grid:2,4", "grid:3,5",
                                  "hypercube:3", "complete_binary_tree:2")]
    + [("proper", 3, f"path:{n}") for n in (6, 7, 8, 9, 11)]
    + [("weak", 2, f"path:{n}") for n in range(6, 12)]
    + [("weak", 2, f"cycle:{n}") for n in range(5, 12)]
    + [("distance", 2, f"path:{n}") for n in range(6, 14)]
    + [("distance", 2, f"cycle:{n}") for n in (6, 7, 8, 9, 10)]
    + [("oriented-br", 2, f"dcycle:{n}") for n in range(4, 13)]
    + [("oriented-br", 2, f"dpath:{n}") for n in (6, 8, 10, 12)]
)

REDUCE_TARGETS = [("proper", "2"), ("proper", "3"), ("oriented", "2"), ("oriented", "3"),
                  ("oriented-br", None), ("distance", "2"), ("distance", "3")]


def random_connected_graph(rng: random.Random, n: int, shape: str):
    """A random spanning tree plus about n/4 extra edges.

    "directed" orients every edge at random. "mirror" joins two copies of a
    random graph on n//2 vertices: through a centre vertex when n is odd (a
    single fixed point, so the first player mirrors), or by a perfect
    matching between the copies when n is even (no fixed point).
    """
    if shape == "mirror":
        m = n // 2
        half = random_connected_graph(rng, m, "random")
        edges = set(half.edges) | {(u + m, v + m) for u, v in half.edges}
        if n % 2:
            r = rng.randrange(m)
            edges |= {(r, 2 * m), (r + m, 2 * m)}
        else:
            edges |= {(v, v + m) for v in range(m)}
        return make_graph(n, sorted(edges))
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        u, v = verts[i], verts[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(others, min(len(others), n // 4 + rng.randrange(3))))
    if shape == "directed":
        edges = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges}
    return make_graph(n, sorted(edges), directed=shape == "directed")


def relabel(g, perm: list[int]):
    """The same graph with vertex v renumbered perm[v]."""
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    if not g.directed:
        edges = [(min(e), max(e)) for e in edges]
    return make_graph(g.n, sorted(edges), directed=g.directed)


def _ruleset_flags(token: str, k: int) -> list[str]:
    flags = ["--ruleset", token, "--k", str(k)]
    return flags + ["--d", "2"] if token == "distance" else flags


class SolveMix(Workload):
    """About 1.5k requests in one process over a pool of positions.

    The graphs and their opening moves come from POOL_SEED, so each position
    has one recorded verdict. The seed numbers the vertices of each graph,
    which leaves every verdict as it is, and draws and orders the requests.
    """

    def make(self) -> None:
        rng = random.Random(self.seed)
        pool = random.Random(POOL_SEED)
        self.work.mkdir(parents=True, exist_ok=True)
        positions: list[tuple[Path, list[str]]] = []
        for token, k, shape, sizes in POOL:
            rs = DistanceColoring(2) if token == "distance" else RULESET_TOKENS[token]()
            for n in sizes:
                g = random_connected_graph(pool, n, shape)
                perm = list(range(n))
                rng.shuffle(perm)
                renumbered = relabel(g, perm)
                seen = set()
                for depth in OPENING_MOVES:
                    pos = Position.start(g, k, rs)
                    for _ in range(depth):
                        moves = games.legal_moves(pos)
                        if not moves:
                            break
                        pos = games.apply_move(pos, pool.choice(moves))
                    if pos.coloring in seen:
                        continue
                    seen.add(pos.coloring)
                    coloring = [None] * n
                    for v, c in enumerate(pos.coloring):
                        coloring[perm[v]] = c
                    path = self.work / f"pos{len(positions):03d}.txt"
                    save_graph_file(GraphDocument(graph=renumbered, k=k,
                                                  coloring=tuple(coloring)), path)
                    positions.append((path, _ruleset_flags(token, k)))
        self.position_of = {str(path): i for i, (path, _flags) in enumerate(positions)}
        census = []
        for m in range(1, 6):
            for g in connected_graph_census(m):
                path = self.work / f"census{len(census):02d}.txt"
                save_graph_file(GraphDocument(graph=g), path)
                census.append(path)

        requests = []
        for _ in range(FILE_SOLVES):
            path, flags = rng.choice(positions)
            requests.append(["solve", *flags, "--file", str(path), "--format", "json"])
        for _ in range(FAMILY_SOLVES):
            token, k, spec = rng.choice(FAMILIES)
            requests.append(["solve", *_ruleset_flags(token, k), "--graph", spec,
                             "--format", "json"])
        for _ in range(REDUCES):
            to, k = rng.choice(REDUCE_TARGETS)
            requests.append(["reduce", "--from", "kayles", "--to", to,
                             "--file", str(rng.choice(census)), "--verify", "--format", "json"]
                            + (["--k", k] if k else []))
        self.requests = requests

    def check(self, outputs: list[Output]) -> list[int]:
        recorded = expected("solve-mix")
        failed = []
        for i, (argv, out) in enumerate(zip(self.requests, outputs)):
            rec = _json(out)
            if argv[0] == "reduce":
                ok = isinstance(rec, dict) and rec.get("equivalent") is True
            else:
                ok = _solve_ok(rec) and rec["outcome"] == self.verdict(argv, recorded)
            if not ok:
                failed.append(i)
        return failed

    def verdict(self, argv: list[str], recorded: dict) -> str | None:
        """The recorded outcome of the position a solve request names."""
        flags = dict(zip(argv[1::2], argv[2::2]))
        if "--file" in flags:
            return recorded["positions"][self.position_of[flags["--file"]]]
        return recorded["families"].get(f"{flags['--ruleset']} {flags['--k']} {flags['--graph']}")


# ---- path-tables -------------------------------------------------------------

class PathTables(Workload):
    """Naive fill from scratch, then a chunked accelerated fill with checkpoints."""

    KMAX = 8084

    def make(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.table = self.work / "classes.bin"
        k = str(self.KMAX)
        self.requests = [
            ["p-positions", "--kmax", k, "--format", "json"],
            ["grundy-seq", "--kmax", k, "--mode", "accelerated",
             "--checkpoint", str(self.table), "--checkpoint-every", "2048"],
            ["tables", "info", "--table", str(self.table), "--format", "json"],
            ["tables", "export-csv", "--table", str(self.table)],
        ]

    def before_pass(self) -> None:
        super().before_pass()
        if self.table.exists():
            self.table.unlink()  # an existing checkpoint would be resumed

    def order(self) -> list[int]:
        # steps 2 and 3 depend on each other; the seed only places step 1
        return [0, 1, 2, 3] if self.seed % 2 else [1, 2, 3, 0]

    def check(self, outputs: list[Output]) -> list[int]:
        failed = []
        p = _json(outputs[0])
        if not (isinstance(p, dict) and p.get("lengths") == FAITHFUL_D_ZEROS
                and p.get("count") == 34):
            failed.append(0)
        lines = outputs[1].stdout.splitlines() if outputs[1].code == 0 else []
        rows = [line for line in lines if not line.startswith("#")]
        d_zeros = [r.split(",")[0] for r in rows if r.split(",")[-1] == "0"]
        rows_text = "".join(r + "\n" for r in rows)
        if (len(rows) != self.KMAX or d_zeros != [str(k) for k in FAITHFUL_D_ZEROS]
                or hashlib.sha256(rows_text.encode()).hexdigest()
                != expected("path-tables")["rows_sha256"]):
            failed.append(1)
        info = _json(outputs[2])
        if not (isinstance(info, dict) and info.get("kmax") == self.KMAX
                and info.get("d_p_positions") == 34):
            failed.append(2)
        if outputs[3].code != 0 or outputs[3].stdout != rows_text:
            failed.append(3)
        return failed


# ---- sequential-paths --------------------------------------------------------

class SequentialPaths(Workload):
    """The O(n) decision on a million-vertex path, plus the exhaustive oracle suite."""

    N = 1_000_000

    def make(self) -> None:
        self.requests = [
            ["sequential", "--graph", f"path:{self.N}", "--order", "random",
             "--seed", str(self.seed), "--format", "json"],
            ["verify", "sequential", "--n", "8", "--exhaustive", "--format", "json"],
        ]

    def check(self, outputs: list[Output]) -> list[int]:
        # no oracle reaches a million vertices: the outcome is checked against
        # the recorded one for the default seed only; for every seed, the
        # exhaustive suite checks the same decision against brute force
        failed = []
        rec = _json(outputs[0])
        perm = list(range(self.N))
        random.Random(self.seed).shuffle(perm)
        ok = (isinstance(rec, dict) and rec.get("n") == self.N and rec.get("order") == perm
              and rec.get("outcome") in ("N", "P")
              and rec.get("winner") == ("first" if rec["outcome"] == "N" else "second"))
        if ok and self.seed == DEFAULT_SEED:
            ok = rec["outcome"] == expected("sequential-paths")["outcome"]
        if not ok:
            failed.append(0)
        lines = _json_lines(outputs[1])
        if not (lines and all(r.get("ok") for r in lines[:-1])
                and lines[-1].get("passed") == lines[-1].get("total") == 8):
            failed.append(1)
        return failed


WORKLOADS = {
    "search-cold": SearchCold,
    "solve-mix": SolveMix,
    "path-tables": PathTables,
    "sequential-paths": SequentialPaths,
}
