"""Spans and counts at the boundaries between the CLI and the engine modules.

The tracer wraps, from outside the package, the module attributes that
`coloring_games.cli` (and `games.best_move`) look up at call time, so no
engine file changes. Spans nest on one stack: the benchmark runs a single
thread, and `solve --threads` stays at its default of 1. Every span records
its parent, so a layer's self time is its duration minus its direct
children's durations. The one exception is `reductions`: its spans keep the
engine calls nested in them (the reduced position's `Position.start`, the
verification's `grundy` and `legal_moves`), and those calls are left out of
the `games.*` metrics, so `games.*` covers only what a request asks of the
engine directly.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

from coloring_games import cli, games, oriented_paths as op, reductions, sequential as seq

# per-layer metrics a traced run reports, with their units; every workload
# prints all of them, and a layer the workload leaves idle reads 0
LAYER_UNITS = {
    "cli.self_s": "s",
    "graphs.parse_s": "s",
    "games.position_s": "s",
    "games.grundy_s": "s",
    "games.grundy_calls": "count",
    "games.best_move_s": "s",
    "games.best_move_candidates": "count",
    "games.legal_moves_calls": "count",
    "games.moves_generated": "count",
    "rulesets.closed_form_s": "s",
    "rulesets.closed_form_calls": "count",
    "rulesets.closed_form_hit_ratio": "ratio",
    "rulesets.involution_s": "s",
    "rulesets.involution_calls": "count",
    "rulesets.involution_hit_ratio": "ratio",
    "rulesets.involution_wasted_s": "s",
    "oriented_paths.fill_s.naive": "s",
    "oriented_paths.fill_s.accelerated": "s",
    "oriented_paths.options_per_s.naive": "1/s",
    "oriented_paths.options_per_s.accelerated": "1/s",
    "oriented_paths.fill_bytes_computed": "B",
    "oriented_paths.save_s": "s",
    "oriented_paths.load_s": "s",
    "oriented_paths.table_bytes_written": "B",
    "oriented_paths.report_s": "s",
    "oriented_paths.export_s": "s",
    "sequential.decide_s": "s",
    "sequential.vertices_per_s": "1/s",
    "sequential.oracle_s": "s",
    "sequential.oracle_calls": "count",
    "reductions.reduce_s": "s",
    "reductions.verify_s": "s",
    "reductions.pairs_checked": "count",
    "trace.overhead_s": "s",
}


def fill_options(start: int, K: int) -> int:
    """Mex options the class recursion evaluates for lengths start..K.

    Computed from the recursion, not counted: length k has 2k-6 options for
    C, 2k-3 for A and 2k for D (each family clamped at 0), about 3K^2 in all.
    """
    return sum(max(2 * k - 6, 0) + max(2 * k - 3, 0) + 2 * k
               for k in range(max(start, 1), K + 1))


class Tracer:
    """Keeps spans and counts in memory while its wrappers are installed."""

    SPAN_FIELDS = ("id", "parent", "request", "name", "start_s", "end_s")

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack = [0]
        self._reductions_depth = 0  # > 0 while a reductions span is open
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, after=None, **kwargs):
        """Run fn inside a span; after(result, seconds, args, kwargs) may add counts."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        reductions = name.startswith("reductions.")
        self._reductions_depth += reductions
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._reductions_depth -= reductions
            self.spans.append((sid, parent, self.request, name, t0, t1))
        if after is not None:
            after(result, t1 - t0, args, kwargs)
        return result

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, original, *args, after=after, **kwargs)

        self._patch(owner, attr, wrapper)

    def _count(self, owner, attr: str, after) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(result)
            return result

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # ---- install / uninstall -----------------------------------------------

    def install(self) -> None:
        counts = self.counts

        for attr in ("parse_family_spec", "build_family", "load_graph_file"):
            self._wrap(cli, attr, "graphs.parse")

        start = games.Position.__dict__["start"].__func__
        tracer = self
        self._patch(games.Position, "start", classmethod(
            lambda cls, *a, **kw: tracer.call("games.position", start, cls, *a, **kw)))

        self._wrap(games, "grundy", "games.grundy")
        self._wrap(games, "best_move", "games.best_move")

        def moves(result):
            if not self._reductions_depth:
                counts["games.legal_moves_calls"] += 1
                counts["games.moves_generated"] += len(result)

        self._count(games, "legal_moves", moves)

        def involution(result, dt, args, kwargs):
            if result == cli.OUTCOME_UNKNOWN:
                counts["rulesets.involution_wasted_s"] += dt

        self._wrap(cli, "closed_form_outcome", "rulesets.closed_form")
        self._wrap(cli, "outcome_by_involution", "rulesets.involution", involution)

        for attr in ("compute_tables", "extend_table"):
            self._wrap_fill(attr)

        def saved(result, dt, args, kwargs):
            dest = args[1] if len(args) > 1 else kwargs["dest"]
            if isinstance(dest, str):
                counts["oriented_paths.table_bytes_written"] += os.path.getsize(dest)

        self._wrap(op, "save_table", "oriented_paths.save", saved)
        self._wrap(op, "load_table", "oriented_paths.load")
        self._wrap(op, "classify_rare_common", "oriented_paths.report")
        self._wrap(op, "enumerate_p_positions", "oriented_paths.report")
        self._wrap(op, "export_csv", "oriented_paths.export")

        def decided(n_of):
            def after(result, dt, args, kwargs):
                counts["sequential.vertices"] += n_of(args)
            return after

        self._wrap(seq, "decide_outcome", "sequential.decide", decided(lambda a: a[0].n))
        self._wrap(seq, "decide_path", "sequential.decide", decided(lambda a: len(a[0])))
        self._wrap(seq, "brute_force_outcome", "sequential.oracle")

        for attr in ("reduce_to_proper_k", "reduce_to_oriented_k",
                     "reduce_to_oriented_br", "reduce_to_distance_2k"):
            self._wrap(reductions, attr, "reductions.reduce")

        def verified(result, dt, args, kwargs):
            counts["reductions.pairs_checked"] += result.pairs_checked

        self._wrap(reductions, "verify_equivalence", "reductions.verify", verified)

    def _wrap_fill(self, attr: str) -> None:
        """compute_tables(K, mode) and extend_table(table, K, mode), by mode."""
        original = getattr(op, attr)
        extend = attr == "extend_table"
        tracer = self

        def wrapper(*args, **kwargs):
            a = dict(zip(("table", "K", "mode") if extend else ("K", "mode"), args), **kwargs)
            start = a["table"].K + 1 if extend else 1
            mode = a.get("mode", op.MODE_NAIVE)
            tracer.counts[f"oriented_paths.options.{mode}"] += fill_options(start, a["K"])
            return tracer.call(f"oriented_paths.fill.{mode}", original, *args, **kwargs)

        self._patch(op, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- per-layer metrics -------------------------------------------------

    def layer_totals(self, methods: Counter) -> dict[str, float]:
        """Self time per span name plus counts, summed over everything traced.

        A reductions span counts its whole duration, and the spans nested in
        it count nowhere else. methods counts the `method` field of the solve
        outputs, which gives the shortcut hit ratios their numerators.
        """
        child = defaultdict(float)
        names = {}
        parents = {}
        for sid, parent, _req, name, t0, t1 in self.spans:
            child[parent] += t1 - t0
            names[sid] = name
            parents[sid] = parent

        def in_reductions(sid: int) -> bool:
            while sid:
                sid = parents.get(sid, 0)
                if names.get(sid, "").startswith("reductions."):
                    return True
            return False

        self_s = defaultdict(float)
        calls = Counter()
        for sid, parent, _req, name, t0, t1 in self.spans:
            if in_reductions(sid):
                continue
            inclusive = name.startswith("reductions.")
            self_s[name] += (t1 - t0) - (0.0 if inclusive else child[sid])
            calls[name] += 1
        candidates = sum(1 for sid, parent, _r, name, _a, _b in self.spans
                         if name == "games.grundy" and names.get(parent) == "games.best_move"
                         and not in_reductions(sid))

        c = self.counts
        out = {
            "cli.self_s": self_s["cli"],
            "graphs.parse_s": self_s["graphs.parse"],
            "games.position_s": self_s["games.position"],
            "games.grundy_s": self_s["games.grundy"],
            "games.grundy_calls": calls["games.grundy"],
            "games.best_move_s": self_s["games.best_move"],
            "games.best_move_candidates": candidates,
            "games.legal_moves_calls": c["games.legal_moves_calls"],
            "games.moves_generated": c["games.moves_generated"],
            "rulesets.closed_form_s": self_s["rulesets.closed_form"],
            "rulesets.closed_form_calls": calls["rulesets.closed_form"],
            "rulesets.closed_form_hit_ratio": _ratio(methods["closed-form"],
                                                     calls["rulesets.closed_form"]),
            "rulesets.involution_s": self_s["rulesets.involution"],
            "rulesets.involution_calls": calls["rulesets.involution"],
            "rulesets.involution_hit_ratio": _ratio(methods["involution"],
                                                    calls["rulesets.involution"]),
            "rulesets.involution_wasted_s": c["rulesets.involution_wasted_s"],
            "oriented_paths.fill_bytes_computed": 4 * (c["oriented_paths.options.naive"]
                                                       + c["oriented_paths.options.accelerated"]),
            "oriented_paths.save_s": self_s["oriented_paths.save"],
            "oriented_paths.load_s": self_s["oriented_paths.load"],
            "oriented_paths.table_bytes_written": c["oriented_paths.table_bytes_written"],
            "oriented_paths.report_s": self_s["oriented_paths.report"],
            "oriented_paths.export_s": self_s["oriented_paths.export"],
            "sequential.decide_s": self_s["sequential.decide"],
            "sequential.vertices_per_s": _ratio(c["sequential.vertices"],
                                                self_s["sequential.decide"]),
            "sequential.oracle_s": self_s["sequential.oracle"],
            "sequential.oracle_calls": calls["sequential.oracle"],
            "reductions.reduce_s": self_s["reductions.reduce"],
            "reductions.verify_s": self_s["reductions.verify"],
            "reductions.pairs_checked": c["reductions.pairs_checked"],
        }
        for mode in (op.MODE_NAIVE, op.MODE_ACCELERATED):
            fill = self_s[f"oriented_paths.fill.{mode}"]
            out[f"oriented_paths.fill_s.{mode}"] = fill
            out[f"oriented_paths.options_per_s.{mode}"] = _ratio(
                c[f"oriented_paths.options.{mode}"], fill)
        return out


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer was never called (den is reported beside it)."""
    return num / den if den else 0.0
