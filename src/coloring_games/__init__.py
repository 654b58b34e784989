"""Impartial graph coloring games.

Sprague-Grundy engine for six vertex-coloring rulesets, fast tables for the
oriented Blue-Red path game, a linear-time solver for sequential coloring on
paths, and Node-Kayles reduction gadgets.

The names below resolve on first access (PEP 562), so importing the package,
or one of its modules, loads only the modules that are used.
"""

import importlib

# the submodule that defines each package-level name
_EXPORTS = {
    "games": (
        "IllegalColoringError",
        "IllegalMoveError",
        "MemoryBudgetExceeded",
        "Move",
        "Position",
        "apply_move",
        "best_move",
        "clear_solver_cache",
        "grundy",
        "legal_moves",
        "mex",
        "nim_sum",
        "outcome",
    ),
    "graphs": (
        "FIXED_POINT_FREE",
        "SINGLE_FIXED_POINT",
        "Graph",
        "GraphDocument",
        "GraphFormatError",
        "InvolutionSearchBudget",
        "UnknownFamilyError",
        "build_family",
        "find_involution",
        "load_graph_file",
        "make_graph",
        "parse_family_spec",
        "parse_graph_text",
        "format_graph_text",
        "power_graph",
        "save_graph_file",
    ),
    "oriented_paths": (
        "GrundyTable",
        "RareCommonReport",
        "TableChecksumError",
        "TableFormatError",
        "TableVersionError",
        "build_class_position",
        "classify_rare_common",
        "compute_tables",
        "enumerate_p_positions",
        "export_csv",
        "extend_table",
        "is_rare",
        "load_table",
        "rare_set",
        "save_table",
        "winning_move_AB",
    ),
    "reductions": (
        "EquivalenceReport",
        "ReducedInstance",
        "reduce_to_distance_2k",
        "reduce_to_oriented_br",
        "reduce_to_oriented_k",
        "reduce_to_proper_k",
        "verify_equivalence",
    ),
    "rulesets": (
        "BLUE",
        "RED",
        "DistanceColoring",
        "OrientedBlueRed",
        "OrientedColoring",
        "ProperColoring",
        "RulesetMismatchError",
        "SequentialColoring",
        "WeakColoring",
        "closed_form_outcome",
        "is_legal_coloring",
        "outcome_by_involution",
    ),
    "sequential": (
        "brute_force_outcome",
        "classify",
        "decide_outcome",
        "decide_path",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        # a submodule's name ends up here before `from . import games` imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
