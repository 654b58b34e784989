"""Command line front end for the coloring game engine.

Subcommands:
  solve        outcome/Grundy verdict for one position (closed forms and
               involution pairings tried before exhaustive search)
  grundy-seq   stream the directed-path class tables as CSV plus a summary
  p-positions  lengths with Grundy value 0 in one path class
  sequential   linear-time decision for the fixed-order path game
  reduce       embed a Node-Kayles instance into a richer ruleset
  verify       oracle-equivalence suites (recursion, sequential, reductions,
               closed-forms)
  tables       inspect or export a grundy-seq --checkpoint table file

Exit codes: 0 computed, 2 parse or usage error, 3 memory budget exceeded or
search recursion too deep for the interpreter's stack (for example
--method search on oriented-br dpath:2500), 4 verification failure. All
output is deterministic for fixed flags; the random suites demand an
explicit --seed.
The COLORING_GAMES_TT_BYTES environment variable caps the bytes of each
graph, checked before it is built, and of the solver and class tables.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import os
import sys
from typing import TYPE_CHECKING

from .base import MemoryBudgetExceeded

if TYPE_CHECKING:
    from .graphs import Graph, GraphDocument

# This module holds only what every command needs before it dispatches: the
# parser, main and the graph input. main imports the handler module of the
# command it runs (cli_solve, cli_sequential, cli_reduce, cli_verify or
# cli_tables), so a process compiles only its own handler, and each handler
# imports the engine modules it runs. Only base is imported here.
#
# The engine calls that benchmark/tracer.py wraps by name on this module go
# through this module's namespace: _load_graph reads its names as globals,
# and the handlers read theirs as attributes of cli when they call them, so
# a wrapper set here sees every call. _engine() binds the names on first
# use, and the module __getattr__ binds them for a reader from outside.
_ENGINE = {
    "graphs": ("build_family", "load_graph_file", "parse_family_spec"),
    "rulesets": ("OUTCOME_UNKNOWN", "closed_form_outcome", "outcome_by_involution"),
}


@functools.cache
def _engine() -> None:
    """Bind the _ENGINE names into this module, keeping any already set."""
    for module, names in _ENGINE.items():
        source = importlib.import_module(f".{module}", __package__)
        for name in names:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    # an _ENGINE name read before a command bound it
    if any(name in names for names in _ENGINE.values()):
        _engine()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _load_graph(args) -> tuple[Graph, str, GraphDocument | None]:
    """Graph from --graph shorthand or --file, plus a printable source name."""
    _engine()
    spec, path = args.graph, args.file
    if spec and path:
        raise ValueError("give --graph or --file, not both")
    if spec:
        return parse_family_spec(spec), spec, None
    if path:
        doc = load_graph_file(path)
        return doc.graph, path, doc
    raise ValueError("a graph is required (--graph NAME:PARAMS or --file PATH)")


# ---- argument parsing -------------------------------------------------------

def _positive(text: str) -> int:
    """argparse type for size flags: an integer >= 1."""
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output as key/value text or JSON lines")


def _add_graph_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", metavar="SPEC",
                   help="family shorthand: path:n cycle:n grid:a,b hypercube:d "
                        "dpath:n dcycle:n complete_binary_tree:d")
    p.add_argument("--file", metavar="PATH", help="graph text file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state in
    it, and argparse looks up stdout and stderr when it writes."""
    parser = argparse.ArgumentParser(
        prog="coloring-games",
        description="Impartial graph coloring games: solving, path-class "
                    "Grundy tables, Kayles reductions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="outcome and Grundy value of one position")
    _add_graph_inputs(p)
    # sorted(rulesets.RULESET_TOKENS), spelled out so that building the
    # parser loads no ruleset code
    p.add_argument("--ruleset", choices=("distance", "oriented", "oriented-br", "proper",
                                         "sequential", "weak"), required=True)
    p.add_argument("--k", type=int, help="number of colors")
    p.add_argument("--d", type=int, help="distance bound (distance ruleset only)")
    p.add_argument("--method", choices=("auto", "closed-form", "involution", "search"),
                   default="auto", help="force one solving method")
    _add_format(p)
    p.set_defaults(handler=("cli_solve", "cmd_solve"))

    p = sub.add_parser("grundy-seq", help="stream class tables as CSV")
    p.add_argument("--kmax", type=int, required=True)
    # oriented_paths' MODE_NAIVE and MODE_ACCELERATED, spelled out so that
    # building the parser loads no table code
    p.add_argument("--mode", choices=("naive", "accelerated"), default="naive",
                   help="accepted for compatibility; both values run the one table fill")
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="binary table file to resume from and persist to")
    p.add_argument("--checkpoint-every", type=_positive, default=4096, metavar="N",
                   help="chunk size between checkpoint saves")
    _add_format(p)
    p.set_defaults(handler=("cli_tables", "cmd_grundy_seq"))

    p = sub.add_parser("p-positions", help="zero-value lengths in one class")
    p.add_argument("--kmax", type=int, default=8084)
    p.add_argument("--class", dest="klass", choices=("A", "B", "C", "D"),  # PATH_CLASSES
                   default="D")
    _add_format(p)
    p.set_defaults(handler=("cli_tables", "cmd_p_positions"))

    p = sub.add_parser("sequential", help="decide the fixed-order path game")
    _add_graph_inputs(p)
    p.add_argument("--order", metavar="ORDER",
                   help="visit order: vertex ids, or 'random' with --seed")
    p.add_argument("--seed", type=int)
    p.add_argument("--check", action="store_true",
                   help="cross-check against the brute-force oracle")
    _add_format(p)
    p.set_defaults(handler=("cli_sequential", "cmd_sequential"))

    p = sub.add_parser("reduce", help="embed Node-Kayles into a richer ruleset")
    _add_graph_inputs(p)
    p.add_argument("--from", dest="source_game", choices=("kayles",), required=True)
    # sorted(cli_reduce.REDUCERS), spelled out so that building the parser
    # compiles no handler
    p.add_argument("--to", choices=("distance", "oriented", "oriented-br", "proper"),
                   required=True)
    p.add_argument("--k", type=int, help="colors in the target game")
    p.add_argument("--out", metavar="PATH", help="write graph text here")
    p.add_argument("--verify", action="store_true",
                   help="replay both games in lockstep (small graphs only)")
    _add_format(p)
    p.set_defaults(handler=("cli_reduce", "cmd_reduce"))

    p = sub.add_parser("verify", help="run an oracle-equivalence suite")
    # sorted(cli_verify.SUITES), spelled out the same way
    p.add_argument("suite", choices=("closed-forms", "recursion", "reductions", "sequential"))
    p.add_argument("--n", type=_positive, help="size bound where the suite takes one")
    p.add_argument("--kmax", type=_positive, help="length bound for the recursion suite")
    p.add_argument("--exhaustive", action="store_true",
                   help="all permutations instead of samples (sequential suite)")
    p.add_argument("--samples", type=_positive, default=2000)
    p.add_argument("--seed", type=int)
    _add_format(p)
    p.set_defaults(handler=("cli_verify", "cmd_verify"))

    p = sub.add_parser("tables", help="binary table files")
    tsub = p.add_subparsers(dest="table_cmd", required=True)
    t = tsub.add_parser("info")
    t.add_argument("--table", required=True)
    _add_format(t)
    t.set_defaults(handler=("cli_tables", "cmd_tables"))
    t = tsub.add_parser("export-csv")
    t.add_argument("--table", required=True)
    t.add_argument("--out", help="CSV path; stdout when omitted")
    _add_format(t)
    t.set_defaults(handler=("cli_tables", "cmd_tables"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    module, name = args.handler
    handler = getattr(importlib.import_module(f".{module}", __package__), name)
    try:
        return handler(args, sys.stdout)
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); quiesce stdout so the
        # interpreter does not complain at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: search recursion too deep for the interpreter's stack; "
              "the position is too large for exhaustive search", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    # the handlers import this module by its package name; under
    # `python -m coloring_games.cli` it runs as __main__, so it is registered
    # under that name rather than compiled a second time
    sys.modules[f"{__package__}.cli"] = sys.modules[__name__]
    sys.exit(main())
