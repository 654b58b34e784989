"""The pieces every engine module shares: the immutable value base and the
byte budget.

Frozen is the base of every value type (graphs, rulesets, positions, class
tables, reduced instances). The byte budget, read from
COLORING_GAMES_TT_BYTES, caps each graph, checked before it is built, and
the solver and class tables, which count against it as they grow;
MemoryBudgetExceeded is what passing it raises. This module imports nothing
of the package, so `import coloring_games.cli` loads it and no engine module.
"""

from __future__ import annotations

import os


class MemoryBudgetExceeded(RuntimeError):
    """A graph, solver table or class table would pass the configured byte budget."""


class Frozen:
    """An immutable value. Its __init__ fills the instance dict with its
    fields, in order, and it compares, hashes and prints by them; every
    assignment and deletion raises AttributeError."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={val!r}" for name, val in vars(self).items())
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is immutable")

    __delattr__ = __setattr__


# ---- byte budget -----------------------------------------------------------

TT_BYTES_ENV = "COLORING_GAMES_TT_BYTES"
_DEFAULT_TT_BYTES = 1 << 30


def byte_budget() -> int:
    """Memory cap for graphs and tables, from COLORING_GAMES_TT_BYTES (default 1 GiB)."""
    raw = os.environ.get(TT_BYTES_ENV)
    if raw is None:
        return _DEFAULT_TT_BYTES
    try:
        val = int(raw)
    except ValueError:
        raise ValueError(f"{TT_BYTES_ENV} must be an integer, got {raw!r}") from None
    if val <= 0:
        raise ValueError(f"{TT_BYTES_ENV} must be positive")
    return val


def check_bytes(need: int, what: str) -> None:
    """Refuse what, which needs at least need bytes, if that passes the budget."""
    if need > byte_budget():
        raise MemoryBudgetExceeded(
            f"{what} needs at least {need} bytes, over the configured budget"
        )
