"""Impartial graph coloring games.

Sprague-Grundy engine for six vertex-coloring rulesets, fast tables for the
oriented Blue-Red path game, a linear-time solver for sequential coloring on
paths, and Node-Kayles reduction gadgets.

Import each name from the module that defines it; importing the package
alone loads no engine module.
"""

__version__ = "0.1.0"
