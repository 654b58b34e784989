"""Output of the command handlers: records as key/value text or JSON lines."""

from __future__ import annotations

import contextlib
import json
from array import array
from typing import ContextManager, TextIO

# list items per write in both formats, so a million-entry order is never
# joined into one string
_CHUNK = 4096

_SEQUENCES = (list, tuple, array)


def _write_items(val, fmt: str, out: TextIO) -> None:
    """The items of val, _CHUNK per write: JSON array items (without the
    brackets) or space-separated text."""
    for i in range(0, len(val), _CHUNK):
        chunk = val[i : i + _CHUNK]
        if fmt == "json":
            out.write((", " if i else "") + json.dumps(list(chunk))[1:-1])
        else:
            out.write((" " if i else "") + " ".join(map(str, chunk)))


def emit(record: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        # byte-identical to json.dumps(record, sort_keys=True), written key
        # by key so a long list is never held as one string
        out.write("{")
        for i, key in enumerate(sorted(record)):
            val = record[key]
            out.write((", " if i else "") + json.dumps(key) + ": ")
            if isinstance(val, _SEQUENCES):
                out.write("[")
                _write_items(val, fmt, out)
                out.write("]")
            else:
                out.write(json.dumps(val, sort_keys=True))
        out.write("}\n")
        return
    for key, val in record.items():
        if isinstance(val, _SEQUENCES):
            out.write(f"{key}: ")
            _write_items(val, fmt, out)
            out.write("\n")
            continue
        if isinstance(val, dict):
            val = " ".join(f"{k}={v}" for k, v in val.items())
        out.write(f"{key}: {val}\n")


def destination(path: str | None, out: TextIO) -> ContextManager[TextIO]:
    """The file at path, opened for writing, or out when no path is given."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(out)
