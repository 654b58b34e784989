"""The table commands: grundy-seq, p-positions and tables.

grundy-seq --checkpoint is the one command that writes or grows a table
file; tables info and tables export-csv read one. They run the
directed-path class tables of oriented_paths alone, so they load neither
the graph model nor the rulesets.
"""

from __future__ import annotations

import os
import sys
import time
from typing import TextIO

from . import cli, oriented_paths as op
from .base import MemoryBudgetExceeded
from .cli_output import destination, emit


def _table_slice(table: op.GrundyTable, kmax: int) -> op.GrundyTable:
    if table.K == kmax:
        return table
    return op.GrundyTable(K=kmax, gA=table.gA[: kmax + 1], gC=table.gC[: kmax + 1],
                          gD=table.gD[: kmax + 1])


def _summary(view: op.GrundyTable) -> dict:
    report = op.classify_rare_common(view)
    return {
        "d_p_positions": len(op.enumerate_p_positions(view, op.CLASS_D)),
        "max_value": report.max_value,
        "largest_rare_index": report.max_rare_index,
    }


def _grow(args) -> op.GrundyTable:
    """The table grown to --kmax in chunks of --checkpoint-every lengths,
    resumed from the --checkpoint file when it exists and saved there after
    each chunk, so an interrupted or budget-stopped run leaves a loadable
    file. Each save prints the chunk's K and its own rows per second on
    stderr."""
    path = args.checkpoint
    table = op.load_table(path) if os.path.exists(path) else None
    t = time.perf_counter()
    while table is None or table.K < args.kmax:
        done = table.K if table else 0
        K = min(done + args.checkpoint_every, args.kmax)
        table = op.extend_table(table, K) if table else op.compute_tables(K)
        op.save_table(table, path)
        now = time.perf_counter()
        print(f"K={K} ({(K - done) / (now - t):.0f} rows/s)", file=sys.stderr)
        t = now
    return table


def cmd_grundy_seq(args, out: TextIO) -> int:
    try:
        table = _grow(args) if args.checkpoint else op.compute_tables(args.kmax)
    except MemoryBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.checkpoint and os.path.exists(args.checkpoint):
            print(f"checkpoint retained: {args.checkpoint}", file=sys.stderr)
        return cli.EXIT_BUDGET

    view = _table_slice(table, args.kmax)
    with destination(args.out, out) as dest:
        summary = _summary(view)
        if args.format == "json":
            for k in range(1, args.kmax + 1):
                emit({"k": k, "gA": table.gA[k], "gC": table.gC[k], "gD": table.gD[k]},
                     "json", dest)
            emit({"summary": summary}, "json", dest)
        else:
            op.export_csv(view, dest)
            dest.write("# summary "
                       + " ".join(f"{key}={val}" for key, val in summary.items())
                       + "\n")
    return cli.EXIT_OK


def cmd_p_positions(args, out: TextIO) -> int:
    table = op.compute_tables(args.kmax)
    lengths = op.enumerate_p_positions(table, args.klass)
    record = {
        "class": args.klass,
        "kmax": args.kmax,
        "count": len(lengths),
        "lengths": lengths,
    }
    emit(record, args.format, out)
    return cli.EXIT_OK


def cmd_tables(args, out: TextIO) -> int:
    if args.table_cmd == "export-csv" and args.format == "json" and not args.out:
        # the JSON record describes a written file; stdout gets plain CSV rows
        raise ValueError("export-csv --format json needs --out")
    table = op.load_table(args.table)
    if args.table_cmd == "info":
        record = {
            "kmax": table.K,
            "max_gA": max(table.gA),
            "max_gC": max(table.gC),
            "max_gD": max(table.gD),
            "d_p_positions": len(op.enumerate_p_positions(table, op.CLASS_D)),
        }
        emit(record, args.format, out)
        return cli.EXIT_OK
    if args.out:  # export-csv
        op.export_csv(table, args.out)
        emit({"kmax": table.K, "file": args.out}, args.format, out)
    else:
        op.export_csv(table, out)
    return cli.EXIT_OK
