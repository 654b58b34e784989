"""The table commands: grundy-seq, p-positions and tables.

They run the directed-path class tables of oriented_paths alone, so they
load neither the graph model nor the rulesets.
"""

from __future__ import annotations

import json
import os
import sys
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


def cmd_grundy_seq(args, out: TextIO) -> int:
    try:
        if args.checkpoint:
            for table in op.grow_table(args.kmax, args.checkpoint,
                                       args.checkpoint_every):
                pass  # each chunk is saved before the next one starts
        else:
            table = op.compute_tables(args.kmax)
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
                dest.write(json.dumps(
                    {"k": k, "gA": table.gA[k], "gC": table.gC[k], "gD": table.gD[k]},
                    sort_keys=True) + "\n")
            dest.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
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
    if args.table_cmd == "compute":
        table = op.compute_tables(args.kmax)
        op.save_table(table, args.out)
        emit({"kmax": table.K, "file": args.out}, args.format, out)
        return cli.EXIT_OK
    if args.table_cmd == "extend":
        table = op.load_table(args.table)
        table = op.extend_table(table, args.kmax)
        dest = args.out or args.table
        op.save_table(table, dest)
        emit({"kmax": table.K, "file": dest}, args.format, out)
        return cli.EXIT_OK
    if args.table_cmd == "info":
        table = op.load_table(args.table)
        record = {
            "kmax": table.K,
            "max_gA": max(table.gA),
            "max_gC": max(table.gC),
            "max_gD": max(table.gD),
            "d_p_positions": len(op.enumerate_p_positions(table, op.CLASS_D)),
        }
        emit(record, args.format, out)
        return cli.EXIT_OK
    table = op.load_table(args.table)  # export-csv
    if args.out:
        op.export_csv(table, args.out)
        emit({"kmax": table.K, "file": args.out}, args.format, out)
    else:
        op.export_csv(table, out)
    return cli.EXIT_OK
