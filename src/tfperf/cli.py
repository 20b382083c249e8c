"""Command-line surface: config ingestion, experiments, report emission.

Reports carry a schema_version and a generated_by echo. CSV output is plain
comma separation with '.' decimals; JSON keeps insertion key order and
round-trips losslessly. Exit codes: 0 ok, 2 bad config, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from itertools import chain
from operator import itemgetter

import numpy as np

from . import mapspace
from .archsearch import CostCache, DEFAULT_SPACE, evolve, space_from_json
from .fusion import PAIR_NAMES, fusion_sweep
from .hwmodel import (InfeasibleConfigError, accel_from_json, accel_preset,
                      costs_intensity, memory_split_sweep, model_costs,
                      report_intensity)
from .workload import (ConfigError, Mode, category_of, flops, intensity,
                       model_from_json, model_ops, model_preset, mops)

SCHEMA_VERSION = "1"


def _load_model(name: str, seq_len: int | None):
    """A preset or JSON model file; with no seq_len, the file's (else 512)."""
    if name.endswith(".json") or os.path.sep in name:
        with open(name, encoding="utf-8") as f:
            return model_from_json(f.read(), seq_len=seq_len)
    return model_preset(name) if seq_len is None else model_preset(name, seq_len)


def _load_accel(name: str):
    if name.endswith(".json") or os.path.sep in name:
        with open(name, encoding="utf-8") as f:
            return accel_from_json(f.read())
    return accel_preset(name)


# ---------------------------------------------------------------------------
# Command handlers: each returns (rows, columns, extra tables), every row a
# tuple in column order and each extra table a (rows, columns) pair
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    cfg = _load_model(args.model, args.seqlen)
    cnn = cfg.mode is Mode.Cnn
    cols = ["name", "op_class", "category", "flops", "mops", "arithmetic_intensity"]
    rows = []
    for op in model_ops(cfg):
        f, m = flops(op), mops(op)
        rows.append((op.name, op.op_class.value, category_of(op, cnn=cnn), f, m,
                     intensity(f, m)))
    return rows, cols, {}


def cmd_latency(args):
    cfg = _load_model(args.model, args.seqlen)
    accel = _load_accel(args.accel)
    cols = ["name", "op_class", "latency_cycles", "energy_pj", "compute_bound"]
    rows = []
    lat = energy = 0.0
    for op, rep in model_costs(cfg, accel):
        rows.append((op.name, op.op_class.value, rep.latency, rep.energy, rep.compute_bound))
        lat += rep.latency
        energy += rep.energy
    rows.append(("total", "", lat, energy, ""))
    return rows, cols, {}


def cmd_nonideal_ai(args):
    cfg = _load_model(args.model, args.seqlen)
    accel = _load_accel(args.accel)
    costs = model_costs(cfg, accel)
    cols = ["name", "flops", "ideal_ai", "nonideal_ai"]
    rows = []
    for op, rep in costs:
        f, m = flops(op), mops(op)
        rows.append((op.name, f, intensity(f, m), report_intensity(op, rep)))
    rows.append(("model", sum(flops(op) for op, _ in costs), "", costs_intensity(costs)))
    return rows, cols, {}


def cmd_memsweep(args):
    cfg = _load_model(args.model, args.seqlen)
    accel = _load_accel(args.accel)
    sweep_rows, best = memory_split_sweep(cfg, accel, args.total_kb)
    cols = ["scratchpad_kb", "accumulator_kb", "latency_cycles", "feasible", "best"]
    rows = [(*row, i == best) for i, row in enumerate(sweep_rows)]
    return rows, cols, {}


def cmd_mapsearch(args):
    accel = _load_accel(args.accel)
    try:
        nest = mapspace.NAMED_NESTS[args.op]
    except KeyError:
        raise ConfigError(f"unknown op {args.op!r}; choose from "
                          f"{sorted(mapspace.NAMED_NESTS)}") from None
    lat, en = mapspace.sample_costs(nest, accel, args.samples, args.seed)
    if args.format == "json":
        stats = mapspace.stats_from_costs(lat, en)
        cols = ["n_samples", "min_edp", "p10", "spread", "frac_within_3x"]
        rows = [(stats.n_samples, stats.min_edp, stats.p10, stats.spread, stats.frac_within(3.0))]
        return rows, cols, {}
    edp = lat * en
    rel = edp / edp.min()
    cols = ["sample_idx", "latency", "energy", "edp", "relative_edp"]
    rows = list(zip(range(len(lat)), lat.tolist(), en.tolist(), edp.tolist(), rel.tolist()))
    return rows, cols, {}


def cmd_fusion(args):
    accel = _load_accel(args.accel)
    pairs = dict.fromkeys(args.pair or PAIR_NAMES)
    acc_kbs = args.acc_kb or [128, 256]
    seq_lens = args.seqlen or [512, 4096]
    cols = ["pair", "accumulator_kb", "seq_len", "fused_latency",
            "nonfused_latency", "producer_penalty", "hidden_cycles",
            "verdict", "feasible", "reason"]
    rows = []
    for name in pairs:
        grid = fusion_sweep(name, accel, acc_kbs, seq_lens)
        rows.extend((name, kb, l, r.fused_latency, r.nonfused_latency, r.producer_penalty,
                     r.hidden_cycles, r.verdict.value, r.feasible, r.reason)
                    for (kb, l), r in sorted(grid.items()))
    return rows, cols, {}


TRACE_COLUMNS = ["round", "best_edp", "front_size"]


def cmd_search(args):
    accel = _load_accel(args.accel)
    if args.space:
        with open(args.space, encoding="utf-8") as f:
            space = space_from_json(f.read())
    else:
        space = DEFAULT_SPACE
    front = evolve(space, accel, pop=args.pop, rounds=args.rounds,
                   p=args.mutation, seed=args.seed, cache=CostCache(accel))
    if args.format == "json":
        cols = ["N", "d", "h", "d_FFN", "quality", "edp"]
        rows = [(c.N, c.d, c.h, c.d_FFN, c.quality, c.edp) for c in front.points]
        return rows, cols, {"trace": (front.trace, TRACE_COLUMNS)}
    return front.trace, TRACE_COLUMNS, {}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _number_columns(rows: list, width: int) -> list | None:
    """Each column of an all-number table as a pair: (cells, None) for an int
    column, and (texts, index) for a float column, whose cell i reads
    texts[index[i]]. None unless every row has `width` cells and each column
    holds only exact ints or only exact floats; a str, bool or "" cell leaves
    the table to csv.writer.

    A float column is formatted once per distinct value, told apart by its
    IEEE bits: float equality would merge 0.0 with -0.0 and never match a NaN.
    Each text is the repr of the value's first cell, not of a new float: the
    float free list would keep some of those, and long-lived floats made
    later would pin their arenas, so that resident memory creeps per call.
    """
    if not width or set(map(len, rows)) != {width}:
        return None
    columns = []
    for j in range(width):
        cells = list(map(itemgetter(j), rows))
        kinds = set(map(type, cells))
        if kinds == {int}:
            columns.append((cells, None))
        elif kinds == {float}:
            _, first, index = np.unique(np.array(cells).view(np.uint64),
                                        return_index=True, return_inverse=True)
            texts = np.array([repr(cells[i]) for i in first.tolist()], dtype=object)
            columns.append((texts, index))
        else:
            return None
    return columns


def _csv_texts(rows: list, columns: list) -> list[str]:
    """A table's CSV text in pieces, byte for byte what csv.writer writes.

    An all-number table's lines are one %-format: %d gives str of an int, and
    %s each float cell's repr text. That makes no object per cell or line.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    number_columns = _number_columns(rows, len(columns))
    if number_columns is None:
        w.writerows(rows)
        return [buf.getvalue()]
    line = ",".join("%d" if index is None else "%s" for _, index in number_columns) + "\n"
    cells = [values if index is None else values[index].tolist()
             for values, index in number_columns]
    return [buf.getvalue(), (line * len(rows)) % tuple(chain.from_iterable(zip(*cells)))]


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
# between a row's cells, at the depth where indent=2 puts them
_CELL_SEPARATORS = (",\n      ", ": ")


def _scalar_table_json(table) -> str | None:
    """`table` as json.dumps(report, indent=2) writes it under a top-level
    key, if it is a list of non-empty objects with str keys and scalar cells;
    else None.

    The C encoder writes the list with each cell on its own line already, and
    only the row boundaries need re-indenting. Encoded JSON holds no raw
    newline, so "},\n      {" occurs only between two rows.
    """
    if type(table) is not list:
        return None
    if not table:
        return "[]"
    if (set(map(type, table)) != {dict} or not all(table)
            or set(map(type, chain.from_iterable(table))) != {str}
            or not set(map(type, chain.from_iterable(map(dict.values, table)))) <= _SCALAR_TYPES):
        return None
    text = json.dumps(table, separators=_CELL_SEPARATORS)
    return ("[\n    {\n      " + text[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
            + "\n    }\n  ]")


def _json_text(report: dict) -> str:
    """json.dumps(report, indent=2) + "\n", byte for byte.

    CPython's json runs its pure-Python encoder whenever `indent` is set. A
    report with str keys whose values are scalars or tables of scalar cells
    is put together from the C encoder's output instead; any other report
    (a `search` row's `h` is a list) keeps the indenting encoder.
    """
    pieces = []
    for key, value in report.items():
        text = json.dumps(value) if type(value) in _SCALAR_TYPES else _scalar_table_json(value)
        if text is None or type(key) is not str:
            return json.dumps(report, indent=2) + "\n"
        pieces.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(pieces) + "\n}\n" if pieces else "{}\n"


def emit(header: dict, tables: dict, fmt: str, out: str | None) -> int:
    """Serialize a report; returns the UTF-8 bytes written.

    Each table is a (rows, columns) pair, every row a tuple in column order.
    JSON writes the header keys and then each table as a list of objects;
    CSV writes the "rows" table alone.
    """
    if fmt == "json":
        report = {**header, **{key: [dict(zip(columns, row, strict=True)) for row in rows]
                               for key, (rows, columns) in tables.items()}}
        texts = [_json_text(report)]
    else:
        texts = _csv_texts(*tables["rows"])
    written = 0
    with (open(out, "w", encoding="utf-8", newline="") if out
          else contextlib.nullcontext(sys.stdout)) as f:
        for text in texts:
            f.write(text)
            written += len(text) if text.isascii() else len(text.encode("utf-8"))
    return written


def _common(p, model=True, seqlen=True, accel=True, seed=False):
    if model:
        p.add_argument("--model", default="bert-base",
                       help="model preset name or JSON config path")
    if accel:
        p.add_argument("--accel", default="gemmini-baseline",
                       help="accelerator preset name or JSON config path")
    if seqlen:
        p.add_argument("--seqlen", type=int, default=None,
                       help="sequence length (default: the model file's, else 512)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if seed:
        p.add_argument("--seed", type=int, default=0)


def _analyze_args(p):
    _common(p, accel=False)


def _memsweep_args(p):
    _common(p)
    p.add_argument("--total-kb", type=int, default=320)


def _mapsearch_args(p):
    _common(p, model=False, seqlen=False, seed=True)
    p.add_argument("--op", default="bert.mha",
                   help=f"named nest: one of {sorted(mapspace.NAMED_NESTS)}")
    p.add_argument("--samples", type=int, default=1000)


def _fusion_args(p):
    _common(p, model=False, seqlen=False)
    p.add_argument("--pair", action="append", choices=PAIR_NAMES)
    p.add_argument("--acc-kb", action="append", type=int)
    p.add_argument("--seqlen", action="append", type=int)


def _search_args(p):
    _common(p, model=False, seqlen=False, seed=True)
    p.add_argument("--space", default=None, help="search space JSON path")
    p.add_argument("--pop", type=int, default=40)
    p.add_argument("--rounds", type=int, default=40)
    p.add_argument("--mutation", type=float, default=0.2)


# subcommand -> (help, function adding its arguments, handler)
COMMANDS = {
    "analyze": ("FLOPs/MOPs/intensity per operator", _analyze_args, cmd_analyze),
    "latency": ("latency and energy per operator", _common, cmd_latency),
    "nonideal-ai": ("ideal vs modeled arithmetic intensity", _common, cmd_nonideal_ai),
    "memsweep": ("scratchpad/accumulator split sweep", _memsweep_args, cmd_memsweep),
    "mapsearch": ("random mapspace sampling statistics", _mapsearch_args, cmd_mapsearch),
    "fusion": ("fused vs non-fused scheduling sweep", _fusion_args, cmd_fusion),
    "search": ("evolutionary architecture search", _search_args, cmd_search),
}


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    _, add_args, handler = COMMANDS[command]
    add_args(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full `tfperf` parser, or with `command` that subcommand's parser
    alone, built as the full parser builds its subparser."""
    if command is not None:
        return _command_parser(argparse.ArgumentParser(prog=f"tfperf {command}"), command)
    parser = argparse.ArgumentParser(prog="tfperf",
                                     description="Accelerator performance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse with the named subcommand's parser alone; anything else (no
    subcommand, `-h`, an unknown command, arguments left over) goes through
    the full parser, which owns those messages."""
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        rows, columns, extra = args.func(args)
    except (ConfigError, InfeasibleConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    header = {"schema_version": SCHEMA_VERSION, "generated_by": "tfperf " + " ".join(argv)}
    try:
        emit(header, {**extra, "rows": (rows, columns)}, args.format, args.out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
