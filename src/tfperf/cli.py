"""Command-line surface: config ingestion, experiments, report emission.

Reports carry a schema_version and a generated_by echo. CSV output is plain
comma separation with '.' decimals; JSON is strict (no NaN or Infinity),
keeps insertion key order and round-trips losslessly. An infeasible memsweep
split or fusion cell has no latency: None, written as null or an empty cell.
Exit codes: 0 ok, 2 bad config, a number JSON cannot hold or a request too
large for memory (such as a --samples count no array can hold), 3 I/O failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from itertools import chain

import numpy as np

from . import mapspace
from .archsearch import CostCache, DEFAULT_SPACE, evolve, space_from_json
from .fusion import PAIR_NAMES, fusion_sweep
from .hwmodel import (_left_sum, accel_from_json, accel_preset, costs_intensity,
                      memory_split_sweep, model_costs, report_intensity)
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
# Command handlers: each returns (table, extra tables). A table is a
# (names, columns) pair: one column per name, all of one length, each a list
# or a 1-D int64 or float64 array.
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    cfg = _load_model(args.model, args.seqlen)
    cnn = cfg.mode is Mode.Cnn
    ops = model_ops(cfg)
    f, m = list(map(flops, ops)), list(map(mops, ops))
    names = ["name", "op_class", "category", "flops", "mops", "arithmetic_intensity"]
    return (names, [[op.name for op in ops], [op.op_class.value for op in ops],
                    [category_of(op, cnn=cnn) for op in ops], f, m,
                    list(map(intensity, f, m))]), {}


def cmd_latency(args):
    cfg = _load_model(args.model, args.seqlen)
    accel = _load_accel(args.accel)
    costs = model_costs(cfg, accel)
    lat = [rep.latency for _, rep in costs]
    energy = [rep.energy for _, rep in costs]
    names = ["name", "op_class", "latency_cycles", "energy_pj", "compute_bound"]
    return (names, [[op.name for op, _ in costs] + ["total"],
                    [op.op_class.value for op, _ in costs] + [""],
                    lat + [_left_sum(lat)], energy + [_left_sum(energy)],
                    [rep.compute_bound for _, rep in costs] + [""]]), {}


def cmd_nonideal_ai(args):
    cfg = _load_model(args.model, args.seqlen)
    accel = _load_accel(args.accel)
    costs = model_costs(cfg, accel)
    ops = [op for op, _ in costs]
    f = list(map(flops, ops))
    names = ["name", "flops", "ideal_ai", "nonideal_ai"]
    return (names, [[op.name for op in ops] + ["model"], f + [sum(f)],
                    list(map(intensity, f, map(mops, ops))) + [""],
                    [report_intensity(op, rep) for op, rep in costs]
                    + [costs_intensity(costs)]]), {}


def cmd_memsweep(args):
    cfg = _load_model(args.model, args.seqlen)
    accel = _load_accel(args.accel)
    sweep_rows, best = memory_split_sweep(cfg, accel, args.total_kb)
    spad_kb, acc_kb, latency, feasible = map(list, zip(*sweep_rows))
    names = ["scratchpad_kb", "accumulator_kb", "latency_cycles", "feasible", "best"]
    return (names, [spad_kb, acc_kb, [x if ok else None for x, ok in zip(latency, feasible)],
                    feasible, [i == best for i in range(len(sweep_rows))]]), {}


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
        names = ["n_samples", "min_edp", "p10", "spread", "frac_within_3x"]
        return (names, [[stats.n_samples], [stats.min_edp], [stats.p10], [stats.spread],
                        [stats.frac_within(3.0)]]), {}
    edp = lat * en
    names = ["sample_idx", "latency", "energy", "edp", "relative_edp"]
    return (names, [np.arange(len(lat)), lat, en, edp, edp / edp.min()]), {}


def cmd_fusion(args):
    accel = _load_accel(args.accel)
    pairs = dict.fromkeys(args.pair or PAIR_NAMES)
    acc_kbs = args.acc_kb or [128, 256]
    seq_lens = args.seqlen or [512, 4096]
    names = ["pair", "accumulator_kb", "seq_len", "fused_latency",
             "nonfused_latency", "producer_penalty", "hidden_cycles",
             "verdict", "feasible", "reason"]
    rows = []
    for name in pairs:
        grid = fusion_sweep(name, accel, acc_kbs, seq_lens)
        rows.extend((name, kb, l, r.fused_latency if r.feasible else None, r.nonfused_latency,
                     r.producer_penalty if r.feasible else None, r.hidden_cycles,
                     r.verdict.value, r.feasible, r.reason)
                    for (kb, l), r in sorted(grid.items()))
    return (names, [*map(list, zip(*rows))]), {}


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
    trace = (TRACE_COLUMNS, [*map(list, zip(*front.trace))])
    if args.format == "json":
        names = ["N", "d", "h", "d_FFN", "quality", "edp"]
        rows = [(c.N, c.d, c.h, c.d_FFN, c.quality, c.edp) for c in front.points]
        return (names, [*map(list, zip(*rows))]), {"trace": trace}
    return trace, {}


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_NUMBER_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def _float_texts(column: np.ndarray) -> list[str]:
    """The repr of each cell of a float64 array, made once per distinct
    value. Values are told apart by their IEEE bits: float equality would
    merge 0.0 with -0.0 and never match a NaN."""
    bits, index = np.unique(column.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[index].tolist()


def _csv_texts(names: list, columns: list) -> list[str]:
    """A table's CSV text in pieces, byte for byte what csv.writer writes.

    A table of int64 and float64 arrays alone has its lines written with one
    %-format: %d gives str of an int, and %s each float's repr text. That
    makes no object per line.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(names)
    if not columns or not all(isinstance(c, np.ndarray) and c.dtype in _NUMBER_DTYPES
                              for c in columns):
        w.writerows(zip(*columns))
        return [buf.getvalue()]
    line = ",".join("%d" if c.dtype == np.int64 else "%s" for c in columns) + "\n"
    cells = [c.tolist() if c.dtype == np.int64 else _float_texts(c) for c in columns]
    return [buf.getvalue(), (line * len(columns[0])) % tuple(chain.from_iterable(zip(*cells)))]


# strict JSON: a column's cells split at "\n" (encoded JSON holds no raw
# newline), and a list cell's items at the depth indent=2 gives them in a row
_ONE_LINE = json.JSONEncoder(separators=("\n", ": "), allow_nan=False).encode
_LIST_ITEMS = json.JSONEncoder(separators=(",\n        ", ": "), allow_nan=False).encode


def _json_cells(column) -> list[str]:
    """The JSON text of each cell of a column, as json.dumps(report,
    indent=2, allow_nan=False) writes it inside a row.

    A column of scalars is encoded in one C-encoder call. An item that
    starts with "[" is a list cell (`search`'s `h`): such a column is
    encoded cell by cell, each list in one C-encoder call.
    """
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    body = _ONE_LINE(cells)[1:-1]
    if not body.startswith("[") and "\n[" not in body:
        return body.split("\n")
    return ["[\n        " + _LIST_ITEMS(v)[1:-1] + "\n      ]" if isinstance(v, (list, tuple)) and v
            else _ONE_LINE(v) for v in cells]


def _json_table(names: list, columns: list) -> str:
    """A table as json.dumps(report, indent=2) writes it under a top-level
    key: a list of row objects. A repeated name keeps its last column at its
    first place, as dict(zip(names, row)) does."""
    if not columns or not len(columns[0]):
        return "[]"
    by_name = dict(zip(names, columns))
    row = ("    {\n" + ",\n".join(f"      {json.dumps(name).replace('%', '%%')}: %s"
                                 for name in by_name) + "\n    }")
    cells = zip(*map(_json_cells, by_name.values()))
    return "[\n" + ",\n".join([row] * len(columns[0])) % tuple(chain.from_iterable(cells)) + "\n  ]"


def emit(header: dict, tables: dict, fmt: str, out: str | None) -> int:
    """Serialize a report; returns the UTF-8 bytes written.

    Each table is a (names, columns) pair: one column per name, all of one
    length, each a list or a 1-D int64 or float64 array. Names and header
    keys are str; a header value is a JSON scalar, and a cell a JSON scalar
    or a list or tuple of JSON scalars. JSON writes what json.dumps(report,
    indent=2, allow_nan=False) writes for the header keys updated with each
    table as a list of row objects; CSV writes the "rows" table alone. A
    number JSON cannot hold (NaN, an infinity) raises ValueError, and then
    nothing is written.
    """
    for key, (names, columns) in tables.items():
        if len(columns) != len(names) or len(set(map(len, columns))) > 1:
            raise ValueError(f"table {key!r} needs one column per name, all of one length")
    if fmt == "json":
        parts = {key: _ONE_LINE(value) for key, value in header.items()}
        parts.update((key, _json_table(*table)) for key, table in tables.items())
        texts = ["{\n" + ",\n".join(f"  {json.dumps(key)}: {text}" for key, text in parts.items())
                 + "\n}\n" if parts else "{}\n"]
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `tfperf` parser, built on the first call and reused: parsing
    leaves no state in it."""
    parser = argparse.ArgumentParser(prog="tfperf",
                                     description="Accelerator performance toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    header = {"schema_version": SCHEMA_VERSION, "generated_by": "tfperf " + " ".join(argv)}
    # a non-finite cost is refused below with its cause; numpy's overflow
    # warning on the way there would only add lines to stderr
    try:
        with np.errstate(over="ignore"):
            table, extra = args.func(args)
            emit(header, {**extra, "rows": table}, args.format, args.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
