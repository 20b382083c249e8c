"""Analytical latency/energy model of a W x W weight-stationary accelerator.

Execution model:
- matmuls/convs run as square tiles (largest multiple of W fitting the
  double-buffered capacity halves), walked m-outer / n-middle / k-inner;
- each tile costs max(compute, memory) cycles: compute is
  t_k * ceil(t_m/W) * ceil(t_n/W) plus a W-cycle pipeline fill, memory is the
  tile's DRAM bytes over the DRAM bandwidth (double buffering overlaps them);
- an input operand whose whole matrix fits its scratchpad half is loaded
  only on the first pass; otherwise it is re-fetched on every cross pass;
- outputs accumulate in the (double-buffered) accumulator and drain once;
  operators feeding Softmax/LayerNorm drain at 4-byte precision;
- matrix-vector series occupy one PE column per step (W MACs/cycle);
  nonlinear vector work runs on the SFU at W elements per cycle per pass,
  3 passes for standalone Softmax/LayerNorm;
- the L2 is unbounded staging: it adds no latency term, and the DRAM figure
  is the DRAM-to-L2 traffic.
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .workload import (
    Conv,
    Elementwise,
    Matmul,
    MatvecSeries,
    Mode,
    ModelConfig,
    OperatorClass,
    OperatorSpec,
    _a2a_static,
    _in_bytes,
    category_of,
    check_keys,
    flops,
    json_int,
    model_ops,
)


class InfeasibleConfigError(ValueError):
    """Capacities too small to hold even a single minimal tile."""


@dataclass(frozen=True)
class EnergyTable:
    mac_energy: float = 1.0
    scratchpad_access: float = 6.0
    accumulator_access: float = 12.0
    dram_access: float = 200.0

    def check(self) -> "EnergyTable":
        if not all(math.isfinite(v) for v in (self.mac_energy, self.scratchpad_access,
                                              self.accumulator_access, self.dram_access)):
            raise InfeasibleConfigError("energy table entries must be finite")
        if not (self.dram_access > self.scratchpad_access > 0):
            raise InfeasibleConfigError("energy table must satisfy dram > scratchpad > 0")
        return self

    def total(self, macs, spad, acc, dram):
        """Energy of `macs` MACs and the bytes moved at each memory level
        (floats or arrays alike), summed in this order."""
        return (macs * self.mac_energy + spad * self.scratchpad_access
                + acc * self.accumulator_access + dram * self.dram_access)


@dataclass(frozen=True)
class AcceleratorConfig:
    pe_width: int = 16
    scratchpad_bytes: int = 256 * 1024
    accumulator_bytes: int = 64 * 1024
    dram_bw: float = 3.0
    sfu_vector_latency: float = 1.0
    energy: EnergyTable = field(default_factory=EnergyTable)

    def check(self) -> "AcceleratorConfig":
        if self.pe_width < 1:
            raise InfeasibleConfigError("pe_width must be >= 1")
        if min(self.scratchpad_bytes, self.accumulator_bytes) <= 0 or self.dram_bw <= 0:
            raise InfeasibleConfigError("capacities and dram_bw must be positive")
        if not (math.isfinite(self.dram_bw) and math.isfinite(self.sfu_vector_latency)):
            raise InfeasibleConfigError("dram_bw and sfu_vector_latency must be finite")
        self.energy.check()
        return self


# accelerator config documents, as accel_from_json reads them
_ACCEL_PRESETS = {
    "gemmini-baseline": dict(pe_width=16, scratchpad_kb=256, accumulator_kb=64),
    "gemmini-tuned": dict(pe_width=16, scratchpad_kb=64, accumulator_kb=256),
}


def accel_preset(name: str) -> AcceleratorConfig:
    try:
        doc = _ACCEL_PRESETS[name]
    except KeyError:
        raise InfeasibleConfigError(
            f"unknown accelerator preset {name!r}; choose from {sorted(_ACCEL_PRESETS)}") from None
    return accel_from_json(doc)


_ACCEL_KEYS = ("pe_width", "scratchpad_kb", "accumulator_kb", "dram_bytes_per_cycle",
               "sfu_cycles_per_vector", "energy")
_ENERGY_KEYS = ("mac", "spad", "acc", "dram")


def accel_from_json(doc: str | dict) -> AcceleratorConfig:
    data = json.loads(doc) if isinstance(doc, str) else doc
    e = data.get("energy", {}) if isinstance(data, dict) else None
    if not isinstance(e, dict):
        raise InfeasibleConfigError(
            "accelerator config and its energy table must be JSON objects")
    try:
        check_keys(data, _ACCEL_KEYS, "accelerator config")
        check_keys(e, _ENERGY_KEYS, "energy table")
        table = EnergyTable(
            mac_energy=float(e.get("mac", 1.0)),
            scratchpad_access=float(e.get("spad", 6.0)),
            accumulator_access=float(e.get("acc", 12.0)),
            dram_access=float(e.get("dram", 200.0)),
        )
        cfg = AcceleratorConfig(
            pe_width=json_int(data.get("pe_width", 16), "pe_width"),
            # float() first: a string times 1024 would repeat the string
            scratchpad_bytes=int(float(data.get("scratchpad_kb", 256)) * 1024),
            accumulator_bytes=int(float(data.get("accumulator_kb", 64)) * 1024),
            dram_bw=float(data.get("dram_bytes_per_cycle", 3.0)),
            sfu_vector_latency=float(data.get("sfu_cycles_per_vector", 1.0)),
            energy=table,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise InfeasibleConfigError(f"bad accelerator config: {exc}") from exc
    return cfg.check()


@dataclass(frozen=True)
class TilingPlan:
    tile_m: int
    tile_k: int
    tile_n: int


@dataclass(frozen=True)
class CostReport:
    latency: float
    energy: float
    traffic: MappingProxyType  # read-only: a memoized report is shared
    compute_bound: bool

    @property
    def edp(self) -> float:
        return self.latency * self.energy


# ---------------------------------------------------------------------------
# Tiling
# ---------------------------------------------------------------------------

def matmul_dims(op: OperatorSpec) -> tuple[int, int, int]:
    """(M, K, N) of a matmul, with convs lowered to implicit matmul."""
    k = op.kind
    if isinstance(k, Matmul):
        return k.M, k.K, k.N
    if isinstance(k, Conv):
        return k.out_h * k.out_w, k.kernel * k.kernel * k.in_ch, k.out_ch
    raise TypeError(f"need a Matmul or Conv, got {type(k).__name__}")


# Width of an accumulator entry: partial sums, and the outputs that feed
# Softmax/LayerNorm, which drain at accumulator width.
_ACCUM_BYTES = 4


def _pad(x: int, w: int) -> int:
    """x rounded up to a multiple of w (elementwise on integer arrays too)."""
    return ((x + w - 1) // w) * w


def _out_bytes(op: OperatorSpec) -> int:
    return _ACCUM_BYTES if op.pre_nonlinear else op.out_precision


def _grow_tiles(op: OperatorSpec, accel: AcceleratorConfig,
                groups: tuple[tuple[int, ...], ...]) -> TilingPlan:
    """Start from a WxWxW tile and, for each group of axes (0 m, 1 k, 2 n) in
    turn, grow every axis of the group by W, each capped at its extent padded
    to W, while the tile still grows and still fits."""
    W = accel.pe_width
    in1_b, in2_b = _in_bytes(op)
    out_b = _out_bytes(op)
    half, acc_half = accel.scratchpad_bytes // 2, accel.accumulator_bytes // 2
    caps = tuple(_pad(x, W) for x in matmul_dims(op))

    def fits(tile: tuple[int, int, int]) -> bool:
        tm, tk, tn = tile
        return tm * tk * in1_b <= half and tk * tn * in2_b <= half and tm * tn * out_b <= acc_half

    tile = tuple(min(W, cap) for cap in caps)
    if not fits(tile):
        raise InfeasibleConfigError(
            f"no {W}x{W} tile fits scratchpad/accumulator for {op.name}")
    for axes in groups:
        while True:
            nxt = tuple(min(t + W, cap) if i in axes else t
                        for i, (t, cap) in enumerate(zip(tile, caps)))
            if nxt == tile or not fits(nxt):
                break
            tile = nxt
    return TilingPlan(*tile)


def square_tiles(op: OperatorSpec, accel: AcceleratorConfig) -> TilingPlan:
    """The largest square tile, grown on all three axes together."""
    return _grow_tiles(op, accel, ((0, 1, 2),))


def greedy_tiles(op: OperatorSpec, accel: AcceleratorConfig) -> TilingPlan:
    """Gemmini-style heuristic: square tiles, then greedily extend K, M, N."""
    return _grow_tiles(op, accel, ((0, 1, 2), (1,), (0,), (2,)))


# ---------------------------------------------------------------------------
# Matmul / conv tile walk
# ---------------------------------------------------------------------------

def _sizes(total: int, tile: int) -> np.ndarray:
    n = math.ceil(total / tile)
    out = np.full(n, tile, dtype=np.int64)
    if total % tile:
        out[-1] = total % tile
    return out


def _resident(op: OperatorSpec, accel: AcceleratorConfig) -> tuple[bool, bool]:
    """Whether each input's whole matrix fits its scratchpad half, and so
    loads only on the first pass."""
    M, K, N = matmul_dims(op)
    in1_b, in2_b = _in_bytes(op)
    half = accel.scratchpad_bytes // 2
    return M * K * in1_b <= half, K * N * in2_b <= half


def _overlap(compute, dram_bytes, dram_bw):
    """Double-buffered cycles: compute or DRAM transfer, whichever is longer."""
    return np.maximum(compute, dram_bytes / dram_bw)


def _tile_grid(op: OperatorSpec, plan: TilingPlan, accel: AcceleratorConfig):
    """Per-tile grids of the m-outer/n-middle/k-inner walk, on axes (m, n, k).

    Returns (compute cycles, loaded input bytes, drained output bytes) for
    one repeat; an output block drains after its last k tile.
    """
    M, K, N = matmul_dims(op)
    W = accel.pe_width
    in1_b, in2_b = _in_bytes(op)
    in1_resident, in2_resident = _resident(op, accel)

    ms = _sizes(M, plan.tile_m)
    ks = _sizes(K, plan.tile_k)
    ns = _sizes(N, plan.tile_n)
    tm = ms[:, None, None]
    tn = ns[None, :, None]
    tk = ks[None, None, :]

    in1_bytes = (tm * tk * in1_b).astype(np.float64)
    if in1_resident:  # loaded only while the first n block is computed
        in1_bytes = in1_bytes * (np.arange(len(ns))[None, :, None] == 0)
    in2_bytes = (tk * tn * in2_b).astype(np.float64)
    if in2_resident:  # loaded only while the first m block is computed
        in2_bytes = in2_bytes * (np.arange(len(ms))[:, None, None] == 0)
    drained = np.zeros((len(ms), len(ns), len(ks)))
    drained[:, :, -1] = (ms[:, None] * ns[None, :]) * _out_bytes(op)

    compute = tk * np.ceil(tm / W) * np.ceil(tn / W) + W
    return compute, in1_bytes + in2_bytes, drained


def _tiled_cost(op: OperatorSpec, plan: TilingPlan, accel: AcceleratorConfig):
    """The tile walk summed: one repeat's (latency, compute, dram, drained, macs)."""
    compute, dram, drained = _tile_grid(op, plan, accel)
    dram += drained  # in place on the loaded grid: one grid fewer at the peak
    M, K, N = matmul_dims(op)
    reps = op.kind.repetitions if isinstance(op.kind, Conv) else 1
    latency = _overlap(compute, dram, accel.dram_bw)
    return (float(latency.sum()) * reps, float(compute.sum()) * reps,
            float(dram.sum()) * reps, float(drained.sum()) * reps, float(M) * K * N * reps)


# ---------------------------------------------------------------------------
# Matvec series and elementwise
# ---------------------------------------------------------------------------

def _matvec_cost(op: OperatorSpec, accel: AcceleratorConfig):
    """One repeat's (latency, compute, dram, drained, macs); nothing drains."""
    k: MatvecSeries = op.kind
    W = accel.pe_width
    in1_b, in2_b = _in_bytes(op)
    out_b = op.out_precision
    it = k.iterations
    if op.op_class is OperatorClass.ActToAct:
        # KV-cache series: step i reads i cached vectors and writes one new one
        static = _a2a_static(k)
        steps = np.arange(1, it + 1, dtype=np.float64)
        by = static * steps * in1_b + static * in2_b
        if k.rows == it:  # query*key style: i scores out at step i
            by = by + steps * out_b
        else:  # score*value style: fixed-size context vector out
            by = by + static * out_b
        comp = np.ceil(static * steps / W) + W
        macs = float(static * steps.sum())
    else:
        # weights reloaded every step; matrix operand carries in2 precision
        by = np.full(it, float(k.rows * k.cols * in2_b + k.cols * in1_b + k.rows * out_b))
        comp = np.full(it, math.ceil(k.rows * k.cols / W) + W)
        macs = float(k.rows * k.cols) * it
    latency = _overlap(comp, by, accel.dram_bw)
    return float(latency.sum()), float(comp.sum()), float(by.sum()), 0.0, macs


_STANDALONE_PASSES = 3  # load/reduce, transform, write passes for softmax & layernorm


def _elementwise_cost(op: OperatorSpec, accel: AcceleratorConfig, wide_inputs: bool):
    """One repeat's (latency, compute, dram, drained, macs) of SFU work."""
    k: Elementwise = op.kind
    W = accel.pe_width
    if wide_inputs:
        passes = _STANDALONE_PASSES
        by = float(k.elements) * (passes * _ACCUM_BYTES + op.out_precision)
    else:
        passes = k.passes
        by = float(k.elements) * (passes * op.in_precisions[0] + op.out_precision)
    comp = passes * math.ceil(k.elements / W) * accel.sfu_vector_latency
    return float(_overlap(comp, by, accel.dram_bw)), comp, by, 0.0, 0.0


# ---------------------------------------------------------------------------
# Public per-op costs
# ---------------------------------------------------------------------------

def _report(latency, energy, traffic: dict, compute, accel: AcceleratorConfig) -> CostReport:
    """The one report constructor (`op_latency`, mapping rows): compute-bound
    when the compute cycles reach the DRAM bytes over the DRAM bandwidth."""
    return CostReport(latency=float(latency), energy=float(energy),
                      traffic=MappingProxyType(traffic),
                      compute_bound=bool(compute >= traffic["dram"] / accel.dram_bw))


def op_latency(op: OperatorSpec, accel: AcceleratorConfig,
               plan: TilingPlan | None = None,
               wide_inputs: bool = False) -> CostReport:
    """Latency/energy/traffic of one operator (all `repeat` instances)."""
    if isinstance(op.kind, (Matmul, Conv)):
        if plan is None:
            plan = square_tiles(op, accel)
        lat, comp, dram, drained, macs = _tiled_cost(op, plan, accel)
    elif isinstance(op.kind, MatvecSeries):
        lat, comp, dram, drained, macs = _matvec_cost(op, accel)
    elif isinstance(op.kind, Elementwise):
        lat, comp, dram, drained, macs = _elementwise_cost(op, accel, wide_inputs)
    else:
        raise TypeError(f"unknown kind {type(op.kind).__name__}")
    W = accel.pe_width
    r = op.repeat
    traffic = {
        "dram": dram * r,
        # W-wide array reuse: each streamed operand element feeds W MACs
        "spad": (dram + macs * sum(_in_bytes(op)) / W) * r,
        "acc": (macs * _ACCUM_BYTES / W + drained) * r,
    }
    macs *= r
    energy = accel.energy.total(macs, traffic["spad"], traffic["acc"], traffic["dram"])
    return _report(lat * r, energy, traffic, comp * r, accel)


def _shape_key(op: OperatorSpec, wide_inputs: bool) -> tuple:
    # everything op_latency reads but the name; op.kind is a frozen
    # dataclass, so its equality already compares the class
    return (op.op_class, op.kind, op.repeat, op.in_precisions, op.out_precision,
            op.pre_nonlinear, wide_inputs)


class OpCostTable:
    """Operator reports on one accelerator, memoized by shape (transparent).

    `cost` returns what `op_latency` returns on `accel` for square tiles,
    computing it once per distinct `_shape_key`; `hits` and `misses` count
    lookups, and `misses == len(table)`. A table lives as long as its owner:
    `model_costs` makes one per call, and no table outlives a command.
    """

    def __init__(self, accel: AcceleratorConfig):
        self.accel = accel
        self._table: dict = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)

    def cost(self, op: OperatorSpec, wide_inputs: bool = False) -> CostReport:
        key = _shape_key(op, wide_inputs)
        hit = self._table.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        rep = op_latency(op, self.accel, wide_inputs=wide_inputs)
        self._table[key] = rep
        return rep


def report_intensity(op: OperatorSpec, rep: CostReport) -> float:
    """FLOPs of `op` over the DRAM traffic of its report."""
    if rep.traffic["dram"] <= 0:
        raise ZeroDivisionError(f"no DRAM traffic for {op.name}")
    return flops(op) / rep.traffic["dram"]


def nonideal_intensity(op: OperatorSpec, accel: AcceleratorConfig,
                       wide_inputs: bool = False) -> float:
    """FLOPs over modeled DRAM traffic (tiling reloads, wide drains)."""
    return report_intensity(op, op_latency(op, accel, wide_inputs=wide_inputs))


# ---------------------------------------------------------------------------
# Whole-model views
# ---------------------------------------------------------------------------

def _wide_flags(ops: Sequence[OperatorSpec]) -> list[bool]:
    """Elementwise op i reads 4-byte inputs when fed by a pre-nonlinear op."""
    flags = []
    prev_wide = False
    for op in ops:
        flags.append(isinstance(op.kind, Elementwise) and prev_wide)
        prev_wide = op.pre_nonlinear
    return flags


def model_costs(cfg: ModelConfig, accel: AcceleratorConfig):
    """(op, CostReport) per operator, full model, non-fused execution.

    Identical layers repeat their operators, so each distinct operator is
    costed once, through a table made for this call; repeats share its report.
    """
    ops = model_ops(cfg)
    table = OpCostTable(accel)
    return [(op, table.cost(op, wide_inputs=wide))
            for op, wide in zip(ops, _wide_flags(ops))]


def latency_breakdown(cfg: ModelConfig, accel: AcceleratorConfig) -> dict:
    """Cycles per workload category plus 'total'."""
    by_cat: dict[str, float] = {}
    total = 0.0
    cnn = cfg.mode is Mode.Cnn
    for op, rep in model_costs(cfg, accel):
        cat = category_of(op, cnn=cnn)
        by_cat[cat] = by_cat.get(cat, 0.0) + rep.latency
        total += rep.latency
    by_cat["total"] = total
    return by_cat


def _left_sum(values) -> float:
    """The float total of `values`, added left to right as `x += v` in a
    loop. The built-in `sum` compensates float additions from Python 3.12
    on, which would move the last digits of a total with the interpreter."""
    return functools.reduce(operator.add, values, 0.0)


def costs_intensity(costs: Sequence[tuple[OperatorSpec, CostReport]]) -> float:
    """Total FLOPs over total DRAM traffic of `model_costs` output."""
    f = sum(flops(op) for op, _ in costs)
    d = _left_sum(rep.traffic["dram"] for _, rep in costs)
    return f / d


def model_nonideal_intensity(cfg: ModelConfig, accel: AcceleratorConfig) -> float:
    """Whole-model FLOPs over whole-model DRAM traffic."""
    return costs_intensity(model_costs(cfg, accel))


def nonlinear_latency_share(cfg: ModelConfig, accel: AcceleratorConfig) -> float:
    """Fraction of total cycles spent in nonlinear/pooling vector work."""
    costs = model_costs(cfg, accel)
    total = _left_sum(rep.latency for _, rep in costs)
    nl = _left_sum(rep.latency for op, rep in costs
                   if op.op_class in (OperatorClass.Nonlinear, OperatorClass.Pooling))
    return nl / total


def matmul_latency(cfg: ModelConfig, accel: AcceleratorConfig) -> float:
    """Total cycles spent in matmul-class operators (projections + act-to-act)."""
    return _left_sum(rep.latency for op, rep in model_costs(cfg, accel)
                     if isinstance(op.kind, (Matmul, Conv, MatvecSeries)))


def memory_split_sweep(cfg: ModelConfig, accel: AcceleratorConfig, total_kb: int):
    """Matmul latency of `accel` at each (scratchpad_kb, accumulator_kb)
    split of `total_kb`, in 16 kB steps of the scratchpad.

    Returns (rows, best): one (spad_kb, acc_kb, latency, feasible) tuple per
    split, and the index of the first feasible row with the lowest latency.

    Each latency is `matmul_latency` on the split, summed in the same op
    order, but each piece of it is costed once per sweep. Elementwise ops
    are not matmul-class and are never costed. A matvec series reads no
    capacity. A matmul or conv reads the capacities only through its tile
    plan and which of its inputs stay resident, so its tile walk is costed
    once per distinct (shape, plan, residency).
    """
    ops = [op for op in model_ops(cfg) if isinstance(op.kind, (Matmul, Conv, MatvecSeries))]
    slot: dict = {}  # each distinct shape's index
    slots = [slot.setdefault(_shape_key(op, False), len(slot)) for op in ops]
    shapes = list(dict(zip(slots, ops)).values())  # one op of each shape, in slot order
    costed: dict = {}  # a shape's slot (matvec) or (slot, plan, residency) -> latency
    rows = []
    for spad_kb in range(16, total_kb, 16):
        acc_kb = total_kb - spad_kb
        split = replace(accel, scratchpad_bytes=spad_kb * 1024,
                        accumulator_bytes=acc_kb * 1024).check()
        latency = []
        try:
            for i, op in enumerate(shapes):
                plan = None
                walk = i
                if not isinstance(op.kind, MatvecSeries):
                    plan = square_tiles(op, split)
                    walk = (i, plan, *_resident(op, split))
                lat = costed.get(walk)
                if lat is None:
                    lat = costed[walk] = op_latency(op, split, plan=plan).latency
                latency.append(lat)
        except InfeasibleConfigError:
            rows.append((spad_kb, acc_kb, math.inf, False))
        else:
            rows.append((spad_kb, acc_kb, _left_sum(map(latency.__getitem__, slots)), True))
    feasible = [i for i, row in enumerate(rows) if row[3]]
    if not feasible:
        raise InfeasibleConfigError(f"no feasible split of {total_kb} kB")
    return rows, min(feasible, key=lambda i: rows[i][2])
