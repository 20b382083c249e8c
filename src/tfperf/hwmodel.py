"""Analytical latency/energy model of a W x W weight-stationary accelerator.

Execution model:
- matmuls/convs run as square tiles (largest multiple of W fitting the
  double-buffered capacity halves), walked m-outer / n-middle / k-inner;
  each capacity rule is solved for that multiple in closed form;
- each tile costs max(compute, memory) cycles: compute is
  t_k * ceil(t_m/W) * ceil(t_n/W) plus a W-cycle pipeline fill, memory is the
  tile's DRAM bytes over the DRAM bandwidth (double buffering overlaps them);
- an input operand whose whole matrix fits its scratchpad half is loaded
  only on the first pass; otherwise it is re-fetched on every cross pass;
- outputs accumulate in the (double-buffered) accumulator and drain once;
  operators feeding Softmax/LayerNorm drain at 4-byte precision, and the
  Softmax/LayerNorm they feed (`wide_inputs`) read at it;
- matrix-vector series occupy one PE column per step (W MACs/cycle);
  nonlinear vector work runs on the SFU at W elements per cycle per pass,
  3 passes for standalone Softmax/LayerNorm;
- the L2 is unbounded staging: it adds no latency term, and the DRAM figure
  is the DRAM-to-L2 traffic.

The walk is costed by runs of equal tiles: each axis has at most three
(first block, full blocks between, last block), and one tile per (m, n, k)
run cell, at most 27, stands for every tile of its cell. The cells are costed
on Python numbers: compute, DRAM and drained totals are exact integer sums
over the cells weighted by their tile counts. numpy is left only for the
latency total, summed over the full (m, n, k) grid repeated from the cells
because the outputs pin numpy's pairwise order of that sum, and for the
step arrays of a matrix-vector series.
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
    ModelConfig,
    OperatorClass,
    OperatorSpec,
    _a2a_static,
    _in_bytes,
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
        if min(self.mac_energy, self.accumulator_access) < 0:
            raise InfeasibleConfigError("mac and accumulator energies must be >= 0")
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
        if self.sfu_vector_latency < 0:
            raise InfeasibleConfigError("sfu_vector_latency must be >= 0")
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

    def check(self) -> "TilingPlan":
        """Tiles are positive ints; one longer than its extent is one block."""
        if not (type(self.tile_m) is type(self.tile_k) is type(self.tile_n) is int
                and min(self.tile_m, self.tile_k, self.tile_n) > 0):
            raise InfeasibleConfigError(f"tile sizes must be positive integers, got {self}")
        return self


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


def _square_steps(cx: int, cy: int, nbytes: int, limit: int, W: int) -> int | float:
    """The largest a with min(a*W, cx) * min(a*W, cy) * nbytes <= limit, for
    caps cx, cy that are multiples of W (inf if every a fits)."""
    lo, hi = (cx, cy) if cx <= cy else (cy, cx)
    if lo * hi * nbytes <= limit:  # both caps fit
        return math.inf
    if lo * lo * nbytes <= limit:  # a*W lies between the caps
        return limit // (lo * nbytes) // W
    return math.isqrt(limit // nbytes) // W  # a*W lies below both caps


def _grow_tiles(op: OperatorSpec, accel: AcceleratorConfig, greedy: bool) -> TilingPlan:
    """The largest square tile: a*W on every axis, each capped at its extent
    padded to W, for the largest a that fits. A greedy plan then grows k, m
    and n in turn by multiples of W, to its cap or the most that fits. The fit
    rules are the operand blocks: in1 on (m, k) and in2 on (k, n) in a
    scratchpad half, the output on (m, n) in an accumulator half."""
    W = accel.pe_width
    (in1_b, in2_b), out_b = _in_bytes(op), _out_bytes(op)
    half, acc_half = accel.scratchpad_bytes // 2, accel.accumulator_bytes // 2
    M, K, N = matmul_dims(op)
    cm, ck, cn = _pad(M, W), _pad(K, W), _pad(N, W)
    a = min(max(cm, ck, cn) // W, _square_steps(cm, ck, in1_b, half, W),
            _square_steps(ck, cn, in2_b, half, W), _square_steps(cm, cn, out_b, acc_half, W))
    if a < 1:
        raise InfeasibleConfigError(
            f"no {W}x{W} tile fits scratchpad/accumulator for {op.name}")
    tm, tk, tn = min(a * W, cm), min(a * W, ck), min(a * W, cn)
    if greedy:  # the most W-multiples each rule on the axis leaves room for
        tk = min(ck, half // (tm * in1_b) // W * W, half // (tn * in2_b) // W * W)
        tm = min(cm, half // (tk * in1_b) // W * W, acc_half // (tn * out_b) // W * W)
        tn = min(cn, half // (tk * in2_b) // W * W, acc_half // (tm * out_b) // W * W)
    return TilingPlan(tm, tk, tn)


def square_tiles(op: OperatorSpec, accel: AcceleratorConfig) -> TilingPlan:
    """The largest square tile, grown on all three axes together."""
    return _grow_tiles(op, accel, False)


def greedy_tiles(op: OperatorSpec, accel: AcceleratorConfig) -> TilingPlan:
    """Gemmini-style heuristic: square tiles, then greedily extend K, M, N."""
    return _grow_tiles(op, accel, True)


# ---------------------------------------------------------------------------
# Matmul / conv tile walk
# ---------------------------------------------------------------------------

def _runs(total: int, tile: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The block sizes and block counts of the runs of equal blocks along one
    axis: the first block, the full blocks between, and the last (ragged) block."""
    n = -(-total // tile)
    if n == 1:
        return (total,), (1,)
    last = total - (n - 1) * tile
    if n == 2:
        return (tile, last), (1, 1)
    return (tile, tile, last), (1, n - 2, 1)


def _resident(op: OperatorSpec, accel: AcceleratorConfig) -> tuple[bool, bool]:
    """Whether each input's whole matrix fits its scratchpad half, and so
    loads only on the first pass."""
    M, K, N = matmul_dims(op)
    in1_b, in2_b = _in_bytes(op)
    half = accel.scratchpad_bytes // 2
    return M * K * in1_b <= half, K * N * in2_b <= half


def _overlap(compute, dram_bytes, dram_bw):
    """Double-buffered cycles of step arrays: compute or DRAM, whichever is longer."""
    return np.maximum(compute, dram_bytes / dram_bw)


def _tile_cells(op: OperatorSpec, plan: TilingPlan, accel: AcceleratorConfig):
    """The m-outer/n-middle/k-inner walk, one tile per run cell.

    Each axis splits into runs of equal blocks (`_runs`). A tile's cost reads
    only its block sizes, whether its m or n block is the first (residency)
    and whether its k block is the last (the drain), so one tile per
    (m, n, k) run cell, at most 27, stands for every tile of the cell.

    Returns the block counts of the m, n and k runs, and per cell, C-ordered
    over (m run, n run, k run), a tuple of Python ints: its tile count and one
    tile's compute cycles, loaded bytes and drained bytes. Only the last k run
    drains: an output block drains once, after its last k tile.
    """
    M, K, N = matmul_dims(op)
    W = accel.pe_width
    (in1_b, in2_b), out_b = _in_bytes(op), _out_bytes(op)
    in1_resident, in2_resident = _resident(op, accel)
    (m_sizes, m_counts), (n_sizes, n_counts) = _runs(M, plan.tile_m), _runs(N, plan.tile_n)
    k_sizes, k_counts = _runs(K, plan.tile_k)
    *k_runs, (tk_last, ck_last) = zip(k_sizes, k_counts)
    cells = []
    for i, (tm, cm) in enumerate(zip(m_sizes, m_counts)):
        for j, (tn, cn) in enumerate(zip(n_sizes, n_counts)):
            passes = -(-tm // W) * -(-tn // W)
            # per k element; a resident input loads only while the first
            # block of the other output axis is computed
            per_k = ((0 if in1_resident and j else tm * in1_b)
                     + (0 if in2_resident and i else tn * in2_b))
            for tk, ck in k_runs:
                cells.append((cm * cn * ck, tk * passes + W, tk * per_k, 0))
            cells.append((cm * cn * ck_last, tk_last * passes + W, tk_last * per_k,
                          tm * tn * out_b))
    return (m_counts, n_counts, k_counts), cells


def _tiled_cost(op: OperatorSpec, plan: TilingPlan, accel: AcceleratorConfig):
    """The tile walk summed: one repeat's (latency, compute, dram, drained, macs).

    One pass over the run cells adds the exact integer totals, each cell
    weighted by its tile count. The latency is summed over the full grid with
    numpy's `.sum()`, whose pairwise order the outputs pin. The axis with the
    most blocks is repeated last, so the grid before it is at most a quarter
    of the full one once that axis has 12 blocks or more.
    """
    counts, cells = _tile_cells(op, plan, accel)
    bw = accel.dram_bw
    compute = dram = drained = 0
    latency = []
    for tiles, c, loaded, d in cells:
        b = loaded + d
        compute += tiles * c
        dram += tiles * b
        drained += tiles * d
        latency.append(c if c >= (x := b / bw) else x)  # max(c, x), without the call
    grid = np.array(latency, dtype=np.float64).reshape(tuple(map(len, counts)))
    blocks = tuple(map(sum, counts))
    for axis in sorted(range(3), key=blocks.__getitem__):
        if blocks[axis] > len(counts[axis]):
            grid = np.repeat(grid, counts[axis], axis=axis)
    M, K, N = matmul_dims(op)
    reps = op.kind.repetitions if isinstance(op.kind, Conv) else 1
    return (float(grid.sum()) * reps, float(compute) * reps, float(dram) * reps,
            float(drained) * reps, float(M) * K * N * reps)


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


def _elementwise_cost(op: OperatorSpec, accel: AcceleratorConfig):
    """One repeat's (latency, compute, dram, drained, macs) of SFU work."""
    k: Elementwise = op.kind
    W = accel.pe_width
    if op.wide_inputs:
        passes = _STANDALONE_PASSES
        by = float(k.elements) * (passes * _ACCUM_BYTES + op.out_precision)
    else:
        passes = k.passes
        by = float(k.elements) * (passes * op.in_precisions[0] + op.out_precision)
    comp = passes * math.ceil(k.elements / W) * accel.sfu_vector_latency
    return float(max(comp, by / accel.dram_bw)), comp, by, 0.0, 0.0


# ---------------------------------------------------------------------------
# Public per-op costs
# ---------------------------------------------------------------------------

def _not_finite(latency: float, energy: float) -> InfeasibleConfigError:
    """The error for a cost that is not finite, which is refused, not reported."""
    return InfeasibleConfigError(
        f"cost is not finite (latency {latency}, energy {energy}): check "
        "dram_bytes_per_cycle and the energy table")


def _report(latency, energy, traffic: dict, compute, accel: AcceleratorConfig) -> CostReport:
    """The one report constructor (`op_latency`, mapping rows): compute-bound
    when the compute cycles reach the DRAM bytes over the DRAM bandwidth.
    A latency or energy that is not finite is refused, not reported."""
    latency, energy = float(latency), float(energy)
    if not (math.isfinite(latency) and math.isfinite(energy)):
        raise _not_finite(latency, energy)
    return CostReport(latency=latency, energy=energy,
                      traffic=MappingProxyType(traffic),
                      compute_bound=bool(compute >= traffic["dram"] / accel.dram_bw))


def op_latency(op: OperatorSpec, accel: AcceleratorConfig,
               plan: TilingPlan | None = None) -> CostReport:
    """Latency/energy/traffic of one operator (all `repeat` instances)."""
    if isinstance(op.kind, (Matmul, Conv)):
        plan = square_tiles(op, accel) if plan is None else plan.check()
        lat, comp, dram, drained, macs = _tiled_cost(op, plan, accel)
    elif isinstance(op.kind, MatvecSeries):
        lat, comp, dram, drained, macs = _matvec_cost(op, accel)
    elif isinstance(op.kind, Elementwise):
        lat, comp, dram, drained, macs = _elementwise_cost(op, accel)
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


def _shape_key(op: OperatorSpec) -> tuple:
    # everything op_latency reads but the name; op.kind is a frozen
    # dataclass, so its equality already compares the class
    return (op.op_class, op.kind, op.repeat, op.in_precisions, op.out_precision,
            op.pre_nonlinear, op.wide_inputs)


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

    def cost(self, op: OperatorSpec) -> CostReport:
        key = _shape_key(op)
        hit = self._table.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        rep = op_latency(op, self.accel)
        self._table[key] = rep
        return rep


def report_intensity(op: OperatorSpec, rep: CostReport) -> float:
    """FLOPs of `op` over the DRAM traffic of its report."""
    if rep.traffic["dram"] <= 0:
        raise ZeroDivisionError(f"no DRAM traffic for {op.name}")
    return flops(op) / rep.traffic["dram"]


def nonideal_intensity(op: OperatorSpec, accel: AcceleratorConfig) -> float:
    """FLOPs over modeled DRAM traffic (tiling reloads, wide drains and reads)."""
    return report_intensity(op, op_latency(op, accel))


# ---------------------------------------------------------------------------
# Whole-model views
# ---------------------------------------------------------------------------

def model_costs(cfg: ModelConfig, accel: AcceleratorConfig):
    """(op, CostReport) per operator, full model, non-fused execution.

    Identical layers repeat their operators, so each distinct operator is
    costed once, through a table made for this call; repeats share its report.
    """
    table = OpCostTable(accel)
    return [(op, table.cost(op)) for op in model_ops(cfg)]


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
    slots = [slot.setdefault(_shape_key(op), len(slot)) for op in ops]
    shapes = list(dict(zip(slots, ops)).values())  # one op of each shape, in slot order
    costed: dict = {}  # a shape's slot (matvec) or (slot, plan, residency) -> latency
    rows = []
    for spad_kb in range(16, total_kb, 16):
        acc_kb = total_kb - spad_kb
        split = replace(accel, scratchpad_bytes=spad_kb * 1024,
                        accumulator_bytes=acc_kb * 1024).check()
        try:
            plans = [None if isinstance(op.kind, MatvecSeries) else square_tiles(op, split)
                     for op in shapes]
        except InfeasibleConfigError:  # no tile fits the split
            rows.append((spad_kb, acc_kb, math.inf, False))
            continue
        latency = []
        for i, (op, plan) in enumerate(zip(shapes, plans)):
            walk = i if plan is None else (i, plan, *_resident(op, split))
            lat = costed.get(walk)
            if lat is None:
                lat = costed[walk] = op_latency(op, split, plan=plan).latency
            latency.append(lat)
        rows.append((spad_kb, acc_kb, _left_sum(map(latency.__getitem__, slots)), True))
    feasible = [i for i, row in enumerate(rows) if row[3]]
    if not feasible:
        raise InfeasibleConfigError(f"no feasible split of {total_kb} kB")
    return rows, min(feasible, key=lambda i: rows[i][2])
