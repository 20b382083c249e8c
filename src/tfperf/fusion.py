"""Fusion-optimized scheduling of a matmul with its trailing Softmax/LayerNorm.

Fused execution constrains the producer so the consumer's normalization axis
is computed whole: the tile along that axis spans the full (padded) extent
and the finished rows/columns stay resident in the accumulator, where the SFU
consumes them without a DRAM round-trip. The producer then walks blocks of
the other output dim, and consumer vector work for block i-1 overlaps the
matmul of block i.

Non-fused execution uses the greedy max-tile heuristic for the producer,
drains 4-byte partials to DRAM, and runs the consumer standalone (three
4-byte input passes plus the narrow store).

Both schedules are costed by `hwmodel`: the producer by its tile walk, the
standalone consumer by its elementwise rule. The only rule kept here is the
consumer reading its inputs from the accumulator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .hwmodel import (_ACCUM_BYTES, _STANDALONE_PASSES, AcceleratorConfig, TilingPlan,
                      _overlap, _tile_grid, greedy_tiles, op_latency)
from .mapspace import _divisors
from .workload import (Elementwise, Matmul, OperatorSpec, _in_bytes, layer_ops_encoder,
                       model_preset)

PAIR_NAMES = ("qk-softmax", "wout-ln", "ffn2-ln")


class Verdict(Enum):
    FusionWins = "FusionWins"
    FusionLoses = "FusionLoses"


class FusionInfeasibleError(ValueError):
    """Full-axis residency does not fit the accumulator."""


@dataclass(frozen=True)
class FusionPair:
    producer: OperatorSpec
    consumer: OperatorSpec  # the Softmax/LayerNorm that reads every output
    reduction_dim: str  # producer output dim the consumer normalizes along

    def check(self) -> "FusionPair":
        if not isinstance(self.producer.kind, Matmul):
            raise TypeError("fusion producer must be a Matmul operator")
        if not self.producer.pre_nonlinear:
            raise ValueError("fusion producer must be pre_nonlinear: its outputs feed "
                             "the consumer at accumulator width")
        if self.reduction_dim not in ("m", "n"):
            raise ValueError("reduction_dim must be an output dim: 'm' or 'n'")
        if not isinstance(self.consumer.kind, Elementwise):
            raise ValueError("fusion consumer must be an Elementwise operator")
        k = self.producer.kind
        outputs = k.M * k.N * self.producer.repeat
        if self.consumer.kind.elements * self.consumer.repeat != outputs:
            raise ValueError(f"fusion consumer reads {self.consumer.kind.elements} x "
                             f"{self.consumer.repeat} elements, producer writes {outputs}")
        return self

    @property
    def block_dim(self) -> str:
        return "n" if self.reduction_dim == "m" else "m"


@dataclass(frozen=True)
class FusionReport:
    fused_latency: float
    nonfused_latency: float
    producer_penalty: float
    hidden_cycles: float
    verdict: Verdict
    feasible: bool = True
    reason: str = ""


def bert_pair(name: str, seq_len: int = 512) -> FusionPair:
    """The named producer/consumer pair of bert-base's first layer."""
    ops = {op.name: op for op in layer_ops_encoder(model_preset("bert-base", seq_len), 0)}
    if name == "qk-softmax":
        return FusionPair(ops["L0.qk"], ops["L0.softmax"], "n").check()
    if name == "wout-ln":
        return FusionPair(ops["L0.wout"], ops["L0.add_ln1"], "m").check()
    if name == "ffn2-ln":
        return FusionPair(ops["L0.w2"], ops["L0.add_ln2"], "m").check()
    raise ValueError(f"unknown fusion pair {name!r}; choose from {PAIR_NAMES}")


def _largest_divisor_leq(x: int, cap: int) -> int:
    if cap < 1:
        raise FusionInfeasibleError(f"no divisor of {x} fits bound {cap}")
    return max(d for d in _divisors(x) if d <= cap)


def fused_constraints(pair: FusionPair, accel: AcceleratorConfig) -> TilingPlan:
    """Tiling forced by accumulator residency of the normalization axis."""
    pair.check()
    k = pair.producer.kind
    in1_b, in2_b = _in_bytes(pair.producer)
    half = accel.scratchpad_bytes // 2
    acc_half = accel.accumulator_bytes // 2
    full_ext = k.N if pair.reduction_dim == "n" else k.M
    block_ext = k.M if pair.reduction_dim == "n" else k.N

    # block co-tile: accumulator-wide rows/columns of the full axis stay resident
    row_bytes = full_ext * _ACCUM_BYTES
    if row_bytes > acc_half:
        raise FusionInfeasibleError(
            f"one {full_ext}-wide {_ACCUM_BYTES}-byte vector ({row_bytes} B) exceeds the "
            f"accumulator half ({acc_half} B)")
    t_block = _largest_divisor_leq(block_ext, acc_half // row_bytes)

    # reduction tile: both scratchpad operands must hold a k-slice
    t_m, t_n = (t_block, full_ext) if pair.reduction_dim == "n" else (full_ext, t_block)
    cap = min(half // (t_m * in1_b), half // (t_n * in2_b))
    if cap < 1:
        raise FusionInfeasibleError(
            f"full {full_ext}-wide axis leaves no room for a k-slice in the "
            f"scratchpad half ({half} B)")
    t_k = _largest_divisor_leq(k.K, cap)
    return TilingPlan(t_m, t_k, t_n)


def _consumer_block_cycles(consumer: OperatorSpec, elements: int,
                           accel: AcceleratorConfig) -> float:
    """Vector work for `elements` finished outputs read from the accumulator:
    no DRAM loads, only the store at the consumer's output width."""
    comp = _STANDALONE_PASSES * math.ceil(elements / accel.pe_width) * accel.sfu_vector_latency
    return float(_overlap(comp, elements * consumer.out_precision, accel.dram_bw))


def eval_pair(pair: FusionPair, accel: AcceleratorConfig) -> FusionReport:
    """Fused-vs-nonfused latency report for one producer/consumer pair."""
    pair.check()
    plan = greedy_tiles(pair.producer, accel)
    producer_nonfused = op_latency(pair.producer, accel, plan=plan).latency
    nonfused = (producer_nonfused
                + op_latency(pair.consumer, accel, wide_inputs=True).latency)

    try:
        plan = fused_constraints(pair, accel)
    except FusionInfeasibleError as exc:
        return FusionReport(math.inf, nonfused, math.inf, 0.0,
                            Verdict.FusionLoses, feasible=False, reason=str(exc))

    # one tile spans the full axis, so the walk is one row of k tiles per
    # block; only the first block loads the shared operand if it is resident.
    # The consumer reads the outputs from the accumulator, so a tile overlaps
    # only its loaded bytes. fsum rounds each row's sum once, as f_k * tile would.
    compute, loaded, _ = _tile_grid(pair.producer, plan, accel)
    lat = _overlap(compute, loaded, accel.dram_bw)
    blocks = lat.reshape(-1, lat.shape[2])
    n_blocks = len(blocks)
    b_first, b_rest = math.fsum(blocks[0]), math.fsum(blocks[-1])
    cons = _consumer_block_cycles(pair.consumer, plan.tile_m * plan.tile_n, accel)

    rep = pair.producer.repeat
    fused_lat = rep * (b_first + (n_blocks - 1) * max(b_rest, cons) + cons)
    hidden = rep * (n_blocks - 1) * min(b_rest, cons)
    producer_fused = rep * (b_first + (n_blocks - 1) * b_rest)
    penalty = producer_fused / producer_nonfused
    verdict = Verdict.FusionWins if fused_lat < nonfused else Verdict.FusionLoses
    return FusionReport(fused_lat, nonfused, penalty, hidden, verdict)


def fusion_sweep(pair_name: str, accel: AcceleratorConfig,
                 accum_kbs: list[int], seq_lens: list[int]) -> dict:
    """FusionReport per (accumulator_kb, seq_len) cell; infeasible cells kept.

    The pair depends on the sequence length only, so each is built once."""
    if not accum_kbs or not seq_lens:
        raise ValueError("accum_kbs and seq_lens must be nonempty")
    accels = {kb: replace(accel, accumulator_bytes=kb * 1024).check() for kb in accum_kbs}
    pairs = {l: bert_pair(pair_name, seq_len=l) for l in seq_lens}
    return {(kb, l): eval_pair(pair, cell_accel)
            for kb, cell_accel in accels.items() for l, pair in pairs.items()}
