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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .hwmodel import _STANDALONE_PASSES, AcceleratorConfig, greedy_tiles, op_latency
from .mapspace import Mapping, matmul_nest, _divisors
from .workload import Matmul, ModelConfig, OperatorSpec, encoder_ops, model_preset

PAIR_NAMES = ("qk-softmax", "wout-ln", "ffn2-ln")


class FusionConsumer(Enum):
    Softmax = "softmax"
    LayerNorm = "layernorm"


class Verdict(Enum):
    FusionWins = "FusionWins"
    FusionLoses = "FusionLoses"


class FusionInfeasibleError(ValueError):
    """Full-axis residency does not fit the accumulator."""


@dataclass(frozen=True)
class FusionPair:
    producer: OperatorSpec
    consumer: FusionConsumer
    reduction_dim: str  # producer output dim the consumer normalizes along

    def check(self) -> "FusionPair":
        if not isinstance(self.producer.kind, Matmul):
            raise TypeError("fusion producer must be a Matmul operator")
        if self.reduction_dim not in ("m", "n"):
            raise ValueError("reduction_dim must be an output dim: 'm' or 'n'")
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


@dataclass(frozen=True)
class FusedConstraints:
    """Concrete constrained tiling; as_mapping() makes it validate()-checkable."""
    pair: FusionPair
    tile_m: int
    tile_k: int
    tile_n: int

    def as_mapping(self) -> Mapping:
        k = self.pair.producer.kind
        nest = matmul_nest(k.M, k.K, k.N)
        block = self.pair.block_dim
        inner = self.pair.reduction_dim
        return Mapping(nest=nest, spatial=(1, 1, 1),
                       tiles=(self.tile_m, self.tile_k, self.tile_n),
                       dram_perm=(block, "k", inner))


def bert_pair(name: str, seq_len: int = 512,
              cfg: ModelConfig | None = None) -> FusionPair:
    if cfg is None:
        cfg = model_preset("bert-base", seq_len=seq_len)
    ops = {op.name: op for op in encoder_ops(cfg)[:12]}
    if name == "qk-softmax":
        return FusionPair(ops["L0.qk"], FusionConsumer.Softmax, "n").check()
    if name == "wout-ln":
        return FusionPair(ops["L0.wout"], FusionConsumer.LayerNorm, "m").check()
    if name == "ffn2-ln":
        return FusionPair(ops["L0.w2"], FusionConsumer.LayerNorm, "m").check()
    raise ValueError(f"unknown fusion pair {name!r}; choose from {PAIR_NAMES}")


def _largest_divisor_leq(x: int, cap: int) -> int:
    if cap < 1:
        raise FusionInfeasibleError(f"no divisor of {x} fits bound {cap}")
    return max(d for d in _divisors(x) if d <= cap)


def fused_constraints(pair: FusionPair, accel: AcceleratorConfig) -> FusedConstraints:
    """Tiling forced by accumulator residency of the normalization axis."""
    pair.check()
    k = pair.producer.kind
    act_b = max(pair.producer.in_precisions)
    half = accel.scratchpad_bytes // 2
    acc_half = accel.accumulator_bytes // 2
    full_ext = k.N if pair.reduction_dim == "n" else k.M
    block_ext = k.M if pair.reduction_dim == "n" else k.N

    # block co-tile: 4-byte rows/columns of the full axis must stay resident
    row_bytes = full_ext * 4
    if row_bytes > acc_half:
        raise FusionInfeasibleError(
            f"one {full_ext}-wide 4-byte vector ({row_bytes} B) exceeds the "
            f"accumulator half ({acc_half} B)")
    t_block = _largest_divisor_leq(block_ext, acc_half // row_bytes)

    # reduction tile: both scratchpad operands must hold a k-slice
    t_m, t_n = (t_block, full_ext) if pair.reduction_dim == "n" else (full_ext, t_block)
    cap = min(half // (t_m * act_b), half // (t_n * act_b))
    if cap < 1:
        raise FusionInfeasibleError(
            f"full {full_ext}-wide axis leaves no room for a k-slice in the "
            f"scratchpad half ({half} B)")
    t_k = _largest_divisor_leq(k.K, cap)
    return FusedConstraints(pair, t_m, t_k, t_n)


def _consumer_block_cycles(elements: int, accel: AcceleratorConfig,
                           from_accumulator: bool) -> float:
    """Vector work for `elements` finished outputs; fused reads skip DRAM."""
    if elements == 0:
        return 0.0
    comp = _STANDALONE_PASSES * math.ceil(elements / accel.pe_width) * accel.sfu_vector_latency
    store = elements * 1
    loads = 0 if from_accumulator else elements * 4 * _STANDALONE_PASSES
    return max(comp, (store + loads) / accel.dram_bw)


def eval_pair(pair: FusionPair, accel: AcceleratorConfig,
              fused: bool = True) -> FusionReport:
    """Fused-vs-nonfused latency report for one producer/consumer pair."""
    pair.check()
    k = pair.producer.kind
    act_b = max(pair.producer.in_precisions)
    rep = pair.producer.repeat

    plan = greedy_tiles(pair.producer, accel, wide_output=True)
    producer_nonfused = op_latency(pair.producer, accel, plan=plan).latency
    consumer_standalone = rep * _consumer_block_cycles(
        k.M * k.N, accel, from_accumulator=False)
    nonfused = producer_nonfused + consumer_standalone
    if not fused:
        return FusionReport(nonfused, nonfused, 1.0, 0.0, Verdict.FusionLoses)

    try:
        c = fused_constraints(pair, accel)
    except FusionInfeasibleError as exc:
        return FusionReport(math.inf, nonfused, math.inf, 0.0,
                            Verdict.FusionLoses, feasible=False, reason=str(exc))

    full_ext = k.N if pair.reduction_dim == "n" else k.M
    block_ext = k.M if pair.reduction_dim == "n" else k.N
    t_block = c.tile_m if pair.reduction_dim == "n" else c.tile_n
    n_blocks = block_ext // t_block
    f_k = k.K // c.tile_k
    W = accel.pe_width
    half = accel.scratchpad_bytes // 2

    # the full-axis operand is shared across blocks; the block operand is not
    shared_bytes = k.K * full_ext * act_b
    shared_resident = shared_bytes <= half
    own_slice = t_block * c.tile_k * act_b
    shared_slice = c.tile_k * full_ext * act_b
    comp_tile = c.tile_k * math.ceil(t_block / W) * math.ceil(full_ext / W) + W

    def block_cycles(loads_shared: bool) -> float:
        by = own_slice + (shared_slice if loads_shared else 0)
        return f_k * max(comp_tile, by / accel.dram_bw)

    b_first = block_cycles(True)
    b_rest = block_cycles(not shared_resident)
    cons = _consumer_block_cycles(t_block * full_ext, accel, from_accumulator=True)

    fused_lat = rep * (b_first + (n_blocks - 1) * max(b_rest, cons) + cons)
    hidden = rep * (n_blocks - 1) * min(b_rest, cons)
    producer_fused = rep * (b_first + (n_blocks - 1) * b_rest)
    penalty = producer_fused / producer_nonfused
    verdict = Verdict.FusionWins if fused_lat < nonfused else Verdict.FusionLoses
    return FusionReport(fused_lat, nonfused, penalty, hidden, verdict)


def fusion_sweep(pair_name: str, accel: AcceleratorConfig,
                 accum_kbs: list[int], seq_lens: list[int]) -> dict:
    """FusionReport per (accumulator_kb, seq_len) cell; infeasible cells kept."""
    if not accum_kbs or not seq_lens:
        raise ValueError("accum_kbs and seq_lens must be nonempty")
    from dataclasses import replace
    grid = {}
    for kb in accum_kbs:
        cell_accel = replace(accel, accumulator_bytes=kb * 1024).check()
        for l in seq_lens:
            pair = bert_pair(pair_name, seq_len=l)
            grid[(kb, l)] = eval_pair(pair, cell_accel)
    return grid
