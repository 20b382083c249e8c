"""Tiled latency/energy model: tiling plans, per-op costs, model views."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tfperf import hwmodel
from tfperf.workload import (
    Conv,
    Elementwise,
    Matmul,
    MatvecSeries,
    ModelConfig,
    OperatorClass,
    OperatorSpec,
    _in_bytes,
    encoder_ops,
    flops,
    layer_ops_encoder,
    model_from_json,
    model_ops,
    model_preset,
)
from tfperf.hwmodel import (
    AcceleratorConfig,
    EnergyTable,
    InfeasibleConfigError,
    OpCostTable,
    TilingPlan,
    _out_bytes,
    _resident,
    _shape_key,
    _tiled_cost,
    accel_from_json,
    accel_preset,
    greedy_tiles,
    matmul_dims,
    matmul_latency,
    memory_split_sweep,
    model_costs,
    model_nonideal_intensity,
    nonideal_intensity,
    op_latency,
    square_tiles,
)
from tfperf.fusion import (PAIR_NAMES, _consumer_block_cycles, bert_pair, eval_pair,
                           fused_constraints)
from tfperf.mapspace import Mapping, evaluate, nest_of

from conftest import DECODER3


def _op(name: str, cfg: ModelConfig) -> OperatorSpec:
    return {o.name: o for o in encoder_ops(cfg)}[name]


# ---------------------------------------------------------------------------
# Tiling plans
# ---------------------------------------------------------------------------

def test_square_tiles_narrow_and_wide(accel, bert512):
    sq = square_tiles(_op("L0.wq", bert512), accel)
    assert (sq.tile_m, sq.tile_k, sq.tile_n) == (176, 176, 176)
    wout_op = _op("L0.wout", bert512)
    assert wout_op.pre_nonlinear  # 4-byte accumulator rows shrink the tile
    wout = square_tiles(wout_op, accel)
    assert (wout.tile_m, wout.tile_k, wout.tile_n) == (80, 80, 80)
    narrow = square_tiles(replace(wout_op, pre_nonlinear=False), accel)
    assert (narrow.tile_m, narrow.tile_k, narrow.tile_n) == (176, 176, 176)


def test_greedy_tiles_extend_k_first(accel, bert512):
    expect = {
        "L0.wq": (176, 736, 176),
        "L0.qk": (96, 64, 80),
        "L0.wout": (96, 768, 80),
        "L0.w2": (80, 1632, 80),
    }
    for name, tiles in expect.items():
        g = greedy_tiles(_op(name, bert512), accel)
        assert (g.tile_m, g.tile_k, g.tile_n) == tiles, name


def test_greedy_never_smaller_than_square(accel, bert512):
    for op in encoder_ops(bert512):
        if not isinstance(op.kind, Matmul):
            continue
        s, g = square_tiles(op, accel), greedy_tiles(op, accel)
        assert g.tile_m >= s.tile_m and g.tile_k >= s.tile_k and g.tile_n >= s.tile_n


def test_square_tiles_infeasible_spad():
    tiny = AcceleratorConfig(scratchpad_bytes=128, accumulator_bytes=64 * 1024)
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(64, 64, 64))
    with pytest.raises(InfeasibleConfigError):
        square_tiles(op, tiny)


def _pad(x: int, w: int) -> int:
    return ((x + w - 1) // w) * w


def _reference_fits(tm, tk, tn, accel, in1_b, in2_b, out_b):
    half = accel.scratchpad_bytes // 2
    return (tm * tk * in1_b <= half and tk * tn * in2_b <= half
            and tm * tn * out_b <= accel.accumulator_bytes // 2)


def _reference_square_tiles(op, accel, wide_output):
    """The square walk as two loops were written before one walk served both."""
    M, K, N = matmul_dims(op)
    W = accel.pe_width
    p = op.in_precisions
    in1_b, in2_b = (p[0], p[1]) if len(p) > 1 else (p[0], p[0])
    out_b = 4 if wide_output else op.out_precision

    def clamped(t):
        return min(t, _pad(M, W)), min(t, _pad(K, W)), min(t, _pad(N, W))

    if not _reference_fits(*clamped(W), accel, in1_b, in2_b, out_b):
        raise InfeasibleConfigError(
            f"no {W}x{W} tile fits scratchpad/accumulator for {op.name}")
    t = W
    while True:
        cand = clamped(t + W)
        if cand == clamped(t) or not _reference_fits(*cand, accel, in1_b, in2_b, out_b):
            break
        t += W
    return TilingPlan(*clamped(t))


def _reference_greedy_tiles(op, accel, wide_output):
    plan = _reference_square_tiles(op, accel, wide_output)
    M, K, N = matmul_dims(op)
    W = accel.pe_width
    p = op.in_precisions
    in1_b, in2_b = (p[0], p[1]) if len(p) > 1 else (p[0], p[0])
    out_b = 4 if wide_output else op.out_precision
    tm, tk, tn = plan.tile_m, plan.tile_k, plan.tile_n
    caps = (_pad(M, W), _pad(K, W), _pad(N, W))
    for dim in (1, 0, 2):
        while True:
            nxt = [tm, tk, tn]
            nxt[dim] = min(nxt[dim] + W, caps[dim])
            if tuple(nxt) == (tm, tk, tn) or not _reference_fits(*nxt, accel, in1_b, in2_b, out_b):
                break
            tm, tk, tn = nxt
    return TilingPlan(tm, tk, tn)


def _plan_or_error(tiles, *args):
    try:
        return tiles(*args)
    except InfeasibleConfigError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(W=st.sampled_from((4, 8, 16, 32)),
       dims=st.tuples(*[st.integers(1, 3000)] * 3),
       in_precisions=st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=2),
       out_precision=st.sampled_from((1, 2, 4)),
       pre_nonlinear=st.booleans(),
       spad=st.integers(16, 1 << 20), acc=st.integers(16, 1 << 19))
# each capacity rule of the square step in its three closed-form cases: both
# caps fit; a*W between the caps (in1 and in2 bind on the 3000-wide k); a*W
# below both caps
@example(W=16, dims=(20, 30, 40), in_precisions=[1], out_precision=1, pre_nonlinear=False,
         spad=1 << 20, acc=1 << 19)
@example(W=16, dims=(16, 3000, 16), in_precisions=[1], out_precision=1, pre_nonlinear=False,
         spad=40000, acc=1 << 19)
@example(W=16, dims=(3000, 3000, 3000), in_precisions=[1], out_precision=1,
         pre_nonlinear=False, spad=40000, acc=1 << 19)
@example(W=1, dims=(7, 13, 5), in_precisions=[2, 1], out_precision=2, pre_nonlinear=True,
         spad=100, acc=64)
# in1 fills its scratchpad half exactly at both caps; in2 then lets n grow
@example(W=16, dims=(16, 16, 100), in_precisions=[4, 1], out_precision=1, pre_nonlinear=False,
         spad=2048, acc=1 << 19)
def test_tile_walk_matches_reference_loops(W, dims, in_precisions, out_precision,
                                           pre_nonlinear, spad, acc):
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(*dims),
                      in_precisions=tuple(in_precisions), out_precision=out_precision,
                      pre_nonlinear=pre_nonlinear)
    accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad, accumulator_bytes=acc)
    for tiles, reference in ((square_tiles, _reference_square_tiles),
                             (greedy_tiles, _reference_greedy_tiles)):
        # the reference is told the drain width; the walk reads it off the op
        assert (_plan_or_error(tiles, op, accel)
                == _plan_or_error(reference, op, accel, pre_nonlinear))


def test_matmul_dims_lowering(bert512):
    from tfperf.workload import resnet50_ops
    conv = resnet50_ops()[0]
    m, k, n = matmul_dims(conv)
    assert m == conv.kind.out_h * conv.kind.out_w
    assert k == conv.kind.kernel ** 2 * conv.kind.in_ch
    assert n == conv.kind.out_ch
    with pytest.raises(TypeError):
        matmul_dims(OperatorSpec("t", OperatorClass.Nonlinear, Elementwise(8, 1, 1)))


# ---------------------------------------------------------------------------
# Per-op cost, hand-checked
# ---------------------------------------------------------------------------

_TILE = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(16, 16, 16))
_SINGLE_TILE = dict(dram=768, spad=768 + 16 ** 3 * 2 / 16, acc=16 ** 3 * 4 / 16 + 256)
_WEIGHTS = OperatorSpec("t", OperatorClass.MhaProjection, MatvecSeries(48, 48, 4),
                        in_precisions=(1, 2))
_QK = OperatorSpec("t", OperatorClass.ActToAct, MatvecSeries(4, 64, 4))
_SV = OperatorSpec("t", OperatorClass.ActToAct, MatvecSeries(64, 4, 4))
_ELEMENTWISE = OperatorSpec("t", OperatorClass.Nonlinear, Elementwise(4096, 5, 3))


# Each row: op, wide_inputs, dram_bw, latency, traffic, compute_bound, on a
# 16-wide array. spad is DRAM bytes plus each MAC's operand bytes over 16;
# acc is each MAC's 4-byte partial sum over 16 plus the drained outputs.
@pytest.mark.parametrize("op, wide, bw, latency, traffic, compute_bound", [
    # one 16x16x16 tile: 768 B moved (256 B of it drained), 16*1*1 + 16 = 32
    # compute cycles
    pytest.param(_TILE, False, 3.0, 768 / 3.0, _SINGLE_TILE, False, id="matmul"),
    pytest.param(_TILE, False, 1000.0, 32, _SINGLE_TILE, True, id="matmul-fast-dram"),
    # 4 steps, each a 2-byte 48x48 weight matrix reloaded with a 48 B input and
    # a 48 B output vector: 4704 B, 48*48/16 + 16 = 160 cycles; 9216 MACs,
    # and no drain term
    pytest.param(_WEIGHTS, False, 3.0, 4 * 4704 / 3.0,
                 dict(dram=4 * 4704, spad=4 * 4704 + 9216 * 3 / 16, acc=9216 * 4 / 16),
                 False, id="matvec-weights"),
    # step i reads i cached 64-wide keys, the 64 B query and writes i scores:
    # 65i + 64 B, 4i + 16 cycles, 64i MACs
    pytest.param(_QK, False, 1.0, 65 * 10 + 4 * 64,
                 dict(dram=906, spad=906 + 640 * 2 / 16, acc=640 * 4 / 16), False,
                 id="kv-cache-qk"),
    # step i reads i cached 64-wide values and a 64 B operand vector, and
    # writes one 64 B context vector: 64i + 128 B
    pytest.param(_SV, False, 1.0, 64 * 10 + 4 * 128,
                 dict(dram=1152, spad=1152 + 640 * 2 / 16, acc=640 * 4 / 16), False,
                 id="kv-cache-sv"),
    # 3 one-byte passes and a one-byte store: 16384 B over 3 * 4096/16 = 768
    # SFU cycles; no MACs, so every byte is staged once and none accumulates
    pytest.param(_ELEMENTWISE, False, 64.0, 768,
                 dict(dram=16384, spad=16384, acc=0), True, id="elementwise-narrow"),
    # standalone: 3 four-byte passes and a one-byte store, 13 B per element
    pytest.param(_ELEMENTWISE, True, 4.0, 4096 * 13 / 4.0,
                 dict(dram=4096 * 13, spad=4096 * 13, acc=0), False, id="elementwise-wide"),
])
def test_hand_computed_costs(op, wide, bw, latency, traffic, compute_bound):
    rep = op_latency(replace(op, wide_inputs=wide), AcceleratorConfig(dram_bw=bw))
    assert rep.latency == latency
    assert dict(rep.traffic) == traffic
    assert rep.compute_bound is compute_bound


def test_resident_operands_load_once(accel):
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(32, 32, 96))
    rep = op_latency(op, accel)
    # both operands fit on chip: every byte crosses DRAM exactly once
    assert rep.traffic["dram"] == 32 * 32 + 32 * 96 + 32 * 96


def test_nonresident_operands_reload(accel):
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(64, 64, 64))
    small = AcceleratorConfig(scratchpad_bytes=4096, accumulator_bytes=64 * 1024)
    rep = op_latency(op, small)
    ideal = 3 * 64 * 64
    # 2x2x2 grid of 32-cubes: in1 and in2 each stream once per partner block
    assert rep.traffic["dram"] == 8 * 1024 + 8 * 1024 + 4 * 1024
    assert rep.traffic["dram"] > ideal
    assert op_latency(op, accel).traffic["dram"] == ideal


def test_wq_frozen_costs(accel, bert512):
    rep = op_latency(_op("L0.wq", bert512), accel)
    assert rep.latency == pytest.approx(1397418.6666666667, rel=1e-12)
    assert rep.traffic["dram"] == 4128768.0
    assert not rep.compute_bound


def test_energy_identity(accel, bert512):
    op = _op("L0.wq", bert512)
    rep = op_latency(op, accel)
    macs = flops(op) / 2  # weight matmul: 2 flops per MAC
    want = (macs * 1.0 + rep.traffic["spad"] * 6.0
            + rep.traffic["acc"] * 12.0 + rep.traffic["dram"] * 200.0)
    assert rep.energy == pytest.approx(want, rel=1e-12)
    assert rep.edp == rep.latency * rep.energy


def test_repeat_scales_costs(accel):
    base = OperatorSpec("t", OperatorClass.ActToAct, Matmul(64, 64, 64),
                        pre_nonlinear=True)
    x3 = OperatorSpec("t", OperatorClass.ActToAct, Matmul(64, 64, 64),
                      repeat=3, pre_nonlinear=True)
    r1, r3 = op_latency(base, accel), op_latency(x3, accel)
    assert r3.latency == pytest.approx(3 * r1.latency)
    assert r3.energy == pytest.approx(3 * r1.energy)
    assert r3.traffic["dram"] == pytest.approx(3 * r1.traffic["dram"])


def test_wide_output_drains_four_bytes(accel):
    spec = dict(op_class=OperatorClass.ActToAct, kind=Matmul(64, 64, 64))
    plan = TilingPlan(64, 64, 64)
    narrow = op_latency(OperatorSpec("n", **spec), accel, plan=plan)
    wide = op_latency(OperatorSpec("w", **spec, pre_nonlinear=True), accel, plan=plan)
    assert wide.traffic["dram"] - narrow.traffic["dram"] == 64 * 64 * 3


def _sizes(total: int, tile: int) -> np.ndarray:
    n = math.ceil(total / tile)
    out = np.full(n, tile, dtype=np.int64)
    if total % tile:
        out[-1] = total % tile
    return out


def _reference_tile_grid(op: OperatorSpec, plan: TilingPlan, accel: AcceleratorConfig):
    """Per-tile grids of the m-outer/n-middle/k-inner walk, on axes (m, n, k).

    Returns (compute cycles, loaded input bytes, drained output bytes) for
    one repeat; an output block drains after its last k tile, so the drains
    are a grid on (m, n) only, of the last k slice.
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
    drained = (ms[:, None] * ns[None, :] * _out_bytes(op)).astype(np.float64)

    compute = tk * np.ceil(tm / W) * np.ceil(tn / W) + W
    return compute, in1_bytes + in2_bytes, drained


def _reference_tiled_cost(op, plan, accel):
    """One repeat's (latency, compute, dram, drained, macs) as float sums over
    the full per-tile grids of `_reference_tile_grid`."""
    compute, dram, drained = _reference_tile_grid(op, plan, accel)
    dram[:, :, -1] += drained  # in place on the loaded grid's last k slice
    M, K, N = matmul_dims(op)
    reps = op.kind.repetitions if isinstance(op.kind, Conv) else 1
    latency = np.maximum(compute, dram / accel.dram_bw)
    return (float(latency.sum()) * reps, float(compute.sum()) * reps,
            float(dram.sum()) * reps, float(drained.sum()) * reps, float(M) * K * N * reps)


def _tiled_cost_with_3d_drains(op, plan, accel):
    """`_tiled_cost` summed over a full (m, n, k) drain grid that is nonzero
    only on the last k slice: the reference for adding the (m, n) drain grid
    into the last k slice alone."""
    compute, loaded, _ = _reference_tile_grid(op, plan, accel)
    M, K, N = matmul_dims(op)
    ms = np.diff(np.r_[0:M:plan.tile_m, M])
    ns = np.diff(np.r_[0:N:plan.tile_n, N])
    drained = np.zeros(compute.shape)
    drained[:, :, -1] = ms[:, None] * ns[None, :] * (4 if op.pre_nonlinear else op.out_precision)
    dram = loaded + drained
    reps = op.kind.repetitions if isinstance(op.kind, Conv) else 1
    latency = np.maximum(compute, dram / accel.dram_bw)
    return (float(latency.sum()) * reps, float(compute.sum()) * reps,
            float(dram.sum()) * reps, float(drained.sum()) * reps, float(M) * K * N * reps)


@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, 160), K=st.integers(1, 160), N=st.integers(1, 160),
       conv=st.booleans(), prec=st.sampled_from(((1, 1), (2, 1), (1, 4))),
       wide=st.booleans(), W=st.sampled_from((4, 8, 16)),
       spad_kb=st.sampled_from((1, 4, 64)), bw=st.sampled_from((1.0, 3.0, 8.0)),
       data=st.data())
@example(M=64, K=64, N=64, conv=False, prec=(1, 1), wide=False, W=16, spad_kb=64, bw=3.0,
         data=None)  # both inputs resident, one tile
@example(M=150, K=100, N=130, conv=False, prec=(2, 1), wide=True, W=16, spad_kb=1, bw=3.0,
         data=None)  # neither input resident, ragged edges on every axis
def test_tile_walk_drains_only_the_last_k_slice(M, K, N, conv, prec, wide, W, spad_kb, bw,
                                                 data):
    kind = Conv(1, K, N, M, 1, repetitions=3) if conv else Matmul(M, K, N)
    op = OperatorSpec("t", OperatorClass.FfnProjection, kind, in_precisions=prec,
                      out_precision=prec[1], pre_nonlinear=wide)
    accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad_kb * 1024,
                              accumulator_bytes=64 * 1024, dram_bw=bw).check()
    if data is None:
        plan = TilingPlan(32, 48, 32)
    else:
        plan = TilingPlan(*(data.draw(st.integers(1, x)) for x in matmul_dims(op)))
    compute, _, drained = _reference_tile_grid(op, plan, accel)
    assert drained.shape == compute.shape[:2]
    assert _tiled_cost(op, plan, accel) == _tiled_cost_with_3d_drains(op, plan, accel)


@settings(max_examples=300, deadline=None)
@given(M=st.integers(1, 200), K=st.integers(1, 200), N=st.integers(1, 200),
       conv=st.booleans(), prec=st.sampled_from(((1, 1), (2, 1), (1, 4))),
       wide=st.booleans(), W=st.sampled_from((1, 3, 8, 16)),
       spad_kb=st.sampled_from((1, 8, 256)), bw=st.sampled_from((0.37, 2.718, 5.5)),
       data=st.data())
@example(M=5, K=7, N=3, conv=False, prec=(1, 1), wide=False, W=1, spad_kb=256, bw=0.37,
         data=None)  # W=1, one block on every axis, both inputs resident
@example(M=200, K=150, N=130, conv=True, prec=(2, 1), wide=True, W=16, spad_kb=1, bw=2.718,
         data=None)  # neither input resident, ragged edges, conv repetitions
def test_tiled_cost_matches_the_full_grid_bitwise(M, K, N, conv, prec, wide, W, spad_kb, bw,
                                                   data):
    """The run-cell walk gives the full grid's sums bit for bit: one tile per
    run cell, integer totals and the one expanded latency sum."""
    kind = Conv(1, K, N, M, 1, repetitions=3) if conv else Matmul(M, K, N)
    op = OperatorSpec("t", OperatorClass.FfnProjection, kind, in_precisions=prec,
                      out_precision=prec[1], pre_nonlinear=wide)
    accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad_kb * 1024,
                              accumulator_bytes=64 * 1024, dram_bw=bw).check()
    if data is None:
        plan = TilingPlan(*(min(x, 48) for x in (M, K, N)))
    else:  # at most 13 blocks per axis, ragged or not, single blocks included
        plan = TilingPlan(*(data.draw(st.integers(max(1, x // 12), x + 4))
                            for x in matmul_dims(op)))
    got = _tiled_cost(op, plan, accel)
    assert [v.hex() for v in got] == [v.hex() for v in _reference_tiled_cost(op, plan, accel)]


def _peak_model_w2():
    """The largest memsweep walk of the benchmark's peak model: the d=1024,
    d_FFN=4096, l=4096 `w2` at the 16 kB scratchpad split of 320 kB on a
    32-wide array."""
    cfg = model_from_json({"name": "peak", "layers": 1, "d": 1024, "heads": 4,
                           "d_ffn": 4096}, seq_len=4096)
    op = _op("L0.w2", cfg)
    accel = AcceleratorConfig(pe_width=32, scratchpad_bytes=16 * 1024,
                              accumulator_bytes=304 * 1024).check()
    return op, square_tiles(op, accel), accel


def _four_k_blocks():
    """A walk with many m and n blocks but only four k blocks."""
    op = OperatorSpec("t", OperatorClass.ActToAct, Matmul(4096, 128, 4096))
    return op, TilingPlan(32, 32, 32), AcceleratorConfig(pe_width=32).check()


@pytest.mark.parametrize("walk, tiles", [(_peak_model_w2, 65536), (_four_k_blocks, 65536)],
                         ids=["peak-model-w2", "four-k-blocks"])
def test_tile_walk_peaks_at_one_grid(walk, tiles):
    """One `_tiled_cost` holds at most one full float64 grid, and a quarter
    of one more, at its peak."""
    import tracemalloc
    op, plan, accel = walk()
    M, K, N = matmul_dims(op)
    assert math.ceil(M / plan.tile_m) * math.ceil(K / plan.tile_k) * math.ceil(N / plan.tile_n) \
        == tiles
    tracemalloc.start()
    try:
        _tiled_cost(op, plan, accel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * tiles


def _large_walk(kind, plan, W=16, spad_kb=256, bw=2.718, prec=(1, 1), wide=False):
    """A walk of more tiles than numpy's 8,192-element reduction buffer."""
    op = OperatorSpec("t", OperatorClass.FfnProjection, kind, in_precisions=prec,
                      out_precision=prec[1], pre_nonlinear=wide)
    accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad_kb * 1024,
                              accumulator_bytes=64 * 1024, dram_bw=bw).check()
    return op, TilingPlan(*plan), accel


LARGE_WALKS = {
    # tiles: 8,192 exactly; 8,193 (3 x 2,731 x 1); 8,400 with ragged n;
    # 18,513 ragged on every axis with neither input resident; a conv
    "8192": lambda: _large_walk(Matmul(512, 256, 512), (32, 16, 16)),
    "8193": lambda: _large_walk(Matmul(48, 2731, 16), (16, 1, 16), bw=0.37),
    "8400-ragged-n": lambda: _large_walk(Matmul(3000, 500, 1000), (100, 50, 37), W=8,
                                         prec=(2, 1)),
    "18513-ragged": lambda: _large_walk(Matmul(2049, 4097, 1025), (64, 128, 64), spad_kb=1,
                                        bw=5.5, wide=True),
    "conv-10240": lambda: _large_walk(Conv(1, 640, 512, 1024, 1, repetitions=3),
                                      (64, 32, 16), W=32, spad_kb=64, bw=3.0),
    "peak-model-w2": _peak_model_w2,
    "four-k-blocks": _four_k_blocks,
}


@pytest.mark.parametrize("walk", LARGE_WALKS.values(), ids=LARGE_WALKS.keys())
def test_tiled_cost_matches_the_full_grid_bitwise_past_the_reduction_buffer(walk):
    """Past numpy's 8,192-element buffer its `.sum()` adds the grid in
    chunks; the run-cell walk still gives the full grid's sums bit for bit."""
    op, plan, accel = walk()
    M, K, N = matmul_dims(op)
    assert math.ceil(M / plan.tile_m) * math.ceil(K / plan.tile_k) \
        * math.ceil(N / plan.tile_n) >= 8192
    got = _tiled_cost(op, plan, accel)
    assert [v.hex() for v in got] == [v.hex() for v in _reference_tiled_cost(op, plan, accel)]


@settings(max_examples=500, deadline=None)
@given(c=st.integers(0, 2**62), d=st.integers(0, 2**62), tie=st.booleans(),
       bw=st.floats(1e-300, 1e300) | st.sampled_from((1e-300, 0.37, 1.0, 3.0, 2.0**60)))
@example(c=2**53 + 1, d=2**53, tie=False, bw=1.0)  # c rounds down onto d / bw
@example(c=2**53 + 1, d=2**53 + 2, tie=False, bw=1.0)  # both round, d up
@example(c=2**62, d=2**62, tie=False, bw=1e-300)  # the quotient overflows to inf
@example(c=0, d=0, tie=False, bw=1e-300)
@example(c=7, d=21, tie=False, bw=3.0)  # a tie
def test_float_overlap_is_the_array_rule_bit_for_bit(c, d, tie, bw):
    """The scalar overlap spellings on Python ints and floats give the bits
    of `_overlap`'s numpy rule: cycles and bytes across 2**53, ties, and
    quotients that overflow."""
    if tie:
        d, bw = c, 1.0
    with np.errstate(over="ignore"):
        want = float(np.maximum(np.float64(c), np.float64(d) / bw)).hex()
    assert float(max(c, d / bw)).hex() == want
    x = d / bw
    assert float(c if c >= x else x).hex() == want


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_eval_pair_sums_the_full_grid_exactly(name):
    """`eval_pair`'s block sums equal an fsum over the rows of the full grid,
    with either input resident or neither, one or many blocks on each axis,
    and non-dyadic bandwidths."""
    checked = 0
    for seq_len in (128, 384, 2048):
        pair = bert_pair(name, seq_len)
        for W, spad_kb, acc_kb, bw in ((16, 256, 256, 3.0), (8, 32, 512, 0.37),
                                       (16, 1024, 128, 2.718), (32, 64, 512, 5.5)):
            accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad_kb * 1024,
                                      accumulator_bytes=acc_kb * 1024, dram_bw=bw).check()
            rep = eval_pair(pair, accel)
            if not rep.feasible:
                continue
            plan = fused_constraints(pair, accel)
            compute, loaded, _ = _reference_tile_grid(pair.producer, plan, accel)
            blocks = np.maximum(compute, loaded / bw).reshape(-1, compute.shape[2])
            b_first, b_rest = math.fsum(blocks[0]), math.fsum(blocks[-1])
            cons = _consumer_block_cycles(pair.consumer, plan.tile_m * plan.tile_n, accel)
            r, n = pair.producer.repeat, len(blocks)
            assert rep.fused_latency == r * (b_first + (n - 1) * max(b_rest, cons) + cons)
            assert rep.hidden_cycles == r * (n - 1) * min(b_rest, cons)
            nonfused = op_latency(pair.producer, accel, plan=greedy_tiles(pair.producer, accel))
            assert rep.producer_penalty == r * (b_first + (n - 1) * b_rest) / nonfused.latency
            checked += 1
    assert checked >= 6


def test_matvec_series_memory_bound(accel):
    op = OperatorSpec("t", OperatorClass.MhaProjection, MatvecSeries(768, 768, 64))
    rep = op_latency(op, accel)
    assert not rep.compute_bound
    per_iter = 768 * 768 + 768 + 768
    assert rep.traffic["dram"] == per_iter * 64


def test_elementwise_wide_inputs(accel):
    op = OperatorSpec("t", OperatorClass.Nonlinear, Elementwise(4096, 5, 3))
    narrow = op_latency(op, accel)
    wide = op_latency(replace(op, wide_inputs=True), accel)
    # standalone wide read: 3 four-byte passes + 1-byte store = 13 B/element
    assert wide.traffic["dram"] == 4096 * 13
    assert narrow.traffic["dram"] == 4096 * (3 * 1 + 1)
    assert wide.latency > narrow.latency


def test_nonideal_intensity_below_ideal(accel, bert512):
    from tfperf.workload import mops
    for op in encoder_ops(bert512):
        wide = isinstance(op.kind, Elementwise)
        nai = nonideal_intensity(replace(op, wide_inputs=wide), accel)
        assert nai <= flops(op) / mops(op) + 1e-12, op.name


# ---------------------------------------------------------------------------
# Model-level views
# ---------------------------------------------------------------------------

def test_wide_flags_pattern(bert512):
    ops = encoder_ops(bert512)
    flags = [op.wide_inputs for op in ops]
    per_layer = {op.name.split(".", 1)[1]: f for op, f in zip(ops[:12], flags[:12])}
    assert per_layer == {
        "wq": False, "wk": False, "wv": False, "qk": False,
        "softmax": True, "sv": False, "wout": False, "add_ln1": True,
        "w1": False, "gelu": False, "w2": False, "add_ln2": True,
    }
    assert flags == flags[:12] * bert512.num_layers


def test_model_costs_cover_all_ops(accel, bert512):
    costs = model_costs(bert512, accel)
    assert len(costs) == 12 * 12
    assert all(rep.latency > 0 and rep.energy > 0 for _, rep in costs)


def test_decoder_all_memory_bound(accel):
    gpt = model_preset("gpt2", 512)
    assert all(not rep.compute_bound for _, rep in model_costs(gpt, accel))


def test_latency_decreases_with_bandwidth(bert512):
    lats = []
    for bw in (1.0, 3.0, 16.0):
        a = AcceleratorConfig(dram_bw=bw)
        lats.append(sum(rep.latency for _, rep in model_costs(bert512, a)))
    assert lats[0] > lats[1] > lats[2]


def test_traffic_monotone_in_scratchpad(bert512):
    traffics = []
    for kb in (64, 256, 1024):
        a = AcceleratorConfig(scratchpad_bytes=kb * 1024)
        traffics.append(sum(rep.traffic["dram"] for _, rep in model_costs(bert512, a)))
    assert traffics[0] >= traffics[1] >= traffics[2]
    assert traffics[0] > traffics[2]


def test_model_nonideal_intensity_frozen(accel, bert512):
    assert model_nonideal_intensity(bert512, accel) == pytest.approx(56.48076923076923, rel=1e-9)


def test_memory_split_sweep(accel, bert512):
    rows, best = memory_split_sweep(bert512, accel, 320)
    assert len(rows) == 19
    assert rows[best][:2] == (64, 256) and rows[best][3]
    assert all(type(r) is tuple and len(r) == 4 for r in rows)
    default = next(r for r in rows if r[:2] == (256, 64))
    margin = 1 - rows[best][2] / default[2]
    assert margin == pytest.approx(0.23837745820126488, rel=1e-9)
    assert margin >= 0.2
    # the one split of 17 kB leaves a 1 kB accumulator, too small for a
    # 16x16 tile of 4-byte outputs
    with pytest.raises(InfeasibleConfigError, match="no feasible split of 17 kB"):
        memory_split_sweep(bert512, accel, 17)


def test_memory_split_sweep_builds_the_op_list_once(monkeypatch, accel, bert512):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return model_ops(cfg)

    slow = replace(accel, dram_bw=1.0, sfu_vector_latency=2.0,
                   energy=EnergyTable(mac_energy=2.0)).check()
    monkeypatch.setattr(hwmodel, "model_ops", counted)
    rows, _ = memory_split_sweep(bert512, slow, 160)
    assert calls == [bert512]
    monkeypatch.undo()
    # each split costs as a whole-model call does, on the given accelerator
    # with only its two capacities replaced
    for spad_kb, acc_kb, latency, _ in rows:
        split = replace(slow, scratchpad_bytes=spad_kb * 1024,
                        accumulator_bytes=acc_kb * 1024).check()
        assert latency == matmul_latency(bert512, split)
    assert rows != memory_split_sweep(bert512, accel, 160)[0]


SWEEP_JSON_MODEL = {"name": "odd", "layers": 2, "d": 200, "heads": 5, "d_ffn": 600,
                    "act_bytes": 2, "weight_bytes": 1}


def _sweep_model(name: str, seq_len: int) -> ModelConfig:
    if name == "json":
        return model_from_json(SWEEP_JSON_MODEL, seq_len=seq_len)
    return model_preset(name, seq_len)


# a 64-wide array needs a 32 kB accumulator for a tile of 4-byte outputs, so
# the last splits of a sweep are infeasible on it
SWEEP_ACCELS = {"gemmini-baseline": accel_preset("gemmini-baseline"),
                "w64": replace(accel_preset("gemmini-baseline"), pe_width=64, dram_bw=5.0)}


@pytest.mark.parametrize("total_kb", [17, 64, 320, 1024])
@pytest.mark.parametrize("seq_len", [128, 4096])
@pytest.mark.parametrize("model", ["bert-base", "gpt2", "resnet50", "json"])
@pytest.mark.parametrize("accel_name", list(SWEEP_ACCELS))
def test_memory_split_sweep_matches_whole_model_costs(accel_name, model, seq_len, total_kb):
    accel = SWEEP_ACCELS[accel_name]
    cfg = _sweep_model(model, seq_len)
    try:
        rows, _ = memory_split_sweep(cfg, accel, total_kb)
    except InfeasibleConfigError:
        rows = [(spad_kb, total_kb - spad_kb, math.inf, False)
                for spad_kb in range(16, total_kb, 16)]
    assert [r[0] for r in rows] == list(range(16, total_kb, 16))
    for spad_kb, acc_kb, latency, feasible in rows:
        split = replace(accel, scratchpad_bytes=spad_kb * 1024,
                        accumulator_bytes=acc_kb * 1024).check()
        if feasible:
            assert latency == matmul_latency(cfg, split)  # bit for bit
        else:
            assert latency == math.inf
            with pytest.raises(InfeasibleConfigError):
                model_costs(cfg, split)


def test_memory_split_sweep_marks_splits_without_a_tile_infeasible():
    rows, best = memory_split_sweep(model_preset("bert-base", 512), SWEEP_ACCELS["w64"], 320)
    assert [r[3] for r in rows] == [acc_kb >= 32 for _, acc_kb, _, _ in rows]
    assert rows[-1] == (304, 16, math.inf, False)
    assert rows[best][3]


@pytest.mark.parametrize("model", ["bert-base", "gpt2", "resnet50", "json"])
def test_memory_split_sweep_costs_each_walk_once(monkeypatch, accel, model):
    walks, matvecs = [], []
    op_latency = hwmodel.op_latency

    def counted(op, split, plan=None):
        assert not isinstance(op.kind, Elementwise)
        if isinstance(op.kind, MatvecSeries):
            matvecs.append(_shape_key(op))
        else:
            M, K, N = matmul_dims(op)
            in1_b, in2_b = hwmodel._in_bytes(op)
            half = split.scratchpad_bytes // 2
            walks.append((_shape_key(op), plan or square_tiles(op, split),
                          M * K * in1_b <= half, K * N * in2_b <= half))
        return op_latency(op, split, plan=plan)

    monkeypatch.setattr(hwmodel, "op_latency", counted)
    rows, _ = memory_split_sweep(_sweep_model(model, 512), accel, 1024)
    assert len(rows) == 63
    # a decoder is all matvec series; the other models have no series
    assert (bool(matvecs), bool(walks)) == ((True, False) if model == "gpt2" else (False, True))
    assert len(set(walks)) == len(walks)
    assert len(set(matvecs)) == len(matvecs)


def test_whole_model_totals_add_left_to_right(accel, bert512):
    # from Python 3.12 the built-in sum compensates float additions, which
    # would give 1.0 and 357308416.0 here
    assert hwmodel._left_sum([0.1] * 10) == 0.9999999999999999
    assert matmul_latency(bert512, accel) == 357308416.00000006


def test_nonlinear_latency_share_resnet(accel):
    res = model_preset("resnet50", 512)
    costs = model_costs(res, accel)
    vector = (OperatorClass.Nonlinear, OperatorClass.Pooling)
    share = (hwmodel._left_sum(rep.latency for op, rep in costs if op.op_class in vector)
             / hwmodel._left_sum(rep.latency for _, rep in costs))
    assert share == pytest.approx(0.35169199434912174, rel=1e-9)
    assert 0.244 <= share <= 0.404


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_accel_presets():
    base = accel_preset("gemmini-baseline")
    assert (base.scratchpad_bytes, base.accumulator_bytes) == (256 * 1024, 64 * 1024)
    tuned = accel_preset("gemmini-tuned")
    assert (tuned.scratchpad_bytes, tuned.accumulator_bytes) == (64 * 1024, 256 * 1024)
    # a preset is its JSON document read by accel_from_json
    assert base == accel_from_json("{}")
    assert tuned == accel_from_json('{"pe_width": 16, "scratchpad_kb": 64, "accumulator_kb": 256}')
    with pytest.raises(InfeasibleConfigError, match="unknown accelerator preset 'nope'; "
                                                    "choose from"):
        accel_preset("nope")


def test_energy_total_sums_in_table_order(accel):
    # MAC term first: each tiny term is lost against 1.0, where summing the
    # memory terms first would give 1.0000000000000002
    e = EnergyTable(mac_energy=1.0, scratchpad_access=1e-16, accumulator_access=1e-16,
                    dram_access=1e-16)
    assert e.total(1.0, 1.0, 1.0, 1.0) == 1.0
    assert (1e-16 + 1e-16 + 1e-16) + 1.0 != 1.0
    rep = op_latency(_op("L0.wq", model_preset("bert-base", 128)), accel)
    t = rep.traffic
    macs = 768 * 768 * 128
    assert rep.energy == accel.energy.total(macs, t["spad"], t["acc"], t["dram"])


def test_accel_from_json():
    a = accel_from_json('{"pe_width": 8, "scratchpad_kb": 32, "dram_bytes_per_cycle": 4}')
    assert a.pe_width == 8
    assert a.scratchpad_bytes == 32 * 1024
    assert a.dram_bw == 4.0
    assert a.energy.dram_access == 200.0
    b = accel_from_json({"energy": {"dram": 100, "spad": 2}})
    assert (b.energy.dram_access, b.energy.scratchpad_access) == (100.0, 2.0)
    assert accel_from_json('{"scratchpad_kb": "32"}').scratchpad_bytes == 32 * 1024
    # free MACs, accumulator accesses and SFU passes are allowed; negative ones are not
    c = accel_from_json({"energy": {"mac": 0, "acc": 0}, "sfu_cycles_per_vector": 0})
    assert (c.energy.mac_energy, c.energy.accumulator_access, c.sfu_vector_latency) == (0, 0, 0)


def test_accel_check_errors():
    with pytest.raises(InfeasibleConfigError):
        AcceleratorConfig(pe_width=0).check()
    with pytest.raises(InfeasibleConfigError):
        AcceleratorConfig(dram_bw=0).check()
    with pytest.raises(InfeasibleConfigError):
        AcceleratorConfig(energy=EnergyTable(dram_access=1.0)).check()
    with pytest.raises(InfeasibleConfigError):
        accel_from_json({"pe_width": "wide"})
    for doc in ('{"energy": 5}', '{"dram_bytes_per_cycle": "nan"}',
                '{"accumulator_kb": Infinity}', '{"energy": {"acc": NaN}}', '[]'):
        with pytest.raises(InfeasibleConfigError):
            accel_from_json(doc)


@pytest.mark.parametrize("tiles", [(0, 16, 16), (-16, 16, 16), (1.5, 16, 16), (16, True, 16),
                                   (16, 16, np.int64(16))],
                         ids=["zero", "negative", "fractional", "bool", "numpy-int"])
def test_op_latency_refuses_a_plan_of_other_than_positive_ints(tiles):
    """A zero tile divided by zero, and a negative or fractional one gave a
    finite report; each is refused with one ValueError, which the CLI ends
    with exit 2."""
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(64, 64, 64))
    with pytest.raises(InfeasibleConfigError, match="tile sizes must be positive integers"):
        op_latency(op, accel_preset("gemmini-baseline"), plan=TilingPlan(*tiles))
    assert issubclass(InfeasibleConfigError, ValueError)


def test_a_tile_past_its_extent_is_one_block():
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(64, 40, 64))
    accel = accel_preset("gemmini-baseline")
    assert TilingPlan(1000, 64, 65).check() == TilingPlan(1000, 64, 65)
    assert op_latency(op, accel, plan=TilingPlan(1000, 64, 65)) \
        == op_latency(op, accel, plan=TilingPlan(64, 40, 64))


@pytest.mark.parametrize("doc", [
    {"pe_width": True}, {"pe_width": False}, {"pe_width": 16.7}, {"pe_width": "16.5"},
    {"pe_width": 1e400}, {"pe_width": None}, {"pe_widht": 16}, {"name": "gemmini"},
    {"scratchpad_kb": 64, "accumulator": 64}, {"energy": {"dram_pj": 100.0}},
    {"energy": {"mac": -50}}, {"energy": {"acc": -50}}, {"sfu_cycles_per_vector": -1},
])
def test_accel_from_json_rejects_malformed(doc):
    with pytest.raises(InfeasibleConfigError):
        accel_from_json(doc)


def test_accel_from_json_integral_pe_width():
    assert accel_from_json({"pe_width": 8.0}).pe_width == 8
    assert accel_from_json({"pe_width": "32"}).pe_width == 32


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 300), k=st.integers(1, 300), n=st.integers(1, 300))
def test_latency_at_least_compute_and_drain(m, k, n):
    accel = accel_preset("gemmini-baseline")
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(m, k, n))
    rep = op_latency(op, accel)
    assert rep.latency >= rep.traffic["dram"] / accel.dram_bw - 1e-9
    assert rep.traffic["dram"] >= m * k + k * n + m * n  # every byte at least once


@settings(max_examples=30, deadline=None)
@given(bw=st.floats(0.5, 64.0))
def test_op_latency_monotone_in_bw(bw):
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(256, 256, 256))
    lo = op_latency(op, AcceleratorConfig(dram_bw=bw)).latency
    hi = op_latency(op, AcceleratorConfig(dram_bw=bw * 2)).latency
    assert hi <= lo + 1e-9


# ---------------------------------------------------------------------------
# Operator-cost table
# ---------------------------------------------------------------------------



def _report_fields(rep) -> tuple:
    return (rep.latency, rep.energy, dict(rep.traffic), rep.compute_bound)


@pytest.mark.parametrize("seq_len", [128, 512, 2048])
@pytest.mark.parametrize("accel_name", ["gemmini-baseline", "gemmini-tuned"])
@pytest.mark.parametrize("model", ["bert-base", "bert-large", "gpt2", "resnet50", "decoder3"])
def test_model_costs_match_uncached_op_latency(model, accel_name, seq_len):
    cfg = (model_from_json(DECODER3, seq_len=seq_len) if model == "decoder3"
           else model_preset(model, seq_len))
    accel = accel_preset(accel_name)
    ops = model_ops(cfg)
    costs = model_costs(cfg, accel)
    assert [op for op, _ in costs] == ops
    for op, rep in costs:
        want = op_latency(op, accel)
        assert _report_fields(rep) == _report_fields(want), op.name


def test_model_costs_share_reports_of_repeated_layers(accel, bert512):
    costs = model_costs(bert512, accel)
    first = {op.name[3:]: rep for op, rep in costs if op.name.startswith("L0.")}
    for op, rep in costs:
        if op.name.startswith("L11."):
            assert rep is first[op.name[4:]], op.name


def test_op_cost_table_counts_and_keys(accel, bert512):
    ops = model_ops(bert512)
    table = OpCostTable(accel)
    for op in ops:
        table.cost(op)
    distinct = {_shape_key(op) for op in ops}
    # per layer, wq/wk/wv share one shape and so do the two add+LayerNorm steps
    assert len(table) == table.misses == len(distinct) == 9
    assert table.hits == len(ops) - len(distinct)
    # the name is not part of the key; the wide flag is
    assert table.cost(replace(ops[0], name="renamed")) is table.cost(ops[0])
    softmax = next(op for op in ops if op.wide_inputs)
    assert (table.cost(replace(softmax, wide_inputs=False)).traffic["dram"]
            < table.cost(softmax).traffic["dram"])
    # a table costs on the accelerator it was built for
    other = AcceleratorConfig(dram_bw=accel.dram_bw * 2)
    assert (_report_fields(OpCostTable(other).cost(ops[0]))
            == _report_fields(op_latency(ops[0], other))
            != _report_fields(table.cost(ops[0])))


_MM = OperatorSpec("mm", OperatorClass.FfnProjection, Matmul(96, 64, 80))
_MV = OperatorSpec("mv", OperatorClass.ActToAct, MatvecSeries(64, 64, 64))
_EW = OperatorSpec("ew", OperatorClass.Nonlinear, Elementwise(4096, 8, 3))


@pytest.mark.parametrize("base, variant", [
    (_MM, replace(_MM, kind=Matmul(96, 64, 96))),
    (_MM, replace(_MM, repeat=3)),
    (_MM, replace(_MM, in_precisions=(2, 1))),
    (_MM, replace(_MM, out_precision=2)),
    (_MM, replace(_MM, pre_nonlinear=True)),
    (_MV, replace(_MV, op_class=OperatorClass.FfnProjection)),
    (_EW, replace(_EW, wide_inputs=True)),
], ids=["kind", "repeat", "in_precisions", "out_precision", "pre_nonlinear", "op_class",
        "wide_inputs"])
def test_op_cost_table_keys_every_field_op_latency_reads(accel, base, variant):
    table = OpCostTable(accel)
    first = table.cost(base)
    got = table.cost(variant)
    assert _report_fields(got) == _report_fields(op_latency(variant, accel))
    assert _report_fields(got) != _report_fields(first)
    assert len(table) == 2


def test_op_cost_table_does_not_keep_failures():
    tiny = AcceleratorConfig(scratchpad_bytes=64, accumulator_bytes=64)
    op = OperatorSpec("mm", OperatorClass.FfnProjection, Matmul(64, 64, 64))
    table = OpCostTable(tiny)
    for _ in range(2):
        with pytest.raises(InfeasibleConfigError):
            table.cost(op)
    assert (len(table), table.misses, table.hits) == (0, 2, 0)


def test_table_reports_are_read_only(accel):
    rep = OpCostTable(accel).cost(_MM)
    before = dict(rep.traffic)
    with pytest.raises(TypeError):
        rep.traffic["dram"] = 0.0
    with pytest.raises(TypeError):
        del rep.traffic["spad"]
    assert dict(rep.traffic) == before


# ---------------------------------------------------------------------------
# Differential oracle: the tile walk against the mapspace loop-nest kernel
# ---------------------------------------------------------------------------
# Where both models express the same schedule (extents that are multiples of
# W, square tiles that divide them, DRAM loops m-n-k, W x W spatial), they
# differ only by these named rules:
# - residency: hwmodel loads an operand that fits its scratchpad half once;
#   the kernel re-fetches in1 across n blocks when Fk > 1, and in2 across m
#   blocks when Fk > 1 or Fn > 1;
# - stationarity: when Fk == 1 the kernel keeps the in1 tile across n blocks,
#   and hwmodel re-fetches it on each one unless in1 is resident;
# - per-tile max: hwmodel sums max(compute, memory) over tiles, the kernel
#   takes the max of the two totals;
# - output drain: hwmodel charges drained outputs a scratchpad access as well.

def _named_dram_gaps(M, K, N, plan, accel) -> tuple[int, int]:
    """(residency, stationarity): DRAM bytes hwmodel saves, and adds, over the kernel."""
    Fm, Fk, Fn = M // plan.tile_m, K // plan.tile_k, N // plan.tile_n
    half = accel.scratchpad_bytes // 2
    in1_resident, in2_resident = M * K <= half, K * N <= half
    residency = 0
    if in1_resident and Fk > 1:
        residency += (Fn - 1) * M * K
    if in2_resident and (Fk > 1 or Fn > 1):
        residency += (Fm - 1) * K * N
    stationarity = (Fn - 1) * M * K if not in1_resident and Fk == 1 else 0
    return residency, stationarity


@settings(max_examples=300, deadline=None)
@given(W=st.sampled_from((8, 16)), m=st.integers(1, 8), k=st.integers(1, 8),
       n=st.integers(1, 8), spad_kb=st.sampled_from((1, 2, 4, 8, 16)),
       acc_kb=st.sampled_from((1, 4, 16)), bw=st.sampled_from((1.0, 3.0, 8.0)),
       wide=st.booleans())
@example(W=16, m=3, k=1, n=2, spad_kb=1, acc_kb=1, bw=3.0, wide=False)  # stationarity
@example(W=8, m=1, k=4, n=4, spad_kb=1, acc_kb=1, bw=3.0, wide=False)  # in1 residency
@example(W=8, m=3, k=3, n=2, spad_kb=1, acc_kb=1, bw=3.0, wide=True)  # in2 residency
def test_tile_walk_differs_from_kernel_only_by_named_rules(W, m, k, n, spad_kb, acc_kb,
                                                          bw, wide):
    M, K, N = W * m, W * k, W * n
    accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad_kb * 1024,
                              accumulator_bytes=acc_kb * 1024, dram_bw=bw).check()
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(M, K, N), pre_nonlinear=wide)
    try:
        plan = square_tiles(op, accel)
    except InfeasibleConfigError:
        assume(False)
    assume(M % plan.tile_m == 0 and K % plan.tile_k == 0 and N % plan.tile_n == 0)
    out_b = 4 if wide else 1
    hw = op_latency(op, accel)
    mapping = Mapping(nest_of(op), (W, 1, W),
                      (plan.tile_m, plan.tile_k, plan.tile_n), ("m", "n", "k"))
    kernel = evaluate(mapping, accel)

    residency, stationarity = _named_dram_gaps(M, K, N, plan, accel)
    gap = hw.traffic["dram"] - kernel.traffic["dram"]
    assert gap == stationarity - residency
    if gap == 0:
        # equal compute and DRAM totals: a sum of per-tile maxima is at least
        # the max of the sums (up to the rounding of the per-tile quotients)
        assert hw.latency >= kernel.latency * (1 - 1e-12)
    e = accel.energy
    drain = M * N * out_b * e.scratchpad_access
    want = drain + gap * (e.scratchpad_access + e.dram_access)
    assert hw.energy - kernel.energy == pytest.approx(want, rel=1e-12, abs=1e-6)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used on a scalar path")


def test_scalar_paths_need_no_numpy(monkeypatch):
    """Tiling, an elementwise cost and the fused consumer's block cycles run
    on Python numbers alone, with the bytes they had when numpy served them."""
    accels = {
        "baseline": accel_preset("gemmini-baseline"),
        "odd": AcceleratorConfig(pe_width=8, scratchpad_bytes=32 * 1024,
                                 accumulator_bytes=512 * 1024, dram_bw=0.37,
                                 sfu_vector_latency=2.5).check(),
        "slow-sfu": AcceleratorConfig(pe_width=4, dram_bw=7.5, sfu_vector_latency=40.0).check(),
    }
    tiles = {  # (square, greedy) per accelerator and op
        "baseline": {"L0.qk": ((80, 64, 80), (96, 64, 80)),
                     "L0.sv": ((352, 352, 64), (352, 368, 64)),
                     "L0.wout": ((80, 80, 80), (96, 768, 80)),
                     "L0.w2": ((80, 80, 80), (80, 1632, 80))},
        "odd": {"L0.qk": ((256, 64, 256), (256, 64, 256)),
                "L0.sv": ((128, 128, 64), (128, 128, 64)),
                "L0.wout": ((128, 128, 128), (128, 128, 128)),
                "L0.w2": ((128, 128, 128), (128, 128, 128))},
        "slow-sfu": {"L0.qk": ((88, 64, 88), (92, 64, 88)),
                     "L0.sv": ((360, 360, 64), (360, 364, 64)),
                     "L0.wout": ((88, 88, 88), (92, 768, 88)),
                     "L0.w2": ((88, 88, 88), (88, 1488, 88))},
    }
    elementwise = {  # (latency, energy, compute_bound) per accelerator and op
        "baseline": {"L0.softmax": (13631488.0, 8424259584.0, False),
                     "L0.add_ln1": (1703936.0, 1053032448.0, False),
                     "L0.gelu": (1048576.0, 648019968.0, False)},
        "odd": {"L0.softmax": (110525578.37837838, 8424259584.0, False),
                "L0.add_ln1": (13815697.297297297, 1053032448.0, False),
                "L0.gelu": (8501967.567567568, 648019968.0, False)},
        "slow-sfu": {"L0.softmax": (94371840.0, 8424259584.0, True),
                     "L0.add_ln1": (11796480.0, 1053032448.0, True),
                     "L0.gelu": (15728640.0, 648019968.0, True)},
    }
    consumer = {"baseline": [333.3333333333333, 10922.666666666666],
                "odd": [2702.702702702703, 88562.16216216216],
                "slow-sfu": [30000.0, 983040.0]}
    ops = {op.name: op for op in layer_ops_encoder(model_preset("bert-base", 512), 0)}
    softmax = bert_pair("qk-softmax").consumer
    monkeypatch.setattr(hwmodel, "np", _NoNumpy())
    for name, accel in accels.items():
        for op_name, (square, greedy) in tiles[name].items():
            assert square_tiles(ops[op_name], accel) == TilingPlan(*square)
            assert greedy_tiles(ops[op_name], accel) == TilingPlan(*greedy)
        for op_name, (latency, energy, bound) in elementwise[name].items():
            rep = op_latency(ops[op_name], accel)
            assert (rep.latency.hex(), rep.energy.hex(), rep.compute_bound) \
                == (latency.hex(), energy.hex(), bound)
        assert [_consumer_block_cycles(softmax, e, accel).hex() for e in (1000, 64 * 512)] \
            == [v.hex() for v in consumer[name]]
