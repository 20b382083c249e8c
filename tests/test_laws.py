"""Laws every operator cost obeys, on drawn operators and accelerators.

Roofline bounds (Williams, Waterman and Patterson, CACM 2009): an operator
takes at least its DRAM bytes over the DRAM bandwidth, and a matmul or conv
at least its MACs over the W x W array; a matmul or conv moves at least its
compulsory bytes, each operand and output once. The same bounds hold for a
sampled mapping's cost and for a fused producer/consumer schedule.
Each encoder layer of a search candidate obeys the two roofline bounds too.
Metamorphic laws: latency does not rise with the bandwidth, `repeat` scales
every total, and the energy is linear in the energy table; a search
candidate's EDP does not rise with the bandwidth and doubles with the table.
"""
import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from tfperf import fusion, mapspace
from tfperf.archsearch import Candidate, CostCache, candidate_edp, candidate_ops
from tfperf.hwmodel import (_ACCUM_BYTES, AcceleratorConfig, EnergyTable, InfeasibleConfigError,
                            _out_bytes, matmul_dims, op_latency)
from tfperf.mapspace import conv_nest, matmul_nest
from tfperf.workload import (Conv, Elementwise, Matmul, MatvecSeries, OperatorClass,
                             OperatorSpec, _in_bytes)

_dims = st.integers(1, 400)
_widths = st.sampled_from((1, 2, 4))

_kinds = st.one_of(
    st.builds(Matmul, _dims, _dims, _dims),
    st.builds(Conv, st.sampled_from((1, 3)), st.integers(1, 64), st.integers(1, 128),
              st.integers(1, 20), st.integers(1, 20), repetitions=st.integers(1, 3)),
    st.builds(MatvecSeries, st.integers(1, 256), st.integers(1, 256), st.integers(1, 64)),
    st.builds(Elementwise, st.integers(1, 1 << 16), st.integers(1, 8), st.integers(1, 3)),
)


@st.composite
def _ops(draw):
    kind = draw(_kinds)
    if isinstance(kind, MatvecSeries):
        cls = draw(st.sampled_from((OperatorClass.ActToAct, OperatorClass.MhaProjection)))
        if cls is OperatorClass.ActToAct:  # a KV-cache series grows along one side
            kind = replace(kind, **{draw(st.sampled_from(("rows", "cols"))): kind.iterations})
    elif isinstance(kind, Elementwise):
        cls = OperatorClass.Nonlinear
    else:
        cls = OperatorClass.FfnProjection
    return OperatorSpec("t", cls, kind, repeat=draw(st.integers(1, 4)),
                        in_precisions=tuple(draw(st.lists(_widths, min_size=1, max_size=2))),
                        out_precision=draw(_widths), pre_nonlinear=draw(st.booleans()),
                        wide_inputs=draw(st.booleans()))


_bandwidths = st.floats(0.25, 64.0)
_accels = st.builds(
    AcceleratorConfig,
    pe_width=st.sampled_from((1, 4, 8, 16, 32)),
    scratchpad_bytes=st.integers(2, 1024).map(lambda kb: kb * 1024),
    accumulator_bytes=st.integers(2, 512).map(lambda kb: kb * 1024),
    dram_bw=_bandwidths,
    sfu_vector_latency=st.sampled_from((0.0, 1.0, 2.5)),
    energy=st.builds(EnergyTable, st.floats(0.0, 2.0), st.floats(1.0, 10.0),
                     st.floats(0.0, 20.0), st.floats(11.0, 400.0)),
)


def _cost(op, accel):
    try:
        return op_latency(op, accel.check())
    except InfeasibleConfigError:  # no minimal tile fits the drawn capacities
        assume(False)


@settings(max_examples=150, deadline=None)
@given(op=_ops(), accel=_accels)
def test_roofline_bounds(op, accel):
    rep = _cost(op, accel)
    assert rep.latency >= rep.traffic["dram"] / accel.dram_bw * (1 - 1e-12)
    if isinstance(op.kind, (Matmul, Conv)):
        M, K, N = matmul_dims(op)
        times = op.repeat * (op.kind.repetitions if isinstance(op.kind, Conv) else 1)
        W = accel.pe_width
        assert rep.latency >= M * K * N * times / (W * W)
        in1_b, in2_b = _in_bytes(op)
        compulsory = (M * K * in1_b + K * N * in2_b + M * N * _out_bytes(op)) * times
        assert rep.traffic["dram"] >= compulsory


@settings(max_examples=100, deadline=None)
@given(op=_ops(), accel=_accels, faster=_bandwidths)
def test_latency_does_not_rise_with_bandwidth(op, accel, faster):
    slow, fast = sorted((accel.dram_bw, faster))
    assert (_cost(op, replace(accel, dram_bw=fast)).latency
            <= _cost(op, replace(accel, dram_bw=slow)).latency)


@settings(max_examples=100, deadline=None)
@given(op=_ops(), accel=_accels, times=st.integers(1, 64))
def test_repeat_scales_every_total(op, accel, times):
    one = _cost(replace(op, repeat=1), accel)
    many = _cost(replace(op, repeat=times), accel)
    assert many.latency == one.latency * times
    assert dict(many.traffic) == {k: v * times for k, v in one.traffic.items()}
    if times & (times - 1) == 0:  # a power of two scales every float exactly
        assert many.energy == one.energy * times
    else:
        assert many.energy == pytest.approx(one.energy * times, rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(op=_ops(), accel=_accels)
def test_energy_is_linear_in_the_table(op, accel):
    e = accel.energy
    doubled = EnergyTable(2 * e.mac_energy, 2 * e.scratchpad_access,
                          2 * e.accumulator_access, 2 * e.dram_access)
    assert _cost(op, replace(accel, energy=doubled)).energy == 2 * _cost(op, accel).energy


_nests = st.builds(
    lambda nest, precisions: replace(nest, precisions=precisions),
    st.one_of(st.builds(matmul_nest, _dims, _dims, _dims),
              st.builds(lambda k, ic, oc, hw, stride: conv_nest(Conv(k, ic, oc, hw, hw, stride)),
                        st.sampled_from((1, 3)), st.integers(1, 64), st.integers(1, 64),
                        st.integers(1, 20), st.integers(1, 2))),
    st.tuples(_widths, _widths, _widths))


def _compulsory_bytes(nest) -> int:
    """Each operand and output element of the nest moved once: a conv reads
    the input rows and columns its windows touch."""
    in1_b, in2_b, out_b = nest.precisions
    if nest.is_conv:
        oc, ic, kh, kw, oh, ow = nest.extents
        s = nest.stride
        ih, iw = min((oh - 1) * s + kh, oh * kh), min((ow - 1) * s + kw, ow * kw)
        return ic * ih * iw * in1_b + oc * ic * kh * kw * in2_b + oc * oh * ow * out_b
    M, K, N = nest.extents
    return M * K * in1_b + K * N * in2_b + M * N * out_b


@settings(max_examples=200, deadline=None)
@given(nest=_nests, accel=_accels, seed=st.integers(0, 2 ** 32 - 1))
def test_sampled_mapping_roofline_bounds(nest, accel, seed):
    try:
        rep = mapspace.evaluate(mapspace.random_mapping(nest, accel.check(), seed), accel)
    except InfeasibleConfigError:  # no mapping fits the drawn capacities
        assume(False)
    W = accel.pe_width
    assert rep.latency >= rep.traffic["dram"] / accel.dram_bw * (1 - 1e-12)
    assert rep.latency >= math.prod(nest.extents) / (W * W)
    assert rep.traffic["dram"] >= _compulsory_bytes(nest)


@st.composite
def _fusion_pairs(draw):
    M, K, N = draw(_dims), draw(_dims), draw(_dims)
    repeat = draw(st.integers(1, 4))
    producer = OperatorSpec("p", OperatorClass.ActToAct, Matmul(M, K, N), repeat=repeat,
                            in_precisions=tuple(draw(st.lists(_widths, min_size=1, max_size=2))),
                            out_precision=draw(_widths), pre_nonlinear=True)
    consumer = OperatorSpec("c", OperatorClass.Nonlinear,
                            Elementwise(M * N, draw(st.integers(1, 8)), draw(st.integers(1, 3))),
                            repeat=repeat, out_precision=draw(_widths), wide_inputs=True)
    return fusion.FusionPair(producer, consumer, draw(st.sampled_from(("m", "n"))))


@settings(max_examples=250, deadline=None)
@given(pair=_fusion_pairs(), accel=_accels)
def test_fused_latency_roofline_bound(pair, accel):
    try:
        rep = fusion.eval_pair(pair, accel.check())
    except InfeasibleConfigError:  # the non-fused producer fits no tile
        assume(False)
    assume(rep.feasible)
    M, K, N = matmul_dims(pair.producer)
    assert rep.fused_latency >= M * K * N * pair.producer.repeat / accel.pe_width ** 2


@st.composite
def _candidates(draw):
    n = draw(st.integers(1, 2))
    genes = st.lists(st.integers(1, 16), min_size=n, max_size=n)  # h <= d: no config error
    ffns = st.lists(st.integers(1, 1024), min_size=n, max_size=n)
    return Candidate(n, draw(st.integers(16, 256)), tuple(draw(genes)), tuple(draw(ffns)))


def _edp(c, accel):
    try:
        return candidate_edp(c, CostCache(accel.check()))
    except InfeasibleConfigError:  # some operator fits no tile of the drawn capacities
        assume(False)


@settings(max_examples=80, deadline=None)
@given(c=_candidates(), accel=_accels, faster=_bandwidths)
def test_candidate_edp_does_not_rise_with_bandwidth(c, accel, faster):
    slow, fast = sorted((accel.dram_bw, faster))
    assert _edp(c, replace(accel, dram_bw=fast)) <= _edp(c, replace(accel, dram_bw=slow))


@settings(max_examples=80, deadline=None)
@given(c=_candidates(), accel=_accels)
def test_candidate_edp_doubles_with_the_energy_table(c, accel):
    # every operator's energy doubles exactly, so their sum and the EDP do too
    e = accel.energy
    doubled = EnergyTable(2 * e.mac_energy, 2 * e.scratchpad_access,
                          2 * e.accumulator_access, 2 * e.dram_access)
    assert _edp(c, replace(accel, energy=doubled)) == 2 * _edp(c, accel)


def _layer_floors(ops) -> tuple[int, int]:
    """An encoder layer's compulsory DRAM bytes and MACs: each matmul operand
    and output, and each elementwise input and output, moved once; a wide
    input is read at accumulator width."""
    nbytes = macs = 0
    for op in ops:
        k = op.kind
        if isinstance(k, Matmul):
            in1_b, in2_b = _in_bytes(op)
            nbytes += (k.M * k.K * in1_b + k.K * k.N * in2_b
                       + k.M * k.N * _out_bytes(op)) * op.repeat
            macs += k.M * k.K * k.N * op.repeat
        else:
            in_b = _ACCUM_BYTES if op.wide_inputs else op.in_precisions[0]
            nbytes += k.elements * (in_b + op.out_precision) * op.repeat
    return nbytes, macs


@settings(max_examples=80, deadline=None)
@given(c=_candidates(), accel=_accels)
def test_candidate_layer_roofline_bounds(c, accel):
    cache = CostCache(accel.check())
    try:
        candidate_edp(c, cache)
    except InfeasibleConfigError:  # some operator fits no tile of the drawn capacities
        assume(False)
    ops = candidate_ops(c)
    W = accel.pe_width
    for i in range(c.N):
        # the layer's 12 operator latencies, added up with one rounding
        latency = math.fsum(cache.costs[0, cache.layers[c.d, c.h[i], c.d_FFN[i]]])
        nbytes, macs = _layer_floors([op for op in ops if op.name.startswith(f"L{i}.")])
        assert latency >= nbytes / accel.dram_bw * (1 - 1e-12)
        assert latency >= macs / (W * W)
