"""Fusion-constrained scheduling: constraints, latency model, sweep grids."""
import math
from dataclasses import replace

import pytest

from tfperf import fusion, workload
from tfperf.workload import (Elementwise, Matmul, MatvecSeries, OperatorClass, OperatorSpec,
                             encoder_ops, mops, model_preset)
from tfperf.hwmodel import (AcceleratorConfig, accel_preset, greedy_tiles, model_costs,
                            op_latency)
from tfperf.mapspace import Mapping, nest_of, validate
from tfperf.fusion import (
    PAIR_NAMES,
    FusionInfeasibleError,
    FusionPair,
    Verdict,
    bert_pair,
    eval_pair,
    fused_constraints,
    fusion_sweep,
)


def _accel(acc_kb: int) -> AcceleratorConfig:
    return replace(accel_preset("gemmini-baseline"),
                   accumulator_bytes=acc_kb * 1024).check()


# ---------------------------------------------------------------------------
# Pair construction
# ---------------------------------------------------------------------------

def test_bert_pairs():
    qk = bert_pair("qk-softmax", 512)
    assert qk.consumer.name == "L0.softmax"
    assert qk.reduction_dim == "n"
    assert ("n" if qk.reduction_dim == "m" else "m") == "m"  # the block dim
    assert qk.producer.kind == Matmul(512, 64, 512)
    assert qk.producer.repeat == 12
    wout = bert_pair("wout-ln", 512)
    assert wout.consumer.name == "L0.add_ln1"
    assert (wout.reduction_dim, "n" if wout.reduction_dim == "m" else "m") == ("m", "n")
    assert wout.producer.kind == Matmul(768, 768, 512)
    ffn2 = bert_pair("ffn2-ln", 512)
    assert ffn2.producer.kind == Matmul(768, 3072, 512)
    assert ffn2.consumer.name == "L0.add_ln2"
    with pytest.raises(ValueError):
        bert_pair("nope")


def test_bert_pair_is_the_first_layer_of_the_whole_encoder():
    cfg = model_preset("bert-base", seq_len=256)
    ops = {op.name: op for op in encoder_ops(cfg)}
    for name, (producer, consumer) in zip(PAIR_NAMES, [("qk", "softmax"), ("wout", "add_ln1"),
                                                       ("w2", "add_ln2")]):
        pair = bert_pair(name, 256)
        assert pair.producer == ops[f"L0.{producer}"]
        assert pair.consumer == ops[f"L0.{consumer}"]


def test_pair_check_errors():
    softmax = bert_pair("qk-softmax", 8).consumer
    mv = OperatorSpec("t", OperatorClass.ActToAct, MatvecSeries(8, 8, 8))
    with pytest.raises(TypeError):
        FusionPair(mv, softmax, "n").check()
    mm = OperatorSpec("t", OperatorClass.ActToAct, Matmul(8, 8, 8), repeat=12,
                      pre_nonlinear=True)
    with pytest.raises(ValueError, match="reduction_dim"):
        FusionPair(mm, softmax, "k").check()


def test_pair_check_rejects_producer_not_pre_nonlinear():
    pair = bert_pair("qk-softmax", 8)
    narrow = replace(pair.producer, pre_nonlinear=False)
    with pytest.raises(ValueError, match="pre_nonlinear"):
        FusionPair(narrow, pair.consumer, "n").check()


def test_pair_check_rejects_consumer_without_wide_inputs():
    # a hand-built consumer must say it reads the producer's outputs wide, or
    # its standalone cost would read them narrow
    pair = bert_pair("qk-softmax", 8)
    narrow = replace(pair.consumer, wide_inputs=False)
    with pytest.raises(ValueError, match="wide_inputs"):
        FusionPair(pair.producer, narrow, "n").check()


def test_pair_check_rejects_non_elementwise_consumer():
    pair = bert_pair("qk-softmax", 8)
    with pytest.raises(ValueError, match="Elementwise"):
        FusionPair(pair.producer, pair.producer, "n").check()


def test_pair_check_rejects_consumer_of_other_size():
    pair = bert_pair("wout-ln", 8)
    with pytest.raises(ValueError, match="elements"):
        FusionPair(pair.producer, bert_pair("qk-softmax", 8).consumer, "m").check()
    with pytest.raises(ValueError, match="elements"):
        FusionPair(pair.producer, replace(pair.consumer, repeat=2), "m").check()


# ---------------------------------------------------------------------------
# Constrained tiling
# ---------------------------------------------------------------------------

def test_fused_constraint_tiles_frozen():
    expect = {
        ("qk-softmax", 128): (32, 64, 512),
        ("qk-softmax", 256): (64, 64, 512),
        ("wout-ln", 128): (768, 128, 16),
        ("wout-ln", 256): (768, 128, 32),
        ("ffn2-ln", 128): (768, 128, 16),
        ("ffn2-ln", 256): (768, 128, 32),
    }
    for (name, kb), tiles in expect.items():
        c = fused_constraints(bert_pair(name, 512), _accel(kb))
        assert (c.tile_m, c.tile_k, c.tile_n) == tiles, (name, kb)


def test_constraints_span_reduction_axis():
    for name in PAIR_NAMES:
        pair = bert_pair(name, 512)
        c = fused_constraints(pair, _accel(256))
        k = pair.producer.kind
        full = c.tile_n if pair.reduction_dim == "n" else c.tile_m
        assert full == (k.N if pair.reduction_dim == "n" else k.M)


def test_constraints_validate_as_mapping():
    for name in PAIR_NAMES:
        for kb in (128, 256):
            accel = _accel(kb)
            pair = bert_pair(name, 512)
            c = fused_constraints(pair, accel)
            # the producer's nest carries its 4-byte accumulator-width output
            m = Mapping(nest=nest_of(pair.producer), spatial=(1, 1, 1),
                        tiles=(c.tile_m, c.tile_k, c.tile_n),
                        dram_perm=("n" if pair.reduction_dim == "m" else "m", "k",
                                   pair.reduction_dim))
            assert validate(m, accel) == [], (name, kb)


def test_constraints_size_each_operand_at_its_own_width():
    # a 2-byte first operand and a 1-byte second one: the full 1024-wide n
    # tile bounds the k-slice at 1 byte per element, not at the wider 2
    producer = OperatorSpec("p", OperatorClass.ActToAct, Matmul(64, 4096, 1024),
                            in_precisions=(2, 1), pre_nonlinear=True)
    consumer = OperatorSpec("c", OperatorClass.Nonlinear, Elementwise(64 * 1024, 5, 1),
                            wide_inputs=True)
    c = fused_constraints(FusionPair(producer, consumer, "n"), accel_preset("gemmini-baseline"))
    assert (c.tile_m, c.tile_k, c.tile_n) == (8, 128, 1024)
    # the byte count and the loop nest read the same two widths
    assert mops(producer) == 64 * 4096 * 2 + 4096 * 1024 * 1 + 64 * 1024 * 1
    assert nest_of(producer).precisions == (2, 1, 4)


def test_constraints_infeasible_tiny_accumulator():
    tiny = replace(accel_preset("gemmini-baseline"), accumulator_bytes=2048).check()
    with pytest.raises(FusionInfeasibleError):
        fused_constraints(bert_pair("qk-softmax", 4096), tiny)


# ---------------------------------------------------------------------------
# Latency model, frozen grid
# ---------------------------------------------------------------------------

GRID = {
    # (pair, acc_kb, seq): fused, nonfused, penalty, verdict
    ("qk-softmax", 128, 512): (1187840.0, 18087936.0, 0.19733743106617646, Verdict.FusionWins),
    ("qk-softmax", 128, 4096): (1074855936.0, 1207959552.0, 3.2031249999999996, Verdict.FusionWins),
    ("qk-softmax", 256, 512): (1196032.0, 18087936.0, 0.18780158547794118, Verdict.FusionWins),
    ("qk-softmax", 256, 4096): (538050560.0, 1191182336.0, 1.6875, Verdict.FusionWins),
    ("wout-ln", 128, 512): (6426624.0, 3801088.0, 3.0625, Verdict.FusionLoses),
    ("wout-ln", 256, 512): (3284992.0, 3495125.3333333335, 1.829399013839594, Verdict.FusionWins),
    ("ffn2-ln", 128, 512): (25694208.0, 8519680.0, 3.769230769230769, Verdict.FusionLoses),
    ("ffn2-ln", 128, 4096): (205524992.0, 68157440.0, 3.769230769230769, Verdict.FusionLoses),
    ("ffn2-ln", 256, 512): (13115392.0, 7295829.333333334, 2.3439645963680755, Verdict.FusionLoses),
    ("ffn2-ln", 256, 4096): (104865792.0, 58670677.333333336, 2.328141370928168, Verdict.FusionLoses),
}


@pytest.mark.parametrize("key", sorted(GRID))
def test_eval_pair_frozen(key):
    name, kb, l = key
    fused, nonfused, penalty, verdict = GRID[key]
    r = eval_pair(bert_pair(name, l), _accel(kb))
    assert r.fused_latency == pytest.approx(fused, rel=1e-12)
    assert r.nonfused_latency == pytest.approx(nonfused, rel=1e-12)
    assert r.producer_penalty == pytest.approx(penalty, rel=1e-12)
    assert r.verdict is verdict
    assert r.feasible


def test_qk_softmax_wins_everywhere():
    for kb in (128, 256):
        for l in (512, 4096):
            r = eval_pair(bert_pair("qk-softmax", l), _accel(kb))
            assert r.verdict is Verdict.FusionWins, (kb, l)
            assert r.fused_latency < r.nonfused_latency


def test_ffn2_ln_loses_everywhere():
    for kb in (128, 256):
        for l in (512, 4096):
            r = eval_pair(bert_pair("ffn2-ln", l), _accel(kb))
            assert r.verdict is Verdict.FusionLoses, (kb, l)
            assert r.fused_latency > r.nonfused_latency


def test_wout_penalty_shrinks_with_accumulator():
    for l in (512, 4096):
        p128 = eval_pair(bert_pair("wout-ln", l), _accel(128)).producer_penalty
        p256 = eval_pair(bert_pair("wout-ln", l), _accel(256)).producer_penalty
        assert p256 < p128, l


def test_softmax_dominates_nonfused_cycles():
    base = accel_preset("gemmini-baseline")
    pair = bert_pair("qk-softmax", 512)
    r = eval_pair(pair, base)
    cons = op_latency(pair.consumer, base).latency
    share = cons / r.nonfused_latency
    assert share == pytest.approx(0.7536231884057971, rel=1e-12)
    assert share >= 0.60
    assert r.fused_latency < r.nonfused_latency


def test_hidden_cycles_bounded_by_consumer_work():
    for name in PAIR_NAMES:
        for kb in (128, 256):
            pair = bert_pair(name, 512)
            r = eval_pair(pair, _accel(kb))
            standalone = op_latency(pair.consumer, _accel(kb)).latency
            assert 0 <= r.hidden_cycles <= standalone, (name, kb)


def test_unbounded_accumulator_never_hurts():
    # with residency unconstrained, overlap can only help
    big = replace(accel_preset("gemmini-baseline"),
                  accumulator_bytes=1 << 30,
                  scratchpad_bytes=1 << 30).check()
    for name in PAIR_NAMES:
        for l in (512, 4096):
            r = eval_pair(bert_pair(name, l), big)
            assert r.fused_latency <= r.nonfused_latency, (name, l)


def test_infeasible_cell_reported_not_raised():
    tiny = replace(accel_preset("gemmini-baseline"), accumulator_bytes=2048).check()
    r = eval_pair(bert_pair("qk-softmax", 4096), tiny)
    assert not r.feasible
    assert r.verdict is Verdict.FusionLoses
    assert r.fused_latency == math.inf
    assert "accumulator" in r.reason


def test_nonfused_consumer_is_the_model_costs_report():
    accel = accel_preset("gemmini-baseline")
    for l in (128, 512):
        reports = {op.name: (op, rep)
                   for op, rep in model_costs(model_preset("bert-base", seq_len=l), accel)}
        for name in PAIR_NAMES:
            pair = bert_pair(name, l)
            op, rep = reports[pair.consumer.name]
            assert op == pair.consumer
            plan = greedy_tiles(pair.producer, accel)
            producer = op_latency(pair.producer, accel, plan=plan).latency
            r = eval_pair(pair, accel)
            assert r.nonfused_latency == producer + rep.latency, (name, l)


# ---------------------------------------------------------------------------
# Reference: the fused block rule and the standalone consumer rule written
# out by hand (f_k equal k tiles per block), independent of hwmodel
# ---------------------------------------------------------------------------

def _ref_consumer_cycles(elements, accel, from_accumulator):
    comp = 3 * math.ceil(elements / accel.pe_width) * accel.sfu_vector_latency
    loads = 0 if from_accumulator else elements * 4 * 3
    return max(comp, (elements * 1 + loads) / accel.dram_bw)


def _ref_eval_pair(pair, accel):
    """(fused, nonfused, penalty, hidden, verdict, feasible) by the reference rules."""
    k = pair.producer.kind
    act_b = max(pair.producer.in_precisions)
    rep = pair.producer.repeat
    plan = greedy_tiles(pair.producer, accel)
    producer_nonfused = op_latency(pair.producer, accel, plan=plan).latency
    nonfused = producer_nonfused + rep * _ref_consumer_cycles(k.M * k.N, accel, False)
    try:
        c = fused_constraints(pair, accel)
    except FusionInfeasibleError:
        return math.inf, nonfused, math.inf, 0.0, Verdict.FusionLoses, False

    full_ext = k.N if pair.reduction_dim == "n" else k.M
    block_ext = k.M if pair.reduction_dim == "n" else k.N
    t_block = c.tile_m if pair.reduction_dim == "n" else c.tile_n
    n_blocks = block_ext // t_block
    f_k = k.K // c.tile_k
    W = accel.pe_width
    shared_resident = k.K * full_ext * act_b <= accel.scratchpad_bytes // 2
    own_slice = t_block * c.tile_k * act_b
    shared_slice = c.tile_k * full_ext * act_b
    comp_tile = c.tile_k * math.ceil(t_block / W) * math.ceil(full_ext / W) + W

    def block_cycles(loads_shared):
        by = own_slice + (shared_slice if loads_shared else 0)
        return f_k * max(comp_tile, by / accel.dram_bw)

    b_first = block_cycles(True)
    b_rest = block_cycles(not shared_resident)
    cons = _ref_consumer_cycles(t_block * full_ext, accel, True)
    fused = rep * (b_first + (n_blocks - 1) * max(b_rest, cons) + cons)
    hidden = rep * (n_blocks - 1) * min(b_rest, cons)
    penalty = rep * (b_first + (n_blocks - 1) * b_rest) / producer_nonfused
    verdict = Verdict.FusionWins if fused < nonfused else Verdict.FusionLoses
    return fused, nonfused, penalty, hidden, verdict, True


REF_SPAD_KB = (32, 64, 128, 256, 512)
REF_ACC_KB = (16, 32, 64, 128, 256, 512)
REF_SEQ_LENS = (64, 128, 256, 384, 512, 768, 1024, 2048, 4096)


@pytest.mark.parametrize("W", (8, 16, 32))
def test_eval_pair_matches_reference_rule(W):
    # the bound allows the last place to move (hwmodel scales the consumer by
    # repeat after its max, the reference before); no cell uses it today
    pairs = {(name, l): bert_pair(name, l) for name in PAIR_NAMES for l in REF_SEQ_LENS}
    feasible = 0
    for spad_kb in REF_SPAD_KB:
        for acc_kb in REF_ACC_KB:
            accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=spad_kb * 1024,
                                      accumulator_bytes=acc_kb * 1024).check()
            for key, pair in pairs.items():
                r = eval_pair(pair, accel)
                *want, verdict, ok = _ref_eval_pair(pair, accel)
                cell = (key, spad_kb, acc_kb)
                assert (r.verdict, r.feasible) == (verdict, ok), cell
                got = (r.fused_latency, r.nonfused_latency, r.producer_penalty,
                       r.hidden_cycles)
                for g, w in zip(got, want):
                    assert g == w or abs(g - w) <= 1e-15 * abs(w), cell
                feasible += ok
    assert 0 < feasible < len(REF_SPAD_KB) * len(REF_ACC_KB) * len(pairs)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def test_fusion_sweep_grid():
    base = accel_preset("gemmini-baseline")
    grid = fusion_sweep("qk-softmax", base, [128, 256], [512, 4096])
    assert set(grid) == {(128, 512), (128, 4096), (256, 512), (256, 4096)}
    for (kb, l), rep in grid.items():
        want = eval_pair(bert_pair("qk-softmax", l), _accel(kb))
        assert rep.fused_latency == want.fused_latency, (kb, l)
        assert rep.verdict is want.verdict


def test_fusion_sweep_builds_one_pair_per_seq_len(monkeypatch):
    layers = []

    def counted(cfg, layer, *args, **kwargs):
        layers.append((cfg.seq_len, layer))
        return workload.layer_ops_encoder(cfg, layer, *args, **kwargs)

    monkeypatch.setattr(fusion, "layer_ops_encoder", counted)
    grid = fusion_sweep("wout-ln", accel_preset("gemmini-baseline"),
                        [64, 128, 256, 512], [128, 512, 1024])
    assert len(grid) == 12
    assert layers == [(128, 0), (512, 0), (1024, 0)]


def test_fusion_sweep_empty_axes_raise():
    base = accel_preset("gemmini-baseline")
    with pytest.raises(ValueError):
        fusion_sweep("qk-softmax", base, [], [512])
    with pytest.raises(ValueError):
        fusion_sweep("qk-softmax", base, [128], [])
