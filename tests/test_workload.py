"""Operator records, FLOP/MOP counting, and model profiles."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfperf.workload import (CATEGORY_ACT_TO_ACT, CATEGORY_FFN, CATEGORY_OTHER,
                             CATEGORY_MHA_PROJ, ConfigError, Conv, Elementwise,
                             EmptyProfileError, Matmul, MatvecSeries, Mode,
                             ModelConfig, OperatorClass, OperatorSpec,
                             UndefinedIntensityError, category_of, decoder_ops,
                             encoder_ops, flops, fold_cnn_fusion, intensity,
                             model_from_json, model_ops, model_preset, mops,
                             profile, resnet50_ops)

from conftest import DECODER3, resnet50_conv_flops, sig3


def _cat(cfg, cat):
    return profile(model_ops(cfg)).per_category[cat]


# ---------------------------------------------------------------------------
# Printed-table reproduction (encoder)
# ---------------------------------------------------------------------------

# (seq_len, category, flops, mops or None where the printed cell is a typo, ai)
ENCODER_CELLS = [
    (128, CATEGORY_MHA_PROJ, 7.25e9, 0.04e9, 192.00),
    (128, CATEGORY_ACT_TO_ACT, 0.60e9, None, 63.62),
    (128, CATEGORY_FFN, 14.50e9, 0.07e9, 211.86),
    (512, CATEGORY_MHA_PROJ, 28.99e9, 0.07e9, 438.86),
    (512, CATEGORY_ACT_TO_ACT, 9.62e9, 0.09e9, 101.95),
    (512, CATEGORY_FFN, 57.98e9, 0.10e9, 558.54),
    (4096, CATEGORY_MHA_PROJ, 231.93e9, 0.33e9, 702.17),
    (4096, CATEGORY_ACT_TO_ACT, 616.02e9, 4.98e9, 123.63),
    (4096, CATEGORY_FFN, 463.86e9, 0.43e9, 1068.52),
]


@pytest.mark.parametrize("l,cat,f_ref,m_ref,ai_ref", ENCODER_CELLS)
def test_encoder_matmul_cells(l, cat, f_ref, m_ref, ai_ref):
    row = _cat(model_preset("bert-base", seq_len=l), cat)
    assert sig3(row.flops) == sig3(f_ref)
    assert sig3(row.intensity) == sig3(ai_ref)
    if m_ref is not None:
        assert round(row.mops / 1e9, 2) == round(m_ref / 1e9, 2)


def test_encoder_a2a_mops_l128_derived():
    # printed cell is inconsistent with its own AI column; derived oracle
    row = _cat(model_preset("bert-base", seq_len=128), CATEGORY_ACT_TO_ACT)
    assert row.mops == 9437184
    assert sig3(row.flops / row.mops) == 63.6


@pytest.mark.parametrize("l,ai_ref", [(128, 161.0), (512, 233.6), (4096, 118.5)])
def test_encoder_total_ai(l, ai_ref):
    tot = profile(model_ops(model_preset("bert-base", seq_len=l))).totals
    assert tot[2] == pytest.approx(ai_ref, rel=1e-3)


@pytest.mark.parametrize("l,f_ref,m_ref", [
    (128, 0.08e9, 0.02e9), (512, 0.42e9, 0.16e9), (4096, 11.85e9, 5.47e9)])
def test_encoder_other_within_band(l, f_ref, m_ref):
    row = _cat(model_preset("bert-base", seq_len=l), CATEGORY_OTHER)
    assert row.flops == pytest.approx(f_ref, rel=0.25)
    assert row.mops == pytest.approx(m_ref, rel=0.25)


@pytest.mark.parametrize("l,ai_ref", [(128, 95.69), (512, 219.04), (4096, 350.61)])
def test_four_head_a2a_ai(l, ai_ref):
    cfg = ModelConfig("bert-h4", 12, 768, 4, 3072, l, Mode.Encoder).check()
    row = profile(encoder_ops(cfg)).per_category[CATEGORY_ACT_TO_ACT]
    assert sig3(row.intensity) == sig3(ai_ref)


# ---------------------------------------------------------------------------
# Printed-table reproduction (decoder)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l,ai_ref", [(128, 2.0), (512, 2.00), (4096, 1.99)])
def test_decoder_total_ai(l, ai_ref):
    tot = profile(model_ops(model_preset("gpt2", seq_len=l))).totals
    assert abs(tot[2] - ai_ref) <= 0.02


def test_decoder_projection_and_ffn_mops_l128():
    p = profile(model_ops(model_preset("gpt2", seq_len=128)))
    assert sig3(p.per_category[CATEGORY_MHA_PROJ].mops) == 3.63e9
    assert sig3(p.per_category[CATEGORY_FFN].mops) == 7.26e9


@pytest.mark.parametrize("l,m_ref", [(128, 0.16e9), (512, 2.45e9), (4096, 155.98e9)])
def test_decoder_a2a_mops(l, m_ref):
    row = _cat(model_preset("gpt2", seq_len=l), CATEGORY_ACT_TO_ACT)
    assert round(row.mops / 1e9, 2) == round(m_ref / 1e9, 2)


def test_decoder_total_ai_band_across_lengths():
    for l in (64, 128, 256, 512, 1024, 4096):
        tot = profile(model_ops(model_preset("gpt2", seq_len=l))).totals
        assert 1.9 <= tot[2] <= 2.0


# ---------------------------------------------------------------------------
# Printed-table reproduction (ResNet-50)
# ---------------------------------------------------------------------------

RESNET_AI_CELLS = {
    "conv2.reduce": 100.76, "conv2.mid": 527.55, "conv2.expand": 100.76,
    "conv3.reduce": 181.14, "conv3.mid": 664.09, "conv3.expand": 181.14,
    "conv4.reduce": 200.30, "conv4.mid": 335.00, "conv4.expand": 200.30,
    "conv5.reduce": 87.53, "conv5.mid": 95.96, "conv5.expand": 87.53,
}


def test_resnet_conv_row_ai_exact():
    p = profile(resnet50_ops(), cnn=True)
    got = {r.op.name: r.intensity for r in p.per_op
           if r.op.op_class is OperatorClass.Convolution}
    for name, ref in RESNET_AI_CELLS.items():
        assert round(got[name], 2) == ref, name


def test_resnet_category_rows():
    p = profile(resnet50_ops(), cnn=True)
    conv = p.per_category["Convolution"]
    assert conv.flops == resnet50_conv_flops()
    assert p.per_category["BatchNorm"].intensity == 1.0
    assert p.per_category["ReLU"].intensity == 0.5
    assert p.per_category[CATEGORY_OTHER].flops == pytest.approx(0.01e9, rel=0.25)
    assert p.totals[2] == pytest.approx(66.94, rel=0.25)


def test_resnet_fused_profile():
    p = profile(resnet50_ops(), cnn=True)
    f = fold_cnn_fusion(p)
    assert "BatchNorm" not in f.per_category  # folded away entirely
    assert f.per_category["ReLU"].mops == 0
    assert f.totals[1] < p.totals[1]
    assert f.totals[2] == pytest.approx(121.36, rel=0.25)
    assert f.totals[2] > p.totals[2]


# ---------------------------------------------------------------------------
# Counting conventions
# ---------------------------------------------------------------------------

def _mm(M, K, N, cls=OperatorClass.MhaProjection, **kw):
    return OperatorSpec("t", cls, Matmul(M, K, N), **kw)


def test_weight_matmul_flops():
    assert flops(_mm(4, 5, 6)) == 2 * 4 * 5 * 6
    assert flops(_mm(4, 5, 6, repeat=3)) == 2 * 4 * 5 * 6 * 3


def test_act_to_act_matmul_flops():
    op = _mm(4, 5, 6, cls=OperatorClass.ActToAct)
    assert flops(op) == (2 * 5 - 1) * 4 * 6


def test_matmul_mops_per_tensor_once():
    op = _mm(4, 5, 6, in_precisions=(2, 1), out_precision=1, repeat=2)
    assert mops(op) == (4 * 5 * 2 + 5 * 6 * 1 + 4 * 6 * 1) * 2


def test_matvec_series_flops_and_mops():
    op = OperatorSpec("t", OperatorClass.FfnProjection, MatvecSeries(8, 16, 10),
                      in_precisions=(1, 2), out_precision=1)
    assert flops(op) == 2 * 8 * 16 * 10
    # weights reloaded per step at matrix precision; vectors in and out
    assert mops(op) == 10 * (8 * 16 * 2 + 16 * 1 + 8 * 1)


def test_a2a_series_flops_triangular():
    op = OperatorSpec("t", OperatorClass.ActToAct, MatvecSeries(10, 4, 10))
    # static * iterations^2: closed form of the growing-series step sum
    assert flops(op) == 4 * 10 * 10
    sv = OperatorSpec("t", OperatorClass.ActToAct, MatvecSeries(4, 10, 10))
    assert flops(sv) == 4 * 10 * 10  # reducing twin has the same count


def test_conv_flops_and_mops():
    op = OperatorSpec("t", OperatorClass.Convolution, Conv(3, 8, 16, 7, 7, 2, 2))
    assert flops(op) == 2 * 9 * 8 * 16 * 49 * 2
    assert mops(op) == 2 * (9 * 8 * 16 + 8 * 14 * 14 + 16 * 49)


def test_elementwise_flops_and_mops():
    op = OperatorSpec("t", OperatorClass.Nonlinear, Elementwise(100, 5, 3))
    assert flops(op) == 500
    assert mops(op) == 3 * 100 + 100


def test_intensity_zero_mops_raises():
    with pytest.raises(UndefinedIntensityError):
        intensity(10, 0)


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def test_encoder_layer_structure(bert512):
    ops = encoder_ops(bert512)
    assert len(ops) == 12 * 12
    names = [o.name.split(".", 1)[1] for o in ops[:12]]
    assert names == ["wq", "wk", "wv", "qk", "softmax", "sv", "wout",
                     "add_ln1", "w1", "gelu", "w2", "add_ln2"]
    wide = {n for n, o in zip(names, ops[:12]) if o.pre_nonlinear}
    assert wide == {"qk", "wout", "w2"}


def _positional_wide_flags(ops):
    """The reference read-width rule: an Elementwise op reads wide inputs
    exactly when the op just before it in the model is pre_nonlinear."""
    flags, prev_wide = [], False
    for op in ops:
        flags.append(isinstance(op.kind, Elementwise) and prev_wide)
        prev_wide = op.pre_nonlinear
    return flags


@pytest.mark.parametrize("seq_len", [1, 128, 512])
@pytest.mark.parametrize("model", ["bert-base", "bert-large", "gpt2", "resnet50", "decoder3"])
def test_builders_set_wide_inputs_by_the_positional_rule(model, seq_len):
    cfg = (model_from_json(DECODER3, seq_len=seq_len) if model == "decoder3"
           else model_preset(model, seq_len))
    ops = model_ops(cfg)
    assert [op.wide_inputs for op in ops] == _positional_wide_flags(ops)


@settings(max_examples=60, deadline=None)
@given(doc=st.fixed_dictionaries({
    "layers": st.integers(1, 3), "d": st.sampled_from([64, 96, 128]),
    "heads": st.sampled_from([1, 2, 4]), "d_ffn": st.sampled_from([64, 128, 256]),
    "seq_len": st.integers(1, 64), "mode": st.sampled_from(["encoder", "decoder"]),
    "act_bytes": st.sampled_from([1, 2, 4]), "weight_bytes": st.sampled_from([1, 2, 4])}))
def test_json_models_set_wide_inputs_by_the_positional_rule(doc):
    ops = model_ops(model_from_json(doc))
    assert [op.wide_inputs for op in ops] == _positional_wide_flags(ops)


def test_decoder_layer_structure():
    ops = decoder_ops(model_preset("gpt2", seq_len=64))
    assert len(ops) == 12 * 12
    qk = next(o for o in ops if o.name == "L0.qk")
    assert isinstance(qk.kind, MatvecSeries)
    assert qk.kind.rows == qk.kind.iterations  # growing score output
    sv = next(o for o in ops if o.name == "L0.sv")
    assert sv.kind.rows == 64  # head dim context out


def test_category_partition(bert512):
    p = profile(model_ops(bert512))
    assert sum(c.flops for c in p.per_category.values()) == p.totals[0]
    assert sum(c.mops for c in p.per_category.values()) == p.totals[1]
    assert abs(sum(c.flops_pct for c in p.per_category.values()) - 100.0) < 1e-9


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig("x", 1, 768, 0, 3072, 512, Mode.Encoder).check()
    with pytest.raises(ConfigError):
        ModelConfig("x", 1, 768, 7, 3072, 512, Mode.Encoder).check()
    with pytest.raises(ConfigError):
        ModelConfig("x", 1, 768, 12, 3072, 512, Mode.Encoder,
                    activation_precision=3).check()
    with pytest.raises(ConfigError):
        model_preset("bert-base", seq_len=0)
    with pytest.raises(ConfigError):
        model_preset("nope")


def test_model_from_json():
    cfg = model_from_json('{"name": "tiny", "layers": 2, "d": 128, "heads": 4, '
                          '"d_ffn": 512, "seq_len": 64, "mode": "encoder"}')
    assert cfg.num_layers == 2 and cfg.model_dim // cfg.num_heads == 32
    with pytest.raises(ConfigError):
        model_from_json('{"layers": 2}')


_TINY = {"layers": 2, "d": 128, "heads": 4, "d_ffn": 512}


@pytest.mark.parametrize("field,value", [
    ("layers", True), ("layers", 1.7), ("d", 128.5), ("heads", False), ("d_ffn", 512.25),
    ("act_bytes", True), ("weight_bytes", 1.5), ("accum_bytes", 4.1), ("seq_len", 64.5),
    ("model_dim", 768), ("cnn", True), ("d_FFN", 512),
])
def test_model_from_json_rejects_malformed(field, value):
    with pytest.raises(ConfigError):
        model_from_json({**_TINY, field: value})


@pytest.mark.parametrize("doc", ["[2, 128, 4, 512]", '"bert"', "5"])
def test_model_from_json_rejects_non_object(doc):
    with pytest.raises(ConfigError):
        model_from_json(doc)


def test_model_from_json_integral_values():
    cfg = model_from_json({**_TINY, "layers": 3.0, "act_bytes": 2.0})
    assert (cfg.num_layers, cfg.activation_precision) == (3, 2)
    assert type(cfg.num_layers) is int


def test_profile_empty_raises():
    with pytest.raises(EmptyProfileError):
        profile([])


def test_zero_mop_category_has_infinite_intensity():
    # like a per-op row, a category that moves no bytes gets inf intensity
    mm = OperatorSpec("mm", OperatorClass.FfnProjection, Matmul(4, 4, 4))
    empty = OperatorSpec("empty", OperatorClass.Nonlinear, Elementwise(0, 5, 1))
    p = profile([mm, empty])
    assert p.per_op[1].intensity == math.inf
    assert p.per_category[CATEGORY_OTHER].intensity == math.inf
    assert p.per_category[CATEGORY_FFN].intensity == intensity(flops(mm), mops(mm))


def test_resnet50_is_a_cnn_mode_preset():
    cfg = model_preset("resnet50")
    assert cfg.mode is Mode.Cnn
    assert [op.name for op in model_ops(cfg)] == [op.name for op in resnet50_ops()]


def test_model_from_json_rejects_cnn_mode():
    with pytest.raises(ConfigError, match="resnet50"):
        model_from_json({**_TINY, "mode": "cnn"})


def test_category_of_modes(bert512):
    ops = encoder_ops(bert512)
    assert category_of(ops[0]) == CATEGORY_MHA_PROJ
    conv = resnet50_ops()[0]
    assert category_of(conv, cnn=True) == "Convolution"
    assert category_of(conv, cnn=False) == "Convolution"


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(M=st.integers(1, 64), K=st.integers(1, 64), N=st.integers(1, 64),
       rep=st.integers(1, 4))
def test_counts_positive_and_a2a_cheaper(M, K, N, rep):
    w = _mm(M, K, N, repeat=rep)
    a = _mm(M, K, N, cls=OperatorClass.ActToAct, repeat=rep)
    assert flops(w) > 0 and mops(w) > 0
    assert flops(a) < flops(w)


@settings(max_examples=25)
@given(l=st.sampled_from([64, 128, 256]), scale=st.sampled_from([2, 4]))
def test_ai_uniform_precision_scaling(l, scale):
    # with in == out precision everywhere, AI scales by exactly 1/s
    base = ModelConfig("p1", 2, 256, 4, 1024, l, Mode.Encoder).check()
    scaled = ModelConfig("p2", 2, 256, 4, 1024, l, Mode.Encoder,
                         activation_precision=scale,
                         weight_precision=scale).check()
    ai1 = profile(encoder_ops(base)).totals[2]
    ai2 = profile(encoder_ops(scaled)).totals[2]
    assert ai2 == pytest.approx(ai1 / scale, rel=1e-12)
