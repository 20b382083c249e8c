"""Acceptance gate: one test per shipped claim, each printing a labeled line.

Every test asserts the claim at its stated tolerance and runtime budget and
prints `CRITERION <n> PASS: ...` on success; a failed test is the FAIL line.
"""
import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (RESNET50_STAGES, RESNET50_STEM, conv_flops,
                      resnet50_conv_flops, resnet50_stage_conv_flops, sig3)

from tfperf.workload import (
    CATEGORY_ACT_TO_ACT,
    CATEGORY_FFN,
    CATEGORY_MHA_PROJ,
    CATEGORY_OTHER,
    Conv,
    Elementwise,
    Matmul,
    MatvecSeries,
    Mode,
    ModelConfig,
    OperatorClass,
    OperatorSpec,
    encoder_ops,
    flops,
    fold_cnn_fusion,
    model_ops,
    model_preset,
    mops,
    profile,
    resnet50_ops,
)
from tfperf.hwmodel import (
    AcceleratorConfig,
    accel_preset,
    memory_split_sweep,
    model_nonideal_intensity,
    nonideal_intensity,
    op_latency,
)
from tfperf import mapspace
from tfperf.mapspace import (
    NAMED_NESTS,
    Mapping,
    exhaustive_best,
    matmul_nest,
    random_mapping,
    sample_costs,
    sample_stats,
    validate,
)
from tfperf.fusion import Verdict, bert_pair, eval_pair
from tfperf.archsearch import (
    Candidate,
    CostCache,
    baseline,
    candidate_edp,
    evolve,
    mutate,
    pareto,
    sample_candidate,
    DEFAULT_SPACE,
)

ACCEL = accel_preset("gemmini-baseline")


def _cats(cfg):
    return profile(model_ops(cfg)).per_category


def test_criterion_01_encoder_table_rows():
    t0 = time.monotonic()
    # (seq_len, category, flops e9, mops e9 or None for the corrupt cell, ai)
    cells = [
        (128, CATEGORY_MHA_PROJ, 7.25, 0.04, 192.00),
        (128, CATEGORY_ACT_TO_ACT, 0.60, None, 63.62),
        (128, CATEGORY_FFN, 14.50, 0.07, 211.86),
        (512, CATEGORY_MHA_PROJ, 28.99, 0.07, 438.86),
        (512, CATEGORY_ACT_TO_ACT, 9.62, 0.09, 101.95),
        (512, CATEGORY_FFN, 57.98, 0.10, 558.54),
        (4096, CATEGORY_MHA_PROJ, 231.93, 0.33, 702.17),
        (4096, CATEGORY_ACT_TO_ACT, 616.02, 4.98, 123.63),
        (4096, CATEGORY_FFN, 463.86, 0.43, 1068.52),
    ]
    rows = {l: _cats(model_preset("bert-base", seq_len=l)) for l in (128, 512, 4096)}
    for l, cat, f_ref, m_ref, ai_ref in cells:
        row = rows[l][cat]
        assert round(row.flops / 1e9, 2) == f_ref, (l, cat, "flops")
        if m_ref is not None:
            assert round(row.mops / 1e9, 2) == m_ref, (l, cat, "mops")
        else:
            # the one reference MOPs cell inconsistent with its own AI column;
            # gate the independently derived value instead
            assert row.mops == 9437184
        assert sig3(row.intensity) == sig3(ai_ref), (l, cat, "ai")
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: 9 encoder table rows match at stated rounding "
          f"({elapsed:.2f}s < 1s)")


def test_criterion_02_four_head_act_to_act_ai():
    refs = {128: 95.69, 512: 219.04, 4096: 350.61}
    for l, ref in refs.items():
        cfg = ModelConfig(name="bert-4h", num_layers=12, model_dim=768,
                          num_heads=4, ffn_dim=3072, seq_len=l,
                          mode=Mode.Encoder).check()
        ai = _cats(cfg)[CATEGORY_ACT_TO_ACT].intensity
        assert sig3(ai) == sig3(ref), l
    print("CRITERION 2 PASS: 4-head act-to-act AI matches at 3 sig figs "
          "for l in {128, 512, 4096}")


def test_criterion_03_decoder_totals():
    refs = {128: 2.00, 512: 2.00, 4096: 1.99}
    for l, ref in refs.items():
        tot_ai = profile(model_ops(model_preset("gpt2", seq_len=l))).totals[2]
        assert abs(tot_ai - ref) <= 0.02, l
    proj = _cats(model_preset("gpt2", seq_len=128))[CATEGORY_MHA_PROJ]
    assert sig3(proj.mops) == sig3(3.63e9)
    print("CRITERION 3 PASS: decoder totals AI within ±0.02 and projection "
          "MOPs at 3 sig figs")


# The convolution aggregate printed beside the ResNet-50 per-stage rows. It is
# an erratum: those rows, which criterion 04b and tests/test_workload.py
# reproduce exactly, sum to resnet50_conv_flops(), 0.50% below it, and no layer
# the construction leaves out closes that gap.
PRINTED_RESNET_CONV_FLOPS = 7.26e9


def test_criterion_04a_resnet_conv_flops():
    p = profile(resnet50_ops(), cnn=True)
    got = p.per_category["Convolution"].flops
    derived = resnet50_conv_flops()
    assert got == derived, f"convolution FLOPs {got} != stage-table {derived}"
    rows = sum(r.flops for r in p.per_op
               if r.op.op_class is OperatorClass.Convolution)
    assert got == rows, f"convolution category {got} != sum of its rows {rows}"

    # Layers the stage rows could be summed with: the stem, the four 1x1
    # projection shortcuts (stage input width -> 4*mid at the stage's output
    # size) and the FC layer (2048 -> 1000 classes).
    in_widths = [RESNET50_STEM[2]] + [4 * mid for mid, _, _ in RESNET50_STAGES[:-1]]
    extras = [conv_flops(*RESNET50_STEM)]
    extras += [conv_flops(1, cin, 4 * mid, sp)
               for cin, (mid, sp, _) in zip(in_widths, RESNET50_STAGES)]
    extras.append(2 * 4 * RESNET50_STAGES[-1][0] * 1000)
    stages = resnet50_stage_conv_flops()
    reaching = [combo for n in range(len(extras) + 1)
                for combo in itertools.combinations(extras, n)
                if sig3(stages + sum(combo)) == sig3(PRINTED_RESNET_CONV_FLOPS)]
    assert not reaching, (
        f"stage rows plus {reaching[0]} reach the printed "
        f"{PRINTED_RESNET_CONV_FLOPS:.3g}; revisit the erratum note above")

    gap = derived / PRINTED_RESNET_CONV_FLOPS - 1
    print(f"CRITERION 4a PASS: convolution-category FLOPs {derived:,} equal the "
          f"stage-table derivation and the sum of their rows; printed "
          f"{PRINTED_RESNET_CONV_FLOPS:.3g} is an erratum ({gap:+.2%}); the stage "
          f"rows plus any of stem, shortcuts and FC miss it")


def test_criterion_04b_resnet_rows_and_totals():
    p = profile(resnet50_ops(), cnn=True)
    by_name = {r.op.name: r.intensity for r in p.per_op
               if r.op.op_class is OperatorClass.Convolution}
    assert sig3(by_name["conv2.reduce"]) == sig3(100.76)
    assert sig3(by_name["conv2.mid"]) == sig3(527.55)
    other = p.per_category[CATEGORY_OTHER]
    assert other.flops == pytest.approx(0.01e9, rel=0.25)
    assert p.totals[2] == pytest.approx(66.94, rel=0.25)
    fused = fold_cnn_fusion(p)
    assert fused.totals[2] == pytest.approx(121.36, rel=0.25)
    print("CRITERION 4b PASS: per-stage AI rows at 3 sig figs; Other rows and "
          "unfused/fused totals within ±25%")


def test_criterion_05_nonideal_ai_properties():
    for l in (128, 512, 4096):
        cfg = model_preset("bert-base", seq_len=l)
        for op in model_ops(cfg):
            nai = nonideal_intensity(op, ACCEL)
            ideal = flops(op) / mops(op)
            assert nai <= ideal + 1e-9, (l, op.name)
    cfg = model_preset("bert-base", seq_len=4096)
    ops = model_ops(cfg)
    ideal_total = sum(flops(o) for o in ops) / sum(mops(o) for o in ops)
    ratio = model_nonideal_intensity(cfg, ACCEL) / ideal_total
    assert ratio <= 0.5
    by_name = {o.name: o for o in encoder_ops(model_preset("bert-base", 512))}
    wout = nonideal_intensity(by_name["L0.wout"], ACCEL)
    wq = nonideal_intensity(by_name["L0.wq"], ACCEL)
    assert wout < wq
    print(f"CRITERION 5 PASS: non-ideal <= ideal AI for every operator at all "
          f"lengths; total ratio {ratio:.3f} <= 0.5 at l=4096; wide-output "
          f"W_out AI below W_Q")


def test_criterion_06_memory_split():
    t0 = time.monotonic()
    rows, best = memory_split_sweep(model_preset("bert-base", 512), ACCEL, 320)
    default = next(r for r in rows if r[:2] == (256, 64))
    margin = 1 - rows[best][2] / default[2]
    elapsed = time.monotonic() - t0
    assert rows[best][:2] == (64, 256)
    assert margin >= 0.20
    assert elapsed < 10.0
    print(f"CRITERION 6 PASS: (64,256) beats (256,64) by {margin:.1%} >= 20% "
          f"({elapsed:.2f}s < 10s)")


def test_criterion_07_mapspace_properties():
    t0 = time.monotonic()
    mha = NAMED_NESTS["bert.mha"]
    stats = sample_stats(mha, ACCEL, 100_000, seed=0)
    assert stats.spread >= 1e3
    assert 0.003 <= stats.frac_within(3) <= 0.08
    conv_stats = sample_stats(NAMED_NESTS["resnet.c3"], ACCEL, 100_000, seed=0)
    assert 0.003 <= conv_stats.frac_within(3) <= 0.08

    # every accepted sample is a valid mapping
    rng = np.random.default_rng(0)
    space = mapspace._Space(mha, ACCEL.pe_width)
    valid = mapspace._valid_mask(space, ACCEL)
    seen = 0
    while seen < 100_000:
        t, p = space.draw(16384, rng)
        ok = np.flatnonzero(valid[t])
        for i in ok[: 100_000 - seen]:
            m = space.mapping(t[i], p[i])
            assert validate(m, ACCEL) == []
        seen += min(len(ok), 100_000 - seen)

    small = matmul_nest(8, 8, 8)
    _, best = exhaustive_best(small, ACCEL)
    for trial in range(100):
        lats, ens = sample_costs(small, ACCEL, 50_000, seed=1000 + trial)
        assert (lats * ens).min() >= best.edp, trial
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"CRITERION 7 PASS: 100K samples valid, spread {stats.spread:.3g} >= 1e3, "
          f"frac_within(3) in band for both nests, exhaustive lower-bounds "
          f"100/100 trials ({elapsed:.1f}s < 2min)")


def test_criterion_08_fusion_directions():
    from dataclasses import replace
    for kb in (128, 256):
        accel = replace(ACCEL, accumulator_bytes=kb * 1024).check()
        for l in (512, 4096):
            qk = eval_pair(bert_pair("qk-softmax", l), accel)
            assert qk.verdict is Verdict.FusionWins, ("qk", kb, l)
            ffn2 = eval_pair(bert_pair("ffn2-ln", l), accel)
            assert ffn2.verdict is Verdict.FusionLoses, ("ffn2", kb, l)
    for l in (512, 4096):
        p128 = eval_pair(bert_pair("wout-ln", l),
                         replace(ACCEL, accumulator_bytes=128 * 1024).check())
        p256 = eval_pair(bert_pair("wout-ln", l),
                         replace(ACCEL, accumulator_bytes=256 * 1024).check())
        assert p256.producer_penalty < p128.producer_penalty, l
    print("CRITERION 8 PASS: qk+softmax wins every cell, ffn2+layernorm loses "
          "at both lengths, w_out penalty shrinks 128->256 kB")


def test_criterion_09_architecture_search():
    t0 = time.monotonic()
    front = evolve(pop=40, rounds=40, p=0.2, seed=5, accel=ACCEL)
    rerun = evolve(pop=40, rounds=40, p=0.2, seed=5, accel=ACCEL)
    assert [p.encode() for p in front.points] == [p.encode() for p in rerun.points]
    assert [(p.quality, p.edp) for p in front.points] == \
           [(p.quality, p.edp) for p in rerun.points]
    assert front.trace == rerun.trace
    # O(n^2) dominance oracle
    pts = front.points
    for a in pts:
        for b in pts:
            if a is b:
                continue
            assert not (a.quality >= b.quality and a.edp <= b.edp
                        and (a.quality > b.quality or a.edp < b.edp))
    assert front.min_edp <= front.trace[0][1]  # beats initial population
    base_edp = candidate_edp(baseline(), CostCache(ACCEL))
    assert front.min_edp <= 0.5 * base_edp
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"CRITERION 9 PASS: front dominance-clean, min EDP "
          f"{front.min_edp:.3g} <= round-1 min and <= baseline/2, rerun "
          f"bit-identical ({elapsed:.1f}s < 5min)")


def _random_ops(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    kinds = []
    for i in range(n):
        pick = i % 5
        if pick in (0, 1):
            kind = Matmul(int(rng.integers(1, 384)), int(rng.integers(1, 384)),
                          int(rng.integers(1, 384)))
            cls = OperatorClass.FfnProjection
        elif pick == 2:
            kind = Conv(int(rng.choice([1, 3])), int(rng.integers(1, 64)),
                        int(rng.integers(1, 64)), int(rng.integers(1, 28)),
                        int(rng.integers(1, 28)), 1, int(rng.integers(1, 4)))
            cls = OperatorClass.Convolution
        elif pick == 3:
            kind = MatvecSeries(int(rng.integers(1, 256)), int(rng.integers(1, 256)),
                                int(rng.integers(1, 64)))
            cls = OperatorClass.MhaProjection
        else:
            kind = Elementwise(int(rng.integers(1, 100_000)),
                               int(rng.integers(1, 8)), int(rng.integers(1, 4)))
            cls = OperatorClass.Nonlinear
        kinds.append(OperatorSpec(f"r{i}", cls, kind,
                                  repeat=int(rng.integers(1, 4)),
                                  pre_nonlinear=bool(rng.integers(2))))
    return kinds


def test_criterion_10_determinism_and_oracles():
    # RNG reproducibility across every sampled surface
    mha = NAMED_NESTS["bert.mha"]
    assert random_mapping(mha, ACCEL, 17) == random_mapping(mha, ACCEL, 17)
    l1, e1 = sample_costs(mha, ACCEL, 512, seed=17)
    l2, e2 = sample_costs(mha, ACCEL, 512, seed=17)
    assert np.array_equal(l1, l2) and np.array_equal(e1, e2)
    assert sample_candidate(DEFAULT_SPACE, 17) == sample_candidate(DEFAULT_SPACE, 17)
    c = sample_candidate(DEFAULT_SPACE, 3)
    assert mutate(c, 0.5, 17) == mutate(c, 0.5, 17)

    # CostCache transparency on 10^3 random shapes
    cache = CostCache(ACCEL)
    flags = np.random.default_rng(29).integers(2, size=1000)
    for op, flag in zip(_random_ops(1000, seed=23), flags):
        op = replace(op, wide_inputs=isinstance(op.kind, Elementwise) and bool(flag))
        got = cache.cost(op)
        want = op_latency(op, ACCEL)
        assert (got.latency, got.energy, got.traffic, got.compute_bound) == \
               (want.latency, want.energy, want.traffic, want.compute_bound), op.name

    # Pareto brute-force oracle on a 100-point cloud
    rng = np.random.default_rng(31)
    cloud = [Candidate(3, 384, (4, 4, 4), (768, 768, 768),
                       quality=float(rng.integers(1, 30)),
                       edp=float(rng.integers(1, 30))) for _ in range(100)]
    front = pareto(cloud)
    brute = {(p.quality, p.edp) for p in cloud
             if not any(q.quality >= p.quality and q.edp <= p.edp
                        and (q.quality > p.quality or q.edp < p.edp)
                        for q in cloud)}
    assert {(p.quality, p.edp) for p in front.points} == brute

    # sampler-frequency oracle: gene flip rate p*(1 - 1/|choices|) +/- 0.02
    t11 = Candidate(6, 672, (12, 6, 12, 8, 10, 6),
                    (1280, 1280, 2560, 768, 2048, 1024))
    g = np.random.default_rng(41)
    flips = sum(mutate(t11, 0.2, g).d != t11.d for _ in range(10_000)) / 10_000
    assert abs(flips - 0.2 * (1 - 1 / 5)) <= 0.02
    # and sampler diversity on a 64x64x64 nest
    perms = set()
    tilings = set()
    for seed in range(1000):
        m = random_mapping(matmul_nest(64, 64, 64), ACCEL, seed)
        perms.add(m.dram_perm)
        tilings.add((m.spatial, m.tiles))
    assert len(perms) >= 2 and len(tilings) >= 10

    # capacity-boundary oracle: exact fit passes, one step smaller fails
    nest = matmul_nest(64, 64, 64)
    m = Mapping(nest=nest, spatial=(1, 1, 1), tiles=(64, 64, 64),
                dram_perm=("m", "k", "n"))
    fit = AcceleratorConfig(scratchpad_bytes=8192, accumulator_bytes=8192)
    assert validate(m, fit) == []
    assert any("scratchpad" in v for v in
               validate(m, AcceleratorConfig(scratchpad_bytes=8190, accumulator_bytes=8192)))
    assert any("accumulator" in v for v in
               validate(m, AcceleratorConfig(scratchpad_bytes=8192, accumulator_bytes=8190)))
    print("CRITERION 10 PASS: seeded reproducibility, cache transparency on "
          "10^3 shapes, Pareto/sampler-frequency/capacity-boundary oracles")
