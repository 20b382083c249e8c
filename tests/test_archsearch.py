"""Evolutionary architecture search: space, mutation, Pareto logic, evolve loop."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfperf.workload import ConfigError
from tfperf.hwmodel import (AcceleratorConfig, InfeasibleConfigError, _wide_flags,
                            accel_preset, op_latency)
from tfperf.archsearch import (
    DEFAULT_SPACE,
    Candidate,
    CostCache,
    ParetoFront,
    SearchSpace,
    _accumulate,
    _cost_round,
    baseline,
    candidate_edp,
    candidate_ops,
    evaluate,
    evolve,
    mutate,
    pareto,
    quality_proxy,
    rescore,
    sample_candidate,
    space_from_json,
)

T11 = Candidate(6, 672, (12, 6, 12, 8, 10, 6), (1280, 1280, 2560, 768, 2048, 1024))
# Fronts, traces and discards of the evolve calls below, captured from the
# implementation that costed every operator of every candidate through the
# operator cache and filtered the front by pairwise dominance.
GOLDENS = json.loads((Path(__file__).parent / "data" / "evolve_goldens.json").read_text())


@pytest.fixture(scope="module")
def accel():
    return accel_preset("gemmini-baseline")


# ---------------------------------------------------------------------------
# Space and candidates
# ---------------------------------------------------------------------------

def test_default_space():
    s = DEFAULT_SPACE
    assert s.layer_counts == (3, 4, 5, 6)
    assert s.heads_per_layer == (4, 6, 8, 10, 12)
    assert s.model_dims == (384, 480, 576, 672, 768)
    assert s.ffn_dims_per_layer[0] == 768 and s.ffn_dims_per_layer[-1] == 3072
    s.check()


def test_space_check_errors():
    with pytest.raises(ConfigError):
        SearchSpace(layer_counts=()).check()
    with pytest.raises(ConfigError):
        SearchSpace(model_dims=(8,), heads_per_layer=(12,)).check()


def test_space_from_json():
    s = space_from_json('{"layer_counts": [4, 3], "model_dims": [768, 384]}')
    assert s.layer_counts == (3, 4)
    assert s.model_dims == (384, 768)
    assert s.heads_per_layer == DEFAULT_SPACE.heads_per_layer


@pytest.mark.parametrize("doc", ["[1, 2]", '{"model_dims": 5}', '{"model_dims": [400.9]}',
                                 '{"heads_per_layer": [true]}', '"space"',
                                 '{"model_dim": [384]}', '{"layers": [3], "model_dims": [384]}'])
def test_space_from_json_rejects_malformed(doc):
    with pytest.raises(ConfigError):
        space_from_json(doc)


def test_candidate_check():
    T11.check(DEFAULT_SPACE)
    with pytest.raises(ConfigError):
        Candidate(3, 384, (4, 4), (768, 768, 768)).check(DEFAULT_SPACE)
    with pytest.raises(ConfigError):
        Candidate(3, 400, (4, 4, 4), (768, 768, 768)).check(DEFAULT_SPACE)
    assert not T11.evaluated
    assert evaluate(T11, CostCache(accel_preset("gemmini-baseline"))).evaluated


def test_quality_proxy_is_parameter_count():
    assert quality_proxy(T11) == 22880256.0
    c = Candidate(2, 10, (2, 2), (20, 40))
    assert quality_proxy(c) == (4 * 100 + 2 * 10 * 20) + (4 * 100 + 2 * 10 * 40)


def test_baseline_is_largest():
    b = baseline()
    assert (b.N, b.d) == (6, 768)
    assert b.h == (12,) * 6 and b.d_FFN == (3072,) * 6
    assert quality_proxy(b) == 42467328.0
    for seed in range(50):
        assert quality_proxy(sample_candidate(DEFAULT_SPACE, seed)) <= quality_proxy(b)


def test_candidate_ops_structure():
    ops = candidate_ops(T11)
    assert len(ops) == 6 * 12
    qk = next(o for o in ops if o.name == "L0.qk")
    assert qk.repeat == 12  # layer-0 head count
    assert qk.kind.K == 672 // 12
    qk3 = next(o for o in ops if o.name == "L3.qk")
    assert qk3.repeat == 8
    assert qk3.kind.K == 672 // 8
    w1 = next(o for o in ops if o.name == "L2.w1")
    assert w1.kind.M == 2560


# ---------------------------------------------------------------------------
# Sampling and mutation
# ---------------------------------------------------------------------------

def test_sample_deterministic():
    a = sample_candidate(DEFAULT_SPACE, 123)
    assert a == sample_candidate(DEFAULT_SPACE, 123)
    assert a.check(DEFAULT_SPACE)
    assert any(sample_candidate(DEFAULT_SPACE, s) != a for s in range(5))


def test_sample_marginals_uniform():
    rng = np.random.default_rng(0)
    counts = {h: 0 for h in DEFAULT_SPACE.heads_per_layer}
    total = 0
    for _ in range(4000):
        c = sample_candidate(DEFAULT_SPACE, rng)
        for h in c.h:
            counts[h] += 1
            total += 1
    for h, n in counts.items():
        assert abs(n / total - 0.2) < 0.03, h


def test_mutate_identity_at_zero():
    assert mutate(T11, 0.0, 99) == T11


def test_mutate_probability_band():
    rng = np.random.default_rng(1)
    changed = sum(mutate(T11, 0.2, rng).d != T11.d for _ in range(20000)) / 20000
    # d flips with rate p * (1 - 1/|model_dims|) = 0.16
    assert abs(changed - 0.16) < 0.02


def test_mutate_stays_in_space():
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = mutate(T11, 1.0, rng)
        m.check(DEFAULT_SPACE)
        assert len(m.h) == m.N and len(m.d_FFN) == m.N


def test_mutate_rejects_bad_probability():
    with pytest.raises(ConfigError):
        mutate(T11, 1.5, 0)


# ---------------------------------------------------------------------------
# Costing
# ---------------------------------------------------------------------------

def test_t11_edp_beats_baseline(accel):
    t11_edp = candidate_edp(T11, CostCache(accel))
    base_edp = candidate_edp(baseline(), CostCache(accel))
    assert t11_edp == pytest.approx(3.4291873726444605e19, rel=1e-12)
    assert base_edp == pytest.approx(8.415132853657926e19, rel=1e-12)
    assert t11_edp < 0.5 * base_edp


def test_cost_cache_transparent(accel):
    cache = CostCache(accel)
    ops = candidate_ops(T11)
    wide = _wide_flags(ops)
    for op, w in zip(ops, wide):
        got = cache.cost(op, wide_inputs=w)
        want = op_latency(op, accel, wide_inputs=w)
        assert got.latency == want.latency and got.energy == want.energy, op.name
    assert cache.misses == len(cache)
    before = (cache.hits, cache.misses)
    cache.cost(ops[0], wide_inputs=wide[0])
    assert cache.hits == before[0] + 1 and cache.misses == before[1]


def test_cached_edp_matches_uncached(accel):
    cache = CostCache(accel)
    a = candidate_edp(T11, cache)
    b = candidate_edp(T11, cache)  # all hits
    c = candidate_edp(T11, CostCache(accel))  # fresh cache
    assert a == b == c


def _flat_edp(c, accel):
    """Reference: every operator of the candidate costed afresh, summed in op order."""
    ops = candidate_ops(c)
    lat = energy = 0.0
    for op, w in zip(ops, _wide_flags(ops)):
        rep = op_latency(op, accel, wide_inputs=w)
        lat += rep.latency
        energy += rep.energy
    return lat * energy


@st.composite
def _candidates(draw, space=DEFAULT_SPACE):
    n = draw(st.sampled_from(space.layer_counts))
    genes = st.lists(st.sampled_from(space.heads_per_layer), min_size=n, max_size=n)
    # few model dims and FFN choices, so that layers and their parts repeat
    # within and across candidates
    ffns = st.lists(st.sampled_from(space.ffn_dims_per_layer[:4]), min_size=n, max_size=n)
    return Candidate(n, draw(st.sampled_from(space.model_dims[:3])),
                     tuple(draw(genes)), tuple(draw(ffns)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_candidates(), min_size=1, max_size=4), st.data())
def test_layer_memo_matches_flat_sum(cands, data):
    # one round of mixed N with repeated candidates; one cache per
    # accelerator, shared by the round and by costing one candidate at a time
    round_ = cands + data.draw(st.lists(st.sampled_from(cands), max_size=3))
    for a in (accel_preset("gemmini-baseline"), accel_preset("gemmini-tuned")):
        want = {c: _flat_edp(c, a) for c in round_}
        cache = CostCache(a)
        kept, edps, errors = _cost_round(round_, cache)
        assert kept == round_ and not errors
        assert edps == [want[c] for c in round_]  # bit for bit
        for c in cands:
            assert candidate_edp(c, cache) == want[c]
        assert cache.misses == len(cache)


_CONFIG_ERROR = Candidate(3, 0, (4, 4, 4), (768, 768, 768))  # d = 0 fails the config check


@pytest.mark.parametrize("a", [accel_preset("gemmini-baseline"),
                               # no 16x16 tile of a 4-byte output fits: every layer fails
                               AcceleratorConfig(accumulator_bytes=1024)],
                         ids=["baseline", "small-accumulator"])
def test_round_discards_like_costing_one_at_a_time(a):
    small = Candidate(3, 384, (4, 6, 4), (768, 896, 768))
    round_ = [T11, _CONFIG_ERROR, small, T11, _CONFIG_ERROR, baseline(), small]
    want_kept, want_edps, want_errors = [], [], []
    for c in round_:
        try:
            edp = _flat_edp(c, a)
        except (ConfigError, ValueError) as exc:
            want_errors.append((c, str(exc)))
        else:
            want_kept.append(c)
            want_edps.append(edp)
    kept, edps, errors = _cost_round(round_, CostCache(a))
    assert (kept, edps) == (want_kept, want_edps)
    assert [(c, str(exc)) for c, exc in errors] == want_errors
    assert len(errors) == (2 if a.accumulator_bytes > 1024 else len(round_))


def test_more_heads_than_model_dim_is_a_config_error(accel):
    # a head dim of 16 // 768 = 0 would divide by a zero tile; a round
    # discards the candidate and keeps costing the others
    wide = Candidate(3, 8, (16, 16, 16), (768,) * 3)
    for cost in (candidate_edp, evaluate):
        with pytest.raises(ConfigError, match="heads"):
            cost(wide, CostCache(accel))
    small = Candidate(3, 384, (4, 6, 4), (768, 896, 768))
    kept, edps, errors = _cost_round([wide, small], CostCache(accel))
    assert kept == [small] and edps == [candidate_edp(small, CostCache(accel))]
    assert [c for c, _ in errors] == [wide]
    # h == d and a non-divisor h are still costed
    assert candidate_edp(Candidate(1, 16, (16,), (64,)), CostCache(accel)) > 0
    assert candidate_edp(Candidate(1, 384, (5,), (768,)), CostCache(accel)) > 0


@pytest.mark.parametrize("c", [
    Candidate(0, 384, (), ()),                 # no layers
    Candidate(2, 384, (4,), (768, 768)),       # one head gene for two layers
    Candidate(2, 384, (4, 4), (768, 0)),       # layer 1's d_FFN = 0 fails its config
    Candidate(2, 0, (4, 4), (768, 768)),       # d = 0
    Candidate(2, 384, (0, 4), (768, 768)),     # h = 0
], ids=["N=0", "short-h", "d_FFN=0", "d=0", "h=0"])
def test_malformed_candidate_is_a_config_error(c, accel):
    for cost in (candidate_edp, evaluate):
        with pytest.raises(ConfigError):
            cost(c, CostCache(accel))


def test_accumulate_adds_left_to_right():
    # 1e16 and fifteen 1.0 addends, where one ulp is 2: a left fold rounds
    # each addend away, numpy's pairwise sum adds some of them together
    # first, and a compensated sum keeps them all
    row = [1e16] + [1.0] * 15
    left = 0.0
    for v in row:
        left += v
    pairwise = float(np.sum(row))
    assert len({left, pairwise, math.fsum(row)}) == 3
    values = np.array([[row, row[::-1]], [row[::-1], row]])
    got = _accumulate(values)
    assert got.shape == (2, 2)
    assert got[0, 0] == got[1, 1] == left
    reversed_left = 0.0
    for v in row[::-1]:
        reversed_left += v
    assert got[0, 1] == got[1, 0] == reversed_left


def test_edp_monotone_in_architecture_size(accel):
    small = Candidate(3, 384, (4, 4, 4), (768, 768, 768))
    wider = Candidate(3, 480, (4, 4, 4), (768, 768, 768))
    deeper = Candidate(4, 384, (4, 4, 4, 4), (768, 768, 768, 768))
    fatter = Candidate(3, 384, (4, 4, 4), (1024, 768, 768))
    e = {c: candidate_edp(c, CostCache(accel)) for c in (small, wider, deeper, fatter)}
    assert e[wider] > e[small]
    assert e[deeper] > e[small]
    assert e[fatter] > e[small]


# ---------------------------------------------------------------------------
# Pareto logic
# ---------------------------------------------------------------------------

def _cloud(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(Candidate(3, 384, (4, 4, 4), (768, 768, 768),
                             quality=float(rng.integers(1, 20)),
                             edp=float(rng.integers(1, 20))))
    return out


def _brute_front(points):
    def dom(a, b):
        return (a.quality >= b.quality and a.edp <= b.edp
                and (a.quality > b.quality or a.edp < b.edp))
    return {(p.quality, p.edp) for p in points
            if not any(dom(q, p) for q in points)}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pareto_matches_brute_force(seed):
    cloud = _cloud(seed, 100)
    front = pareto(cloud)
    assert {(p.quality, p.edp) for p in front.points} == _brute_front(cloud)
    front.check()


def test_pareto_sorted_and_tradeoff():
    front = pareto(_cloud(7, 200))
    edps = [p.edp for p in front.points]
    quals = [p.quality for p in front.points]
    assert edps == sorted(edps)
    assert all(a < b for a, b in zip(edps, edps[1:]))
    assert all(a < b for a, b in zip(quals, quals[1:]))  # more edp buys quality


def test_pareto_collapses_duplicates():
    a = Candidate(3, 384, (4, 4, 4), (768, 768, 768), quality=5.0, edp=3.0)
    b = Candidate(3, 480, (4, 4, 4), (768, 768, 768), quality=5.0, edp=3.0)
    front = pareto([a, b])
    assert len(front.points) == 1
    assert front.points[0].encode() == min(a.encode(), b.encode())


def test_front_check_rejects_bad():
    a = Candidate(3, 384, (4, 4, 4), (768, 768, 768), quality=5.0, edp=3.0)
    dominated = Candidate(3, 480, (4, 4, 4), (768, 768, 768), quality=4.0, edp=4.0)
    with pytest.raises(ConfigError):
        ParetoFront((a, dominated)).check()
    with pytest.raises(ConfigError):
        ParetoFront((Candidate(3, 384, (4, 4, 4), (768, 768, 768)),)).check()
    with pytest.raises(ConfigError):
        pareto([a, Candidate(3, 384, (4, 4, 4), (768, 768, 768))])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8),
                          st.sampled_from(DEFAULT_SPACE.model_dims)),
                min_size=1, max_size=40))
def test_pareto_property_clouds(points):
    cloud = [Candidate(3, d, (4, 4, 4), (768, 768, 768),
                       quality=float(q), edp=float(e)) for q, e, d in points]
    front = pareto(cloud)
    assert {(p.quality, p.edp) for p in front.points} == _brute_front(cloud)
    for p in front.points:  # tied points keep their smallest encoding
        assert p.encode() == min(c.encode() for c in cloud
                                 if (c.quality, c.edp) == (p.quality, p.edp))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=8),
       st.booleans())
def test_front_check_matches_brute_force(pairs, sort_by_edp):
    if sort_by_edp:
        pairs = sorted(pairs, key=lambda qe: qe[1])
    pts = tuple(Candidate(3, 384, (4, 4, 4), (768, 768, 768),
                          quality=float(q), edp=float(e)) for q, e in pairs)
    strictly_sorted = all(a.edp < b.edp for a, b in zip(pts, pts[1:]))
    valid = strictly_sorted and len(_brute_front(pts)) == len(pts)
    try:
        ParetoFront(pts).check()
    except ConfigError:
        assert not valid
    else:
        assert valid


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def test_evolve_frozen_seed5(accel):
    front = evolve(pop=40, rounds=40, p=0.2, seed=5, accel=accel)
    assert front.min_edp == pytest.approx(2.1666921707974164e18, rel=1e-12)
    assert front.trace[0] == (1, pytest.approx(3.486502533998837e18, rel=1e-12), 16)
    assert len(front.trace) == 40
    front.check()


def test_evolve_deterministic(accel):
    a = evolve(pop=12, rounds=6, seed=9, accel=accel)
    b = evolve(pop=12, rounds=6, seed=9, accel=accel)
    assert [p.encode() for p in a.points] == [p.encode() for p in b.points]
    assert [p.edp for p in a.points] == [p.edp for p in b.points]
    assert a.trace == b.trace


def test_evolve_min_edp_monotone(accel):
    front = evolve(pop=16, rounds=12, seed=3, accel=accel)
    mins = [row[1] for row in front.trace]
    assert all(b <= a for a, b in zip(mins, mins[1:]))
    assert front.min_edp == mins[-1]
    rounds = [row[0] for row in front.trace]
    assert rounds == list(range(1, 13))


def test_evolve_beats_half_baseline(accel):
    front = evolve(pop=40, rounds=40, p=0.2, seed=5, accel=accel)
    base = candidate_edp(baseline(), CostCache(accel))
    assert front.min_edp <= 0.5 * base
    assert max(p.quality for p in front.points) <= quality_proxy(baseline())


def test_evolve_small_population(accel):
    front = evolve(pop=2, rounds=1, seed=0, accel=accel)
    assert len(front.trace) == 1
    assert front.points
    front.check()


def test_evolve_rejects_bad_args(accel):
    with pytest.raises(ConfigError):
        evolve(pop=1, rounds=1, accel=accel)
    with pytest.raises(ConfigError):
        evolve(pop=4, rounds=0, accel=accel)


def test_evolve_rejects_accel_fitting_no_operator():
    tiny = AcceleratorConfig(scratchpad_bytes=64, accumulator_bytes=64)
    with pytest.raises(InfeasibleConfigError, match="no candidate fits the accelerator; "
                                                    "first discard: no 16x16 tile fits"):
        evolve(pop=4, rounds=3, accel=tiny, cache=CostCache(tiny))


def test_evolve_shares_cache(accel):
    cache = CostCache(accel)
    evolve(pop=8, rounds=4, seed=1, accel=accel, cache=cache)
    assert cache.hits > 0  # repeated shapes across candidates actually hit


def test_evolve_rejects_a_cache_for_another_accelerator(accel):
    tuned = CostCache(accel_preset("gemmini-tuned"))
    with pytest.raises(ValueError, match="another accelerator"):
        evolve(pop=4, rounds=1, accel=accel, cache=tuned)
    assert (tuned.hits, tuned.misses) == (0, 0)
    # an equal accelerator built anew is the same accelerator
    evolve(pop=4, rounds=1, accel=accel, cache=CostCache(accel_preset("gemmini-baseline")))


def _front_doc(front):
    return {"points": [[list(c.encode()), c.quality.hex(), c.edp.hex()]
                       for c in front.points],
            "trace": [[r, e.hex(), s] for r, e, s in front.trace],
            "discarded": [[list(enc), msg] for enc, msg in front.discarded]}


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: f"seed{g['seed']}")
def test_evolve_matches_goldens(golden, accel):
    front = evolve(pop=golden["pop"], rounds=golden["rounds"], p=golden["p"],
                   seed=golden["seed"], accel=accel)
    want = {k: golden[k] for k in ("points", "trace", "discarded")}
    assert _front_doc(front) == want
    if "rescore" in golden:
        assert _front_doc(rescore(front, accel)) == golden["rescore"]


def test_rescore_front(accel):
    front = evolve(pop=16, rounds=8, seed=4, accel=accel)
    rs = rescore(front, accel)
    rs.check()
    assert len(rs.points) <= len(front.points)
    assert all(p.evaluated for p in rs.points)
    # greedy max tiles never move less data: EDP stays positive and finite
    assert all(math.isfinite(p.edp) and p.edp > 0 for p in rs.points)
