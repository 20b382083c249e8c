"""Evolutionary architecture search: space, mutation, Pareto logic, evolve loop."""
import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfperf.workload import ConfigError
from tfperf.hwmodel import (AcceleratorConfig, EnergyTable, InfeasibleConfigError, accel_preset,
                            op_latency)
from tfperf.archsearch import (
    DEFAULT_SPACE,
    Candidate,
    CostCache,
    ParetoFront,
    SearchSpace,
    _PCG64Words,
    _accumulate,
    _cost_round,
    _draws,
    baseline,
    candidate_edp,
    candidate_ops,
    evaluate,
    evolve,
    mutate,
    pareto,
    quality_proxy,
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
    for p in (1.5, math.nan):
        with pytest.raises(ConfigError):
            mutate(T11, p, 0)


def test_mutate_rejects_a_malformed_candidate():
    for c in (Candidate(2, 384, (4,), (768, 768)), Candidate(1, 384, (4,), (768, 768))):
        with pytest.raises(ConfigError, match="length N"):
            mutate(c, 0.2, 0)


# ---------------------------------------------------------------------------
# The search's draws: numpy's Generator methods rebuilt on PCG64's raw words
# ---------------------------------------------------------------------------

# 2**31 + 11 and 2**32 - 5 make Lemire's rejections common
_KS = (1, 2, 5, 7, 20, 2 ** 31 + 11, 2 ** 32 - 5)


class _Stop(Exception):
    pass


# a single call hands back a block barely read, or one never drawn
@pytest.mark.parametrize("seed, calls", [*((s, 3000) for s in range(20)), (20, 1), (21, 1)])
def test_raw_word_draws_match_the_generator(seed, calls):
    plan = np.random.default_rng(1000 + seed)  # which call, and which k
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if seed % 2:  # start with a pending high half
        assert rng.integers(7) == ref.integers(7)
    with pytest.raises(_Stop) if seed % 3 == 0 else contextlib.nullcontext():
        with _draws(rng) as words:
            assert isinstance(words, _PCG64Words)
            for _ in range(calls):
                if plan.random() < 0.5:
                    assert words.random() == ref.random()
                else:
                    k = _KS[plan.integers(len(_KS))]
                    assert words.integers(k) == ref.integers(k), k
            if seed % 3 == 0:  # the words are handed back on a raise too
                raise _Stop
    assert rng.bit_generator.state == ref.bit_generator.state
    for k in _KS:
        assert rng.integers(k) == ref.integers(k)
        assert rng.random() == ref.random()


# PCG64's first raw words for three seeds, and the first draws of each kind
# made from them, written out so that they hold without numpy's Generator
_PINS = {
    0: (["a30febcfd9c2825f", "4510bdf882d9d721", "0a7d3da94ecde8b8", "043b27b61342f01d",
         "d0327a782cde513b", "e9aa5979a6401c4e", "9b4c7b7180edb27f", "bac0495ff8829a45"],
        ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5",
         "0x1.0ec9ed84d0bc0p-6", "0x1.a064f4f059bcap-1", "0x1.d354b2f34c803p-1",
         "0x1.3698f6e301db6p-1", "0x1.758092bff1053p-1"],
        [1826701624, 1367864814, 579362558, 87989972, 1746484548, 1960127686, 1566581943,
         1202413564]),
    5: (["ce14abeeabb8e5a8", "ced5352505cc99f5", "83ec603f7806adc0", "492a477ca1570476",
         "0dce670afac210ed", "622476854726028f", "6891b332923923c4", "0b9727b5218d35ce"],
        ["0x1.9c2957dd5771cp-1", "0x1.9daa6a4a0b993p-1", "0x1.07d8c07ef00d5p-1",
         "0x1.24a91df2855c0p-2", "0x1.b9cce15f58420p-5", "0x1.8891da151c980p-2",
         "0x1.a246ccca48e48p-2", "0x1.72e4f6a431a60p-5"],
        [1728730623, 48647418, 1353417281, 115815301, 596836682, 823278406, 97227738,
         319577161]),
    2 ** 70 + 3: (["6b9e7d80244da682", "492f04c2452ccfdd", "1b34b70f0a2ac141",
                   "4c034a6c80a14ccc", "611105d7402995dd", "dac4140fa4952397",
                   "5f6dd51c96ff7a6a", "c2679a98596c5d88"],
                  ["0x1.ae79f60091368p-2", "0x1.24bc130914b32p-2", "0x1.b34b70f0a2ac0p-4",
                   "0x1.300d29b202852p-2", "0x1.8444175d00a64p-2", "0x1.b588281f492a4p-1",
                   "0x1.7db754725bfdep-2", "0x1.84cf3530b2d8bp-1"],
                  [304534338, 902774468, 85287072, 228219784, 1079027307, 814252783,
                   1380618706, 1835141648]),
}


@pytest.mark.parametrize("seed", sorted(_PINS))
def test_raw_word_draws_are_pinned(seed):
    raw, doubles, ints = _PINS[seed]
    assert [f"{w:016x}" for w in np.random.PCG64(seed).random_raw(8).tolist()] == raw
    with _draws(seed) as words:
        assert [words.random().hex() for _ in range(8)] == doubles
    with _draws(seed) as words:
        assert [words.integers(2 ** 31 + 11) for _ in range(8)] == ints


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
    for op in ops:
        got = cache.cost(op)
        want = op_latency(op, accel)
        assert got.latency == want.latency and got.energy == want.energy, op.name
    assert cache.misses == len(cache)
    before = (cache.hits, cache.misses)
    cache.cost(ops[0])
    assert cache.hits == before[0] + 1 and cache.misses == before[1]


def test_cached_edp_matches_uncached(accel):
    cache = CostCache(accel)
    a = candidate_edp(T11, cache)
    b = candidate_edp(T11, cache)  # all hits
    c = candidate_edp(T11, CostCache(accel))  # fresh cache
    assert a == b == c


def _flat_edp(c, accel):
    """Reference: every operator of the candidate costed afresh, summed in op order."""
    lat = energy = 0.0
    for op in candidate_ops(c):
        rep = op_latency(op, accel)
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
        encs = [c.encode() for c in round_]
        kept, edps, errors = _cost_round(encs, cache)
        assert kept == encs and not errors
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
    kept, edps, errors = _cost_round([c.encode() for c in round_], CostCache(a))
    assert (kept, edps) == ([c.encode() for c in want_kept], want_edps)
    assert [(enc, str(exc)) for enc, exc in errors] == [(c.encode(), msg)
                                                       for c, msg in want_errors]
    assert len(errors) == (2 if a.accumulator_bytes > 1024 else len(round_))


def test_more_heads_than_model_dim_is_a_config_error(accel):
    # a head dim of 16 // 768 = 0 would divide by a zero tile; a round
    # discards the candidate and keeps costing the others
    wide = Candidate(3, 8, (16, 16, 16), (768,) * 3)
    for cost in (candidate_edp, evaluate):
        with pytest.raises(ConfigError, match="heads"):
            cost(wide, CostCache(accel))
    small = Candidate(3, 384, (4, 6, 4), (768, 896, 768))
    kept, edps, errors = _cost_round([wide.encode(), small.encode()], CostCache(accel))
    assert kept == [small.encode()] and edps == [candidate_edp(small, CostCache(accel))]
    assert [enc for enc, _ in errors] == [wide.encode()]
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
    # the front of pop 2 fills the population, so no child is ever mutated:
    # the probability is checked before anything is costed
    cache = CostCache(accel)
    for p in (5.0, -0.1, math.nan):
        with pytest.raises(ConfigError, match="mutation probability"):
            evolve(pop=2, rounds=3, p=p, seed=1, accel=accel, cache=cache)
    assert (cache.hits, cache.misses, cache.layers) == (0, 0, {})


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


# ---------------------------------------------------------------------------
# Old versus new: the search on Candidates, as it was before it kept the
# front as encoding rows
# ---------------------------------------------------------------------------

def _scored(c: Candidate, edp: float) -> Candidate:
    return Candidate(c.N, c.d, c.h, c.d_FFN, quality_proxy(c), edp)


def _reference_evolve(space=DEFAULT_SPACE, accel=None, pop=40, rounds=40, p=0.2, seed=0,
                      cache=None) -> ParetoFront:
    """Each round scores every kept child as a `Candidate` and re-sweeps the
    whole front through `pareto`; children come from `mutate`."""
    if pop < 2 or rounds < 1:
        raise ConfigError("need pop >= 2 and rounds >= 1")
    if accel is None:
        accel = accel_preset("gemmini-baseline")
    if cache is None:
        cache = CostCache(accel)
    elif cache.accel != accel:
        raise ValueError("cost cache was built for another accelerator")
    space.check()
    rng = np.random.default_rng(seed)
    population = [sample_candidate(space, rng) for _ in range(pop)]
    trace: list = []
    discarded: list = []
    front = ParetoFront(())
    for rnd in range(1, rounds + 1):
        by_encoding = {c.encode(): c for c in population}
        kept, edps, errors = _cost_round([c.encode() for c in population], cache)
        discarded.extend((enc, str(exc)) for enc, exc in errors)
        scored = list(map(_scored, map(by_encoding.get, kept), edps))
        front = pareto(list(front.points) + scored)
        if not front.points:  # every candidate so far was discarded: none to mutate
            raise InfeasibleConfigError(
                f"no candidate fits the accelerator; first discard: {discarded[0][1]}")
        trace.append((rnd, front.min_edp, len(front.points)))
        population = []
        i = 0
        while len(population) < pop - len(front.points):
            population.append(mutate(front.points[i % len(front.points)], p, rng, space))
            i += 1
    return ParetoFront(front.points, tuple(trace), tuple(discarded)).check()


_TINY = SearchSpace(layer_counts=(1, 2), heads_per_layer=(2, 4), model_dims=(64, 96),
                    ffn_dims_per_layer=(128, 256))
# At these bandwidths the attention latencies of a 16-head layer overflow to
# infinity, so a candidate with one is discarded; a candidate of one- and
# two-head layers costs a finite EDP at 1.6e-301, and at 1e-301 an infinite
# one (its operators' latencies add up past the largest float)
_HEADS = SearchSpace(layer_counts=(1, 2), heads_per_layer=(1, 2, 16), model_dims=(64, 96),
                     ffn_dims_per_layer=(128, 256))
_FAINT = EnergyTable(0.0, 1e-200, 0.0, 2e-200)
# single-valued genes: numpy's integers(1) is 0 and draws nothing
_ONE_N = SearchSpace(layer_counts=(3,))
_ONE_D = SearchSpace(model_dims=(480,))
_ONE_N_D = SearchSpace(layer_counts=(4,), model_dims=(576,))


def _pcg64(seed, pending=False):
    """A function making a fresh PCG64 Generator, with a pending high half
    if asked (one `integers` call leaves one)."""
    def make():
        rng = np.random.default_rng(seed)
        if pending:
            rng.integers(7)
        return rng
    return make


def _outcome(search, **kw):
    try:
        with np.errstate(over="ignore"):
            return _front_doc(search(**kw))
    except (ConfigError, ValueError) as exc:
        return type(exc).__name__, str(exc)


_FRONT, _DISCARDS = "front", "front and discards"


@pytest.mark.parametrize("kw, ends", [
    (dict(pop=2, rounds=6, seed=0), _FRONT),
    (dict(pop=200, rounds=6, seed=1), _FRONT),
    (dict(pop=17, rounds=8, p=1.0, seed=2, accel=accel_preset("gemmini-tuned")), _FRONT),
    (dict(pop=9, rounds=5, p=0.0, seed=3), _FRONT),
    *((dict(pop=40, rounds=12, seed=seed), _FRONT) for seed in (10, 11, 12)),
    (dict(pop=30, rounds=10, seed=4, space=_TINY), _FRONT),
    (dict(pop=25, rounds=6, p=1.0, seed=5, space=_TINY), _FRONT),
    (dict(pop=12, rounds=6, seed=0, space=_HEADS,
          accel=AcceleratorConfig(dram_bw=1.6e-301, energy=_FAINT)), _DISCARDS),
    # an infinite EDP on the last front, and one that only an earlier front held
    *((dict(pop=12, rounds=6, seed=seed, space=_HEADS,
            accel=AcceleratorConfig(dram_bw=1e-301, energy=_FAINT)), "ConfigError")
      for seed in (0, 3)),
    (dict(pop=6, rounds=3, seed=6, accel=AcceleratorConfig(accumulator_bytes=1024)),
     "InfeasibleConfigError"),
    (dict(pop=30, rounds=8, seed=13, space=_ONE_N), _FRONT),
    (dict(pop=30, rounds=8, p=0.5, seed=14, space=_ONE_D), _FRONT),
    (dict(pop=30, rounds=8, seed=15, space=_ONE_N_D), _FRONT),
    (dict(pop=40, rounds=8, seed=_pcg64(16)), _FRONT),
    (dict(pop=40, rounds=8, seed=_pcg64(17, pending=True)), _FRONT),
    (dict(pop=20, rounds=6, seed=_pcg64(18, pending=True), space=_ONE_N), _FRONT),
    (dict(pop=6, rounds=3, seed=_pcg64(6, pending=True),
          accel=AcceleratorConfig(accumulator_bytes=1024)), "InfeasibleConfigError"),
    (dict(pop=40, rounds=8, seed=lambda: np.random.Generator(np.random.MT19937(19))), _FRONT),
], ids=["pop2", "pop200", "p1-tuned", "p0", "seed10", "seed11", "seed12", "tiny-space",
        "tiny-space-p1", "discards-some", "infinite-edp-last", "infinite-edp-dropped",
        "discards-all", "one-layer-count", "one-model-dim", "one-layer-count-and-dim",
        "pcg64-generator", "pcg64-generator-pending", "pcg64-generator-pending-one-layer-count",
        "pcg64-generator-discards-all", "mt19937-generator"])
def test_evolve_matches_the_candidate_search(kw, ends):
    # encodings, quality and EDP bits, trace and discards, or the same error;
    # a seed given as a function makes each search a fresh Generator, which
    # both searches must leave in the same state
    seeds = [kw["seed"]() if callable(kw["seed"]) else kw["seed"] for _ in range(2)]
    want = _outcome(_reference_evolve, **{**kw, "seed": seeds[0]})
    assert _outcome(evolve, **{**kw, "seed": seeds[1]}) == want
    if callable(kw["seed"]):
        np.testing.assert_equal(seeds[1].bit_generator.state, seeds[0].bit_generator.state)
    if isinstance(want, dict):
        assert want["points"] and bool(want["discarded"]) == (ends == _DISCARDS)
    else:
        assert want[0] == ends


def test_evolve_matches_the_candidate_search_on_a_shared_cache(accel):
    shared = CostCache(accel)
    for seed in (7, 8):
        fresh = CostCache(accel)
        want = _front_doc(_reference_evolve(pop=20, rounds=6, seed=seed, accel=accel,
                                            cache=fresh))
        assert _front_doc(evolve(pop=20, rounds=6, seed=seed, accel=accel,
                                 cache=shared)) == want
        if seed == 7:  # the same lookups, and the same layer rows, from the same start
            assert (shared.hits, shared.misses, shared.layers) == (
                fresh.hits, fresh.misses, fresh.layers)
            assert (shared._written() == fresh._written()).all()


def test_evolve_builds_candidates_only_for_the_front(accel, monkeypatch):
    built = []
    init = Candidate.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Candidate, "__init__", counting)
    front = evolve(pop=200, rounds=50, accel=accel)
    assert len(built) == len(front.points)
