"""Mapspace sampling, validation, statistics, exhaustive search, kernel reports."""
import hashlib
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfperf.workload import Conv, Matmul, OperatorClass, OperatorSpec, resnet50_ops
from tfperf.hwmodel import AcceleratorConfig, InfeasibleConfigError, accel_preset
from tfperf.mapspace import (
    _Batch,
    _Space,
    _class_batch,
    _divisors,
    _draw_valid,
    _eval_batch,
    _order_classes,
    _perm_table,
    _tile_choices,
    _valid_mask,
    NAMED_NESTS,
    LoopNest,
    Mapping,
    MapspaceTooLargeError,
    conv_nest,
    evaluate,
    exhaustive_best,
    mapspace_size,
    matched_mac_dims,
    matmul_nest,
    nest_of,
    random_mapping,
    sample_costs,
    sample_stats,
    stats_from_costs,
    validate,
)

SMALL = matmul_nest(8, 8, 8)


def _mapping(nest=SMALL, spatial=(1, 1, 1), tiles=(8, 8, 8),
             dram_perm=("m", "k", "n")) -> Mapping:
    return Mapping(nest=nest, spatial=spatial, tiles=tiles, dram_perm=dram_perm)


# ---------------------------------------------------------------------------
# Nests and mappings
# ---------------------------------------------------------------------------

def test_nest_construction():
    n = matmul_nest(768, 768, 512)
    assert n.names == ("m", "k", "n")
    assert n.extents == (768, 768, 512)
    assert not n.is_conv
    assert n.spatial_dims == ("m", "n")
    c = conv_nest(Conv(3, 512, 512, 7, 7, stride=2))
    assert c.is_conv
    assert c.stride == 2
    assert c.spatial_dims == ("oc", "ic")


def test_nest_rejects_bad_dims():
    with pytest.raises(ValueError):
        LoopNest((("m", 8), ("m", 8), ("n", 8)))
    with pytest.raises(ValueError):
        LoopNest((("m", 8), ("k", 0), ("n", 8)))
    with pytest.raises(ValueError):
        LoopNest((("a", 8), ("b", 8), ("c", 8)))


@pytest.mark.parametrize("precisions", [(1, 1), (1, 1, 1, 1), (1, 0, 1), (1, 1, -4),
                                        (1.0, 1, 1), (True, 1, 1), ("1", 1, 1), [1, 1, 1]],
                         ids=repr)
def test_nest_rejects_bad_widths(precisions):
    with pytest.raises(ValueError, match="precisions"):
        LoopNest(SMALL.dims, precisions=precisions)


def test_nest_of():
    op = OperatorSpec("t", OperatorClass.FfnProjection, Matmul(4, 5, 6))
    assert nest_of(op).extents == (4, 5, 6)
    assert nest_of(op).precisions == (1, 1, 1)
    conv = resnet50_ops()[0]
    assert nest_of(conv).is_conv
    assert nest_of(conv).precisions == (1, 1, 1)
    # the widths hwmodel costs the op at: operands by position, a
    # Softmax/LayerNorm producer draining at accumulator width
    wide = OperatorSpec("t", OperatorClass.ActToAct, Matmul(4, 5, 6),
                        in_precisions=(2, 1), out_precision=2, pre_nonlinear=True)
    assert nest_of(wide).precisions == (2, 1, 4)
    assert nest_of(replace(wide, pre_nonlinear=False)).precisions == (2, 1, 2)
    assert nest_of(replace(wide, in_precisions=(2,))).precisions == (2, 2, 4)
    assert nest_of(replace(conv, in_precisions=(1, 2), out_precision=2)).precisions == (1, 2, 2)
    from tfperf.workload import Elementwise
    with pytest.raises(TypeError):
        nest_of(OperatorSpec("t", OperatorClass.Nonlinear, Elementwise(8, 1, 1)))


def test_mapping_helpers():
    m = _mapping(spatial=(2, 1, 8), tiles=(4, 8, 8), dram_perm=("k", "m", "n"))
    assert m.encode() == ((2, 1, 8), (4, 8, 8), ("k", "m", "n"))


def test_named_nests_registry(accel):
    assert NAMED_NESTS["bert.mha"].extents == (768, 768, 512)
    assert NAMED_NESTS["bert.qk"].extents == (512, 64, 512)
    assert NAMED_NESTS["resnet.c3"].is_conv


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_clean(accel):
    assert validate(_mapping(), accel) == []


def test_validate_each_violation(accel):
    cases = {
        "spatial not divisor of W": _mapping(spatial=(3, 1, 1), tiles=(9, 8, 8)),
        "spatial on non-spatial dim": _mapping(spatial=(1, 2, 1)),
        "tile not multiple of spatial": _mapping(spatial=(8, 1, 1), tiles=(4, 8, 8)),
        "tile does not divide padded": _mapping(tiles=(3, 8, 8)),
        "perm not bijection": _mapping(dram_perm=("m", "m", "n")),
        "perm is a list": _mapping(dram_perm=["m", "k", "n"]),
        "zero spatial on m": _mapping(spatial=(0, 1, 1)),
        "zero spatial on k": _mapping(spatial=(1, 0, 1)),
        "negative spatial on n": _mapping(spatial=(1, 1, -2)),
        "spatial too short": _mapping(spatial=(1, 1)),
        "spatial too long": _mapping(spatial=(1, 1, 1, 1)),
        "tiles too short": _mapping(tiles=(8, 8)),
        "zero tile": _mapping(tiles=(8, 0, 8)),
    }
    for label, m in cases.items():
        assert validate(m, accel), label
        with pytest.raises(InfeasibleConfigError):
            evaluate(m, accel)


def test_validate_stops_at_length_mismatch(accel):
    assert validate(_mapping(spatial=(1, 1), tiles=(8, 8)), accel) == [
        "spatial has 2 entries for 3 dims", "tiles has 2 entries for 3 dims"]
    # a zero factor is reported once, with no padding check on its dim
    assert validate(_mapping(spatial=(0, 1, 1)), accel) == [
        "spatial factor 0 on m not a divisor of W=16"]


def test_validate_capacity_violations():
    tiny = AcceleratorConfig(scratchpad_bytes=64, accumulator_bytes=64)
    msgs = validate(_mapping(), tiny)
    assert any("operand-1" in s for s in msgs)
    assert any("operand-2" in s for s in msgs)
    assert any("output" in s for s in msgs)
    # precision scaling pushes a fitting tile over the edge
    edge = AcceleratorConfig(scratchpad_bytes=128, accumulator_bytes=1024)
    assert validate(_mapping(), edge) == []
    assert validate(_mapping(nest=replace(SMALL, precisions=(2, 1, 1))), edge) != []
    # conv: weights (operand 1, 288 B) scale with w_b, the halo'd input
    # (operand 2, 144 B) with act_b
    conv = conv_nest(Conv(3, 4, 8, 4, 4))
    roomy = AcceleratorConfig(scratchpad_bytes=600, accumulator_bytes=1024)

    def conv_msgs(precisions):
        nest = replace(conv, precisions=precisions)
        m = Mapping(nest=nest, spatial=(1,) * 6, tiles=nest.extents, dram_perm=nest.names)
        return [s[:9] for s in validate(m, roomy)]

    assert conv_msgs((2, 1, 1)) == []
    assert conv_msgs((3, 1, 1)) == ["operand-2"]
    assert conv_msgs((1, 2, 1)) == ["operand-1"]


def test_evaluate_rejects_invalid(accel):
    with pytest.raises(InfeasibleConfigError):
        evaluate(_mapping(tiles=(3, 8, 8)), accel)


def test_evaluate_report_is_read_only(accel):
    rep = evaluate(_mapping(), accel)
    with pytest.raises(TypeError):
        rep.traffic["dram"] = 0.0
    assert rep.traffic == {"dram": 192.0}


# ---------------------------------------------------------------------------
# DRAM traffic semantics (hand-computed)
# ---------------------------------------------------------------------------

def test_traffic_no_reloads(accel):
    # single k block, operands streamed once, narrow output
    m = _mapping(spatial=(1, 1, 1), tiles=(4, 8, 8), dram_perm=("k", "m", "n"))
    assert evaluate(m, accel).traffic["dram"] == 64 + 64 + 64
    # the nest's widths scale each operand's and the output's bytes
    wide = replace(m, nest=replace(SMALL, precisions=(2, 1, 4)))
    assert evaluate(wide, accel).traffic["dram"] == 2 * 64 + 64 + 4 * 64


def test_traffic_output_spill(accel):
    # k tiled and m outside it: partials drain wide once per k block
    m = _mapping(tiles=(4, 4, 8), dram_perm=("k", "n", "m"))
    got = evaluate(m, accel).traffic["dram"]
    assert got == 64 + 64 + 8 * 8 * 4 * 2


def test_traffic_irrelevant_loop_reload(accel):
    # n above the live m loop forces the m*k operand to stream F_n times
    m = _mapping(tiles=(4, 8, 4), dram_perm=("n", "m", "k"))
    got = evaluate(m, accel).traffic["dram"]
    assert got == 2 * 64 + 64 + 64


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_random_mapping_valid_and_deterministic(accel):
    nest = NAMED_NESTS["bert.mha"]
    for seed in range(200):
        m = random_mapping(nest, accel, seed)
        assert validate(m, accel) == [], seed
    a = random_mapping(nest, accel, 42)
    b = random_mapping(nest, accel, 42)
    assert a == b
    assert any(random_mapping(nest, accel, s) != a for s in range(5))


def test_sample_costs_deterministic(accel):
    nest = NAMED_NESTS["bert.qk"]
    l1, e1 = sample_costs(nest, accel, 256, seed=3)
    l2, e2 = sample_costs(nest, accel, 256, seed=3)
    assert np.array_equal(l1, l2) and np.array_equal(e1, e2)
    l3, _ = sample_costs(nest, accel, 256, seed=4)
    assert not np.array_equal(l1, l3)
    with pytest.raises(ValueError):
        sample_costs(nest, accel, 0, seed=3)


def test_sample_stats_consistent_with_costs(accel):
    nest = NAMED_NESTS["bert.qk"]
    lats, ens = sample_costs(nest, accel, 500, seed=11)
    s = sample_stats(nest, accel, 500, seed=11)
    edps = lats * ens
    assert s.min_edp == edps.min()
    assert np.array_equal(s.relative_edps, edps / edps.min())
    assert np.array_equal(s.cdf, np.sort(s.relative_edps))
    assert s.p10 == s.cdf[int(0.10 * 499)]
    assert s.spread == s.cdf[-1]
    assert s.frac_within(3) == np.count_nonzero(s.relative_edps < 3) / 500


def test_bert_mha_stats_frozen(accel):
    s = sample_stats(NAMED_NESTS["bert.mha"], accel, 2000, seed=7)
    assert s.min_edp == 4506597514543104.0
    assert s.spread == pytest.approx(182185.32283464566, rel=1e-12)
    assert s.frac_within(3) == pytest.approx(0.041, abs=1e-9)
    assert s.p10 == pytest.approx(6.234734444959086, rel=1e-12)
    assert s.spread >= 1e3
    assert 0.003 <= s.frac_within(3) <= 0.08


def _assert_stats_equal(a, b):
    assert a.n_samples == b.n_samples
    assert a.min_edp == b.min_edp and a.p10 == b.p10 and a.spread == b.spread
    assert np.array_equal(a.relative_edps, b.relative_edps)
    assert np.array_equal(a.cdf, b.cdf)


@pytest.mark.parametrize("op,n,seed", [("bert.qk", 500, 11), ("resnet.c3", 1, 2),
                                       ("bert.mha", 3000, 7)])
def test_stats_from_costs_matches_sample_stats(accel, op, n, seed):
    nest = NAMED_NESTS[op]
    _assert_stats_equal(stats_from_costs(*sample_costs(nest, accel, n, seed)),
                        sample_stats(nest, accel, n, seed))


# sha256 of sample_costs' latency and energy bytes, captured from the sampler
# that costed every drawn row and grouped tiles with np.unique and one mask
# per spatial factor. "w16-tight" needs several rejection rounds; on
# "w16-starved" some rounds keep no row and n=1000 runs out of rounds.
MAPSPACE_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "mapspace_goldens.json").read_text())


@pytest.mark.parametrize("case", MAPSPACE_GOLDENS["cases"],
                         ids=lambda c: f"{c['nest']}-{c['accel']}-n{c['n']}-s{c['seed']}")
def test_sample_costs_matches_goldens(case):
    accel = AcceleratorConfig(**MAPSPACE_GOLDENS["accels"][case["accel"]]).check()
    nest = NAMED_NESTS[case["nest"]]
    if case.get("infeasible"):
        with pytest.raises(InfeasibleConfigError):
            sample_costs(nest, accel, case["n"], case["seed"])
        return
    lat, en = sample_costs(nest, accel, case["n"], case["seed"])
    assert len(lat) == len(en) == case["n"]
    assert hashlib.sha256(lat.tobytes()).hexdigest() == case["lat_sha256"]
    assert hashlib.sha256(en.tobytes()).hexdigest() == case["en_sha256"]


def _sample_batch_reference(nest, accel, n, rng):
    """The grouping _sample_batch replaced: np.unique over the drawn spatial
    factors, then one boolean mask per factor."""
    d = len(nest.names)
    spatial = np.ones((d, n), dtype=np.int64)
    tiles = np.ones((d, n), dtype=np.int64)
    sdivs = np.array(_divisors(accel.pe_width), dtype=np.int64)
    for i, (name, ext) in enumerate(nest.dims):
        if name in nest.spatial_dims:
            spatial[i] = sdivs[rng.integers(0, len(sdivs), size=n)]
        for s in np.unique(spatial[i]):
            mask = spatial[i] == s
            choices = np.array(_tile_choices(ext, int(s)), dtype=np.int64)
            tiles[i, mask] = choices[rng.integers(0, len(choices), size=int(mask.sum()))]
    perm_idx = rng.integers(0, math.factorial(d), size=n)
    return spatial, tiles, perm_idx


_NESTS = st.one_of(
    st.sampled_from(sorted(NAMED_NESTS)).map(NAMED_NESTS.get),
    st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
    .map(lambda t: matmul_nest(*t)),
    st.tuples(st.integers(1, 3), st.integers(1, 24), st.integers(1, 24),
              st.integers(1, 9), st.integers(1, 2))
    .map(lambda t: conv_nest(Conv(t[0], t[1], t[2], t[3], t[3], stride=t[4]))))


@settings(max_examples=60, deadline=None)
@given(nest=_NESTS, pe_width=st.sampled_from([1, 2, 7, 8, 12, 16, 32, 60, 5040]),
       n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_batch_matches_unique_mask_reference(nest, pe_width, n, seed):
    accel = AcceleratorConfig(pe_width=pe_width)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    space = _Space(nest, pe_width)
    assert space.size * math.factorial(len(nest.names)) == mapspace_size(nest, accel)
    batch = space.batch(*space.draw(n, rng))
    spatial, tiles, perm_idx = _sample_batch_reference(nest, accel, n, ref_rng)
    assert np.array_equal(batch.spatial, spatial)
    assert np.array_equal(batch.tiles, tiles)
    assert np.array_equal(batch.perm_idx, perm_idx)
    # the same draws in the same order leave both generators in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _sample_batch(nest, accel, n, rng) -> _Batch:
    """The mapping draw that held tile sizes per row: n candidate mappings
    drawn uniformly (not yet validity-filtered)."""
    sdivs = _divisors(accel.pe_width)
    sdiv_arr = np.array(sdivs, dtype=np.int64)
    batch = _Batch(nest, n)
    sdims = nest.spatial_dims
    for d, (name, ext) in enumerate(nest.dims):
        if name not in sdims:
            choices = np.array(_tile_choices(ext, 1), dtype=np.int64)
            batch.tiles[d] = choices[rng.integers(0, len(choices), size=n)]
            continue
        j = rng.integers(0, len(sdivs), size=n)
        batch.spatial[d] = sdiv_arr[j]
        drawn = np.empty(n, dtype=np.int64)
        start = 0
        for s, c in zip(sdivs, np.bincount(j, minlength=len(sdivs)).tolist()):
            if c:
                choices = np.array(_tile_choices(ext, s), dtype=np.int64)
                drawn[start:start + c] = choices[rng.integers(0, len(choices), size=c)]
                start += c
        batch.tiles[d, np.argsort(j, kind="stable")] = drawn
    batch.perm_idx = rng.integers(0, math.factorial(len(nest.names)), size=n)
    return batch


def _take(batch, idx) -> _Batch:
    out = _Batch(batch.nest, 0)
    out.spatial, out.tiles, out.perm_idx = (batch.spatial[:, idx], batch.tiles[:, idx],
                                            batch.perm_idx[idx])
    return out


def _kept_reference(nest, accel, n, rng) -> _Batch:
    """sample_costs' rejection rounds over per-row tile arrays: each round
    checks every drawn row's footprints and keeps the first `need` valid."""
    kept = []
    got = 0
    for _ in range(64):
        need = n - got
        if need == 0:
            break
        batch = _sample_batch(nest, accel, max(need * 2, 1024), rng)
        kept.append(_take(batch, np.flatnonzero(_valid_mask(batch, accel))[:need]))
        got += kept[-1].perm_idx.size
    if got < n:
        raise InfeasibleConfigError("out of rounds")
    out = _Batch(nest, 0)
    out.spatial = np.concatenate([b.spatial for b in kept], axis=1)
    out.tiles = np.concatenate([b.tiles for b in kept], axis=1)
    out.perm_idx = np.concatenate([b.perm_idx for b in kept])
    return out


def _random_mapping_reference(nest, accel, seed):
    rng = np.random.default_rng(seed)
    for _ in range(64):
        batch = _sample_batch(nest, accel, 64, rng)
        idx = np.flatnonzero(_valid_mask(batch, accel))
        if len(idx):
            i = int(idx[0])
            return Mapping(nest, tuple(batch.spatial[:, i].tolist()),
                           tuple(batch.tiles[:, i].tolist()),
                           tuple(nest.names[d] for d in np.argsort(_perm_table(
                               len(nest.names))[batch.perm_idx[i]]).tolist()))
    return None


@settings(max_examples=60, deadline=None)
@given(nest=_NESTS, pe_width=st.sampled_from([1, 2, 7, 8, 12, 16, 32]),
       capacity=st.sampled_from([(256 * 1024, 64 * 1024), (8192, 2048), (1024, 256),
                                 (64, 64), (16, 16)]),
       n=st.integers(1, 3000), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_costs_match_the_per_row_kernel(nest, pe_width, capacity, n, seed):
    """Costing each drawn (tile vector, loop-order class) once gives every
    row the bits the kernel gives it, after the same generator calls."""
    accel = AcceleratorConfig(pe_width=pe_width, scratchpad_bytes=capacity[0],
                              accumulator_bytes=capacity[1])
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    space = _Space(nest, pe_width)
    try:
        ref = _kept_reference(nest, accel, n, ref_rng)
    except InfeasibleConfigError:
        with pytest.raises(InfeasibleConfigError):
            _draw_valid(space, _valid_mask(space, accel), n, rng)
        with pytest.raises(InfeasibleConfigError):
            sample_costs(nest, accel, n, seed)
    else:
        batch = space.batch(*_draw_valid(space, _valid_mask(space, accel), n, rng))
        assert np.array_equal(batch.spatial, ref.spatial)
        assert np.array_equal(batch.tiles, ref.tiles)
        assert np.array_equal(batch.perm_idx, ref.perm_idx)
        lat, en = sample_costs(nest, accel, n, seed)
        want_lat, want_en = _eval_batch(ref, accel)[:2]
        assert lat.tobytes() == want_lat.tobytes()
        assert en.tobytes() == want_en.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    want = _random_mapping_reference(nest, accel, seed)
    if want is None:
        with pytest.raises(InfeasibleConfigError):
            random_mapping(nest, accel, seed)
    else:
        assert random_mapping(nest, accel, seed) == want


def test_order_classes_are_consistent():
    for ndims, shape in ((3, (8, 8)), (6, (64, 16))):
        code, rep = _order_classes(ndims)
        assert _order_classes(ndims)[0] is code
        assert code.shape == (1 << ndims, math.factorial(ndims))
        assert rep.shape == shape
        masks = np.arange(1 << ndims)[:, None]
        # every perm's class has a representative, the lowest perm in it
        r = rep[masks, code]
        assert (r >= 0).all() and (r <= np.arange(code.shape[1])).all()
        assert np.array_equal(code[masks, r], code)
        # with no loop iterating, every order is one class
        assert (code[0] == code[0, 0]).all()
        with pytest.raises(ValueError):
            code[0, 0] = 1


def _small_nests(W):
    r = random.Random(W)
    nests = [matmul_nest(r.randint(1, 24), r.randint(1, 24), r.randint(1, 24))
             for _ in range(4)]
    nests += [conv_nest(Conv(r.choice((1, 3)), r.randint(1, 4), r.randint(1, 4),
                             r.randint(1, 4), r.randint(1, 4), stride=r.randint(1, 2)))
              for _ in range(2)]
    return nests


@pytest.mark.parametrize("W", [2, 4, 6, 8])
def test_every_order_costs_what_its_class_representative_costs(W):
    accel = AcceleratorConfig(pe_width=W)
    for nest in _small_nests(W):
        space = _Space(nest, W)
        code, rep = _order_classes(len(nest.names))
        nperm = code.shape[1]
        for lo in range(0, space.size, max(1, 40_000 // nperm)):
            t = np.repeat(np.arange(lo, min(space.size, lo + 40_000 // nperm)), nperm)
            p = np.tile(np.arange(nperm), len(t) // nperm)
            every = _eval_batch(space.batch(t, p), accel)
            keys = t * rep.shape[1] + code[space.iter_mask[t], p]
            for got, want in zip(_eval_batch(_class_batch(space, keys), accel), every):
                assert got.tobytes() == want.tobytes(), nest


def test_perm_table_is_shared_and_read_only():
    table = _perm_table(3)
    assert _perm_table(3) is table
    with pytest.raises(ValueError):
        table[0, 0] = 5
    assert _perm_table(3)[0].tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_mapspace_size_small(accel):
    # 3 spatial divisor choices^2 dims x tile divisor combos x 3! orders
    assert mapspace_size(SMALL, accel) == 2904


def test_mapspace_size_named(accel):
    assert mapspace_size(NAMED_NESTS["bert.mha"], accel) == 302400
    assert mapspace_size(NAMED_NESTS["bert.qk"], accel) == 67200
    assert mapspace_size(NAMED_NESTS["resnet.c3"], accel) == 18432000


def test_exhaustive_best_frozen(accel):
    m, rep = exhaustive_best(SMALL, accel)
    assert m.spatial == (2, 1, 8)
    assert m.tiles == (4, 8, 8)
    assert m.dram_perm == ("k", "m", "n")
    assert rep.latency == 64.0
    assert rep.energy == 42368.0
    assert rep.edp == 2711552.0
    assert validate(m, accel) == []


@pytest.mark.parametrize("W", [2, 4, 6, 8])
def test_exhaustive_best_matches_every_mapping(W):
    """The minimum over every valid (tile vector, DRAM perm), each costed by
    the kernel, ties broken on the encoding."""
    for caps in ((256 * 1024, 64 * 1024), (512, 128)):
        accel = AcceleratorConfig(pe_width=W, scratchpad_bytes=caps[0],
                                  accumulator_bytes=caps[1])
        for nest in _small_nests(W)[::2]:
            space = _Space(nest, W)
            nperm = math.factorial(len(nest.names))
            t = np.repeat(np.flatnonzero(_valid_mask(space, accel)), nperm)
            p = np.tile(np.arange(nperm), len(t) // nperm)
            lat, en, dram, compute = _eval_batch(space.batch(t, p), accel)
            edp = lat * en
            _, i = min((space.mapping(t[i], p[i]).encode(), i)
                       for i in np.flatnonzero(edp == edp.min()).tolist())
            m, rep = exhaustive_best(nest, accel)
            assert m == space.mapping(t[i], p[i]), nest
            assert (rep.latency, rep.energy, rep.traffic["dram"]) == (lat[i], en[i], dram[i])


def test_exhaustive_lower_bounds_sampling(accel):
    _, rep = exhaustive_best(SMALL, accel)
    lats, ens = sample_costs(SMALL, accel, 500, seed=1)
    assert (lats * ens).min() >= rep.edp


def test_exhaustive_guard(accel, monkeypatch):
    # 1,944,000 tile vectors x 8 loop-order classes = 15,552,000 rows at
    # W=16, above the 10**7 guard; the count needs no tile vector built
    nest = matmul_nest(5040, 5040, 5040)
    with pytest.raises(MapspaceTooLargeError, match="15552000 rows"):
        exhaustive_best(nest, accel)

    def no_space(*args):
        raise AssertionError("_Space built before the guard")

    monkeypatch.setattr("tfperf.mapspace._Space", no_space)
    with pytest.raises(MapspaceTooLargeError):
        exhaustive_best(nest, accel)


def test_divisors_match_trial_division():
    for x in (*range(1, 3000), 5040, 720720):
        assert _divisors(x) == tuple(d for d in range(1, x + 1) if x % d == 0), x


def test_exhaustive_best_large_extent_budget(accel):
    # a 10**7 extent has only 64 divisors; finding them must not cost a
    # pass over all 10**7 candidates
    _divisors.cache_clear()
    _tile_choices.cache_clear()
    t0 = time.monotonic()
    m, _ = exhaustive_best(matmul_nest(10 ** 7, 64, 64), accel)
    elapsed = time.monotonic() - t0
    assert (m.spatial, m.tiles, m.dram_perm) == ((8, 1, 16), (8, 64, 64), ("k", "m", "n"))
    assert elapsed < 0.25, elapsed


def test_exhaustive_best_resnet_c3(accel):
    # 25,600 tile vectors x 16 classes = 409,600 rows bound the search; the
    # sampled minimum over 300k mappings reaches the optimum here
    nest = NAMED_NESTS["resnet.c3"]
    m, rep = exhaustive_best(nest, accel)
    assert validate(m, accel) == []
    lats, ens = sample_costs(nest, accel, 300_000, seed=0)
    assert rep.edp <= (lats * ens).min()
    assert exhaustive_best(nest, accel) == (m, rep)


# ---------------------------------------------------------------------------
# Reports built from the kernel row
# ---------------------------------------------------------------------------

# exhaustive_best and random_mapping + evaluate results, captured from the
# code that recomputed each report's DRAM bytes and compute-bound flag in a
# separate Python copy of the traffic rules. Floats are stored as float.hex().
EVALUATE_GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "evaluate_goldens.json").read_text())


def _golden_nest(spec):
    if "matmul" in spec:
        return matmul_nest(*spec["matmul"])
    return conv_nest(Conv(*spec["conv"], stride=spec["stride"]))


def _assert_matches_golden(m, rep, want):
    assert m.spatial == tuple(want["spatial"])
    assert m.tiles == tuple(want["tiles"])
    assert m.dram_perm == tuple(want["dram_perm"])
    assert rep.latency.hex() == want["latency"]
    assert rep.energy.hex() == want["energy"]
    assert rep.traffic == {"dram": float.fromhex(want["dram"])}
    assert rep.compute_bound is want["compute_bound"]


@pytest.mark.parametrize("case", EVALUATE_GOLDENS["cases"],
                         ids=lambda c: f"{c['nest']}-{c['accel']}")
def test_exhaustive_and_evaluate_match_goldens(case):
    accel = AcceleratorConfig(**EVALUATE_GOLDENS["accels"][case["accel"]]).check()
    nest = _golden_nest(EVALUATE_GOLDENS["nests"][case["nest"]])
    _assert_matches_golden(*exhaustive_best(nest, accel), case["exhaustive"])
    for want in case["random"]:
        m = random_mapping(nest, accel, want["seed"])
        _assert_matches_golden(m, evaluate(m, accel), want)


# ---------------------------------------------------------------------------
# MAC matching
# ---------------------------------------------------------------------------

def test_matched_mac_dims():
    # 7x7 stem conv at its 56x56 post-pool output: 29.5M MACs
    stem = OperatorSpec("t", OperatorClass.Convolution, Conv(7, 3, 64, 56, 56))
    assert matched_mac_dims(stem, 512) == (240, 120)
    d, dff = matched_mac_dims(stem, 512)
    assert abs(d * d * 512 - 29503488) / 29503488 < 0.01
    assert abs(4 * dff * dff * 512 - 29503488) / 29503488 < 0.01
    with pytest.raises(TypeError):
        matched_mac_dims(
            OperatorSpec("t", OperatorClass.FfnProjection, Matmul(8, 8, 8)), 512)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_mapping_always_valid(seed):
    accel = accel_preset("gemmini-baseline")
    nest = NAMED_NESTS["bert.qk"]
    m = random_mapping(nest, accel, seed)
    assert validate(m, accel) == []


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 24), k=st.integers(1, 24), n=st.integers(1, 24),
       seed=st.integers(0, 1000))
def test_sampled_costs_positive(m, k, n, seed):
    accel = accel_preset("gemmini-baseline")
    lats, ens = sample_costs(matmul_nest(m, k, n), accel, 16, seed)
    assert (lats > 0).all() and (ens > 0).all()
