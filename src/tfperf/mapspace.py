"""Mapping spaces for matmul and convolution loop nests.

A mapping assigns, per loop dimension: a spatial factor (PE rows for the
first spatial dim, PE columns for the second), a local tile size, and a DRAM
loop position. Tile sizes are drawn from divisors of the padded extent that
are multiples of the spatial factor, so every factorization is exact.

Costing follows the usual analytical-mapper traffic rules: an operand is
re-fetched each time an irrelevant outer loop above an iterating relevant
loop advances; partial outputs spill at 4-byte precision whenever a
reduction loop iterates above an iterating output loop.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import _kernels
from .hwmodel import (AcceleratorConfig, CostReport, InfeasibleConfigError, _out_bytes, _pad,
                      _report)
from .workload import Conv, Matmul, OperatorSpec, _in_bytes

MATMUL_DIMS = ("m", "k", "n")
CONV_DIMS = ("oc", "ic", "kh", "kw", "oh", "ow")


class MapspaceTooLargeError(ValueError):
    """Exhaustive enumeration would exceed the size guard."""


@dataclass(frozen=True)
class LoopNest:
    dims: tuple[tuple[str, int], ...]
    stride: int = 1  # conv nests only
    # bytes per element of the M x K operand (a conv's input), the K x N
    # operand (a conv's weights) and the output
    precisions: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        names = [n for n, _ in self.dims]
        if len(set(names)) != len(names):
            raise ValueError("duplicate dim names")
        if any(e < 1 for _, e in self.dims):
            raise ValueError("extents must be >= 1")
        if tuple(names) not in (MATMUL_DIMS, CONV_DIMS):
            raise ValueError(f"dims must be {MATMUL_DIMS} or {CONV_DIMS}, got {names}")
        p = self.precisions
        if not (isinstance(p, tuple) and len(p) == 3 and all(
                isinstance(b, int) and not isinstance(b, bool) and b >= 1 for b in p)):
            raise ValueError(f"precisions must be three ints >= 1, got {p!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.dims)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.dims)

    @property
    def is_conv(self) -> bool:
        return self.names == CONV_DIMS

    @property
    def spatial_dims(self) -> tuple[str, str]:
        # PE rows get m / out_ch, PE columns get n / in_ch
        return ("m", "n") if not self.is_conv else ("oc", "ic")


def matmul_nest(M: int, K: int, N: int) -> LoopNest:
    return LoopNest((("m", M), ("k", K), ("n", N)))


def conv_nest(conv: Conv) -> LoopNest:
    return LoopNest((("oc", conv.out_ch), ("ic", conv.in_ch),
                     ("kh", conv.kernel), ("kw", conv.kernel),
                     ("oh", conv.out_h), ("ow", conv.out_w)), stride=conv.stride)


def nest_of(op: OperatorSpec) -> LoopNest:
    """The op's loop nest, at the operand and drain widths `hwmodel` costs it at."""
    if isinstance(op.kind, Matmul):
        nest = matmul_nest(op.kind.M, op.kind.K, op.kind.N)
    elif isinstance(op.kind, Conv):
        nest = conv_nest(op.kind)
    else:
        raise TypeError(f"no loop nest for {type(op.kind).__name__}")
    return replace(nest, precisions=(*_in_bytes(op), _out_bytes(op)))


NAMED_NESTS = {
    "bert.mha": matmul_nest(768, 768, 512),
    "bert.qk": matmul_nest(512, 64, 512),
    "resnet.c3": conv_nest(Conv(3, 512, 512, 7, 7)),
}


@dataclass(frozen=True)
class Mapping:
    nest: LoopNest
    spatial: tuple[int, ...]    # factor per dim; 1 on non-spatial dims
    tiles: tuple[int, ...]      # local tile size per dim (multiple of spatial)
    dram_perm: tuple[str, ...]  # outermost .. innermost

    def encode(self) -> tuple:
        return (self.spatial, self.tiles, self.dram_perm)


@lru_cache(maxsize=None)
def _divisors(x: int) -> tuple[int, ...]:
    """The divisors of x in ascending order: each d up to sqrt(x) with x // d."""
    low = [d for d in range(1, math.isqrt(x) + 1) if x % d == 0]
    return tuple(low + [x // d for d in reversed(low) if d * d != x])


@lru_cache(maxsize=None)
def _tile_choices(extent: int, s: int) -> tuple[int, ...]:
    p = _pad(extent, s)
    return tuple(d for d in _divisors(p) if d % s == 0)


def _dim_combos(nest: LoopNest, pe_width: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Per dim, its (spatial factor, tile choices) pairs: the divisors of
    `pe_width` in ascending order (1 alone on a non-spatial dim), each with
    its tile choices in ascending order. Each (factor, tile choice) is one of
    the dim's combos."""
    return [tuple((s, _tile_choices(ext, s))
                  for s in (_divisors(pe_width) if name in nest.spatial_dims else (1,)))
            for name, ext in nest.dims]


def _tile_vectors(nest: LoopNest, pe_width: int) -> int:
    """How many tile vectors the nest has: its dims' combo counts multiplied."""
    return math.prod(sum(len(c) for _, c in combos) for combos in _dim_combos(nest, pe_width))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _footprints(nest: LoopNest, t):
    """(scratchpad-operand-1, scratchpad-operand-2, accumulator) tile bytes.

    t holds one tile size per dim in nest order: ints for one mapping, or
    arrays for a batch."""
    act_b, w_b, out_b = nest.precisions
    if nest.is_conv:
        st = nest.stride
        ih = (t[4] - 1) * st + t[2]
        iw = (t[5] - 1) * st + t[3]
        return (t[0] * t[1] * t[2] * t[3] * w_b,
                t[1] * ih * iw * act_b,
                t[0] * t[4] * t[5] * out_b)
    return t[0] * t[1] * act_b, t[1] * t[2] * w_b, t[0] * t[2] * out_b


def validate(m: Mapping, accel: AcceleratorConfig) -> list[str]:
    """Empty list when valid; otherwise one message per violated constraint."""
    nest = m.nest
    ndim = len(nest.names)
    out = [f"{label} has {len(v)} entries for {ndim} dims"
           for label, v in (("spatial", m.spatial), ("tiles", m.tiles)) if len(v) != ndim]
    if out:
        return out
    W = accel.pe_width
    sdims = nest.spatial_dims
    for name, ext, s, t in zip(nest.names, nest.extents, m.spatial, m.tiles):
        if name in sdims:
            if s < 1 or W % s != 0:
                out.append(f"spatial factor {s} on {name} not a divisor of W={W}")
        elif s != 1:
            out.append(f"spatial factor on non-spatial dim {name}")
        if s < 1:
            continue  # no padded extent to check the tile against
        p = _pad(ext, s)
        if t % s != 0:
            out.append(f"tile {t} on {name} not a multiple of spatial {s}")
        if t < 1 or p % t != 0:
            out.append(f"tile {t} on {name} does not divide padded extent {p}")
    if not isinstance(m.dram_perm, tuple):
        out.append("dram permutation must be a tuple of dim names")
    elif sorted(m.dram_perm) != sorted(nest.names):
        out.append("dram permutation is not a bijection over dims")
    f1, f2, facc = _footprints(nest, m.tiles)
    half = accel.scratchpad_bytes // 2
    if f1 > half:
        out.append(f"operand-1 tile {f1} B exceeds scratchpad half {half} B")
    if f2 > half:
        out.append(f"operand-2 tile {f2} B exceeds scratchpad half {half} B")
    if facc > accel.accumulator_bytes // 2:
        out.append(f"output tile {facc} B exceeds accumulator half "
                   f"{accel.accumulator_bytes // 2} B")
    return out


# ---------------------------------------------------------------------------
# Batch form (column arrays shared with the kernels)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perm_table(ndims: int) -> np.ndarray:
    """All permutations as a (n!, ndims) position table: row p, column d =
    position of dim d in permutation p. Shared by every caller, so read-only."""
    perms = list(itertools.permutations(range(ndims)))
    table = np.empty((len(perms), ndims), dtype=np.int64)
    for i, perm in enumerate(perms):
        for pos, d in enumerate(perm):
            table[i, d] = pos
    table.setflags(write=False)
    return table


class _Batch:
    """Column arrays for n mappings of one nest."""

    def __init__(self, nest: LoopNest, n: int):
        self.nest = nest
        d = len(nest.names)
        self.spatial = np.ones((d, n), dtype=np.int64)
        self.tiles = np.ones((d, n), dtype=np.int64)
        self.perm_idx = np.zeros(n, dtype=np.int64)

    def padded(self) -> np.ndarray:
        return _pad(np.array(self.nest.extents, dtype=np.int64)[:, None], self.spatial)

    def positions(self) -> np.ndarray:
        return _perm_table(len(self.nest.names))[self.perm_idx].T.copy()


def _valid_mask(batch, accel: AcceleratorConfig) -> np.ndarray:
    """Capacity check of a `_Batch` (one entry per mapping) or a `_Space`
    (one entry per tile vector, in index order)."""
    f1, f2, facc = _footprints(batch.nest, batch.tiles)
    half = accel.scratchpad_bytes // 2
    return ((f1 <= half) & (f2 <= half) & (facc <= accel.accumulator_bytes // 2)).ravel()


def _eval_batch(batch: _Batch, accel: AcceleratorConfig):
    """Kernel arrays (lat, en, dram, compute) over every mapping of the batch."""
    act_b, w_b, out_b = batch.nest.precisions
    P = batch.padded()
    pos = batch.positions()
    if batch.nest.is_conv:
        return _kernels.conv_eval(
            P, batch.spatial[0], batch.spatial[1], batch.tiles, pos,
            batch.nest.stride, act_b, w_b, out_b, accel.pe_width, accel.dram_bw,
            accel.energy)
    return _kernels.matmul_eval(
        P[0], P[1], P[2], batch.spatial[0], batch.spatial[2],
        batch.tiles[0], batch.tiles[1], batch.tiles[2],
        pos[0], pos[1], pos[2],
        act_b, w_b, out_b, accel.pe_width, accel.dram_bw, accel.energy)


@lru_cache(maxsize=None)
def _dram_perms(names: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """DRAM loop orders in perm_idx order (the row order of _perm_table)."""
    return tuple(itertools.permutations(names))


# ---------------------------------------------------------------------------
# Loop-order classes
# ---------------------------------------------------------------------------
# A kernel reads the DRAM loop order only through its loop-order rule, whose
# result depends on which loops iterate (the bits of an iterating mask) and on
# the order. Orders with the same result on a mask form a class, and every
# order of a class costs the same on every tile vector with that mask.

@lru_cache(maxsize=None)
def _order_classes(ndims: int) -> tuple[np.ndarray, np.ndarray]:
    """(code, rep): code[mask, p] is the class of DRAM perm p under iterating
    mask `mask` (bit d set when dim d's loop iterates), the order rule's
    booleans packed as bits; rep[mask, c] is the lowest perm of class c, or -1
    if no perm reaches it. Shared by every caller, so read-only."""
    pos = _perm_table(ndims)
    masks = np.arange(1 << ndims)
    it = [(masks[:, None] >> d & 1).astype(bool) for d in range(ndims)]
    at = [pos[None, :, d] for d in range(ndims)]
    bits = (_kernels.conv_order(it, at) if ndims == len(CONV_DIMS)
            else _kernels.matmul_order(*it, *at))
    code = sum(b.astype(np.int64) << i for i, b in enumerate(bits))
    nclass = 1 << len(bits)
    first_keys, first = np.unique(masks[:, None] * nclass + code, return_index=True)
    rep = np.full((len(masks), nclass), -1, dtype=np.int64)
    rep.flat[first_keys] = first % len(pos)
    code.setflags(write=False)
    rep.setflags(write=False)
    return code, rep


class _Space:
    """Every tile vector of one nest at one PE width, numbered.

    Per dim, a combo is one (spatial factor, tile size) pair, numbered in
    `_dim_combos` order. Tile vector t is the mixed-radix number of its dims'
    combo ids, dim 0 most significant, so a nest has `_tile_vectors` of them.
    `tiles` holds each dim's tile sizes on that dim's axis, so `_footprints`
    broadcasts them over every tile vector.
    """

    def __init__(self, nest: LoopNest, pe_width: int):
        self.nest = nest
        nd = len(nest.dims)
        self.spatial, self.tiles, self.groups, iterating = [], [], [], []
        for d, (ext, combos) in enumerate(zip(nest.extents, _dim_combos(nest, pe_width))):
            factors, choices = zip(*combos)
            lens = [len(c) for c in choices]
            # (first combo id, number of tile choices) per spatial factor
            self.groups.append(tuple(zip(itertools.accumulate([0] + lens), lens)))
            shape = [1] * nd
            shape[d] = -1
            tiles = np.concatenate(choices).reshape(shape)
            padded = np.repeat([_pad(ext, s) for s in factors], lens).reshape(shape)
            self.spatial.append(np.repeat(factors, lens))
            self.tiles.append(tiles)
            iterating.append(((padded // tiles > 1) << d).astype(np.uint8))
        self.sizes = tuple(t.size for t in self.tiles)
        self.size = math.prod(self.sizes)
        # each tile vector's iterating mask (bit d set when dim d's loop
        # iterates), in index order
        self.iter_mask = functools.reduce(np.bitwise_or, iterating).ravel()

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """n (tile vector, DRAM perm) indices drawn uniformly per dim.

        Per dim, a spatial dim first draws its factor's index; then the tile
        choices are drawn per factor in ascending order and scattered to
        their rows in row order. The perms come last."""
        sdims = self.nest.spatial_dims
        for d, name in enumerate(self.nest.names):
            groups = self.groups[d]
            if name not in sdims:  # spatial factor 1: one tile choice set
                combo = rng.integers(0, groups[0][1], size=n)
            else:
                j = rng.integers(0, len(groups), size=n)
                drawn = np.empty(n, dtype=np.int64)
                start = 0
                for (first, k), c in zip(groups, np.bincount(j, minlength=len(groups)).tolist()):
                    if c:
                        np.add(rng.integers(0, k, size=c), first, out=drawn[start:start + c])
                        start += c
                # a narrow key lets the stable sort use radix sort; the order is the same
                combo = np.empty(n, dtype=np.int64)
                combo[np.argsort(j.astype(np.min_scalar_type(len(groups) - 1)),
                                 kind="stable")] = drawn
            if d:  # mixed radix, dim 0 most significant
                t *= self.sizes[d]
                t += combo
            else:
                t = combo
        return t, rng.integers(0, math.factorial(len(self.sizes)), size=n)

    def batch(self, t: np.ndarray, perm_idx: np.ndarray) -> _Batch:
        """The mappings (t[i], perm_idx[i]) as kernel columns."""
        out = _Batch(self.nest, 0)
        combos = np.unravel_index(t, self.sizes)
        out.spatial = np.array([s[c] for s, c in zip(self.spatial, combos)])
        out.tiles = np.array([x.ravel()[c] for x, c in zip(self.tiles, combos)])
        out.perm_idx = perm_idx
        return out

    def mapping(self, t: int, perm_idx: int) -> Mapping:
        b = self.batch(np.array([t]), np.array([perm_idx]))
        return Mapping(nest=self.nest, spatial=tuple(b.spatial[:, 0].tolist()),
                       tiles=tuple(b.tiles[:, 0].tolist()),
                       dram_perm=_dram_perms(self.nest.names)[int(perm_idx)])


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

_MAX_REJECTION_ROUNDS = 64


def random_mapping(nest: LoopNest, accel: AcceleratorConfig, seed: int) -> Mapping:
    """One uniformly sampled valid mapping; deterministic per seed."""
    rng = np.random.default_rng(seed)
    space = _Space(nest, accel.pe_width)
    valid = _valid_mask(space, accel)
    for _ in range(_MAX_REJECTION_ROUNDS):
        t, p = space.draw(64, rng)
        idx = np.flatnonzero(valid[t])
        if len(idx):
            return space.mapping(t[idx[0]], p[idx[0]])
    raise InfeasibleConfigError(
        f"no valid mapping found for {nest.names} under the given capacities")


def evaluate(m: Mapping, accel: AcceleratorConfig) -> CostReport:
    """Cost one mapping (rejects invalid ones)."""
    bad = validate(m, accel)
    if bad:
        raise InfeasibleConfigError("invalid mapping: " + "; ".join(bad))
    batch = _Batch(m.nest, 1)
    batch.spatial[:, 0] = m.spatial
    batch.tiles[:, 0] = m.tiles
    batch.perm_idx[0] = _dram_perms(m.nest.names).index(m.dram_perm)
    lat, en, dram, compute = (col[0] for col in _eval_batch(batch, accel))
    return _report(lat, en, {"dram": float(dram)}, compute, accel)


@dataclass(frozen=True)
class MapspaceStats:
    n_samples: int
    min_edp: float
    relative_edps: np.ndarray  # in sampling order
    cdf: np.ndarray            # sorted ascending
    p10: float

    @property
    def spread(self) -> float:
        return float(self.cdf[-1])

    def frac_within(self, k: float) -> float:
        return float(np.count_nonzero(self.relative_edps < k)) / self.n_samples


def _class_batch(space: _Space, keys: np.ndarray) -> _Batch:
    """One mapping per class key t * nclass + c: tile vector t with the
    lowest DRAM perm of class c under t's iterating mask."""
    _, rep = _order_classes(len(space.sizes))
    t, c = np.divmod(keys, rep.shape[1])
    return space.batch(t, rep[space.iter_mask[t], c])


def _draw_valid(space: _Space, valid: np.ndarray, n: int, rng: np.random.Generator):
    """(t, perm_idx) of n valid mappings: each rejection round draws
    `max(need * 2, 1024)` mappings and keeps the first `need` valid ones."""
    ts, ps = [], []
    got = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        need = n - got
        if need == 0:
            break
        t, p = space.draw(max(need * 2, 1024), rng)
        keep = np.flatnonzero(valid[t])[:need]
        ts.append(t[keep])
        ps.append(p[keep])
        got += len(keep)
    if got < n:
        raise InfeasibleConfigError(
            f"could not draw {n} valid mappings for {space.nest.names}")
    return np.concatenate(ts), np.concatenate(ps)


def sample_costs(nest: LoopNest, accel: AcceleratorConfig, n: int, seed: int):
    """(latency, energy) arrays over n uniformly sampled valid mappings.

    A mapping costs what its loop-order class costs on its tile vector, so
    each distinct (tile vector, class) pair drawn is costed once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    space = _Space(nest, accel.pe_width)
    t, p = _draw_valid(space, _valid_mask(space, accel), n, np.random.default_rng(seed))
    code, rep = _order_classes(len(nest.names))
    nclass = rep.shape[1]
    keys = t * nclass + code[space.iter_mask[t], p]
    # distinct keys in ascending order, and each row's rank among them
    seen = np.zeros(space.size * nclass, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen)
    rank = np.empty(len(seen), dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    lat, en = _eval_batch(_class_batch(space, distinct), accel)[:2]
    rows = rank[keys]
    return lat[rows], en[rows]


def stats_from_costs(lats: np.ndarray, ens: np.ndarray) -> MapspaceStats:
    """EDP statistics over sampled (latency, energy) arrays."""
    n = len(lats)
    edps = lats * ens
    min_edp = float(edps.min())
    rel = edps / min_edp
    cdf = np.sort(rel)
    p10 = float(cdf[int(0.10 * (n - 1))])
    return MapspaceStats(n_samples=n, min_edp=min_edp, relative_edps=rel,
                         cdf=cdf, p10=p10)


def sample_stats(nest: LoopNest, accel: AcceleratorConfig, n: int, seed: int) -> MapspaceStats:
    """EDP statistics over n uniformly sampled valid mappings."""
    return stats_from_costs(*sample_costs(nest, accel, n, seed))


def mapspace_size(nest: LoopNest, accel: AcceleratorConfig) -> int:
    """Number of (spatial, tiling, DRAM-perm) combinations, before validity."""
    return _tile_vectors(nest, accel.pe_width) * math.factorial(len(nest.names))


_EXHAUSTIVE_GUARD = 10 ** 7  # rows: tile vectors x loop-order classes


def exhaustive_best(nest: LoopNest, accel: AcceleratorConfig):
    """Enumerate every valid mapping; return (Mapping, CostReport) of the
    minimum-EDP one, ties broken lexicographically on the mapping encoding.

    Each (valid tile vector, reachable loop-order class) is costed once; only
    the classes at the minimum EDP are expanded back to their DRAM perms. A
    nest whose tile vectors times classes, the most rows this can cost,
    exceed `_EXHAUSTIVE_GUARD` is refused before any of them is built."""
    code, rep = _order_classes(len(nest.names))
    nclass = rep.shape[1]
    vectors = _tile_vectors(nest, accel.pe_width)
    if vectors * nclass > _EXHAUSTIVE_GUARD:
        raise MapspaceTooLargeError(
            f"exhaustive search may cost {vectors * nclass} rows ({vectors} tile vectors x "
            f"{nclass} loop-order classes), above the {_EXHAUSTIVE_GUARD} guard")
    space = _Space(nest, accel.pe_width)
    t = np.flatnonzero(_valid_mask(space, accel))
    if not len(t):
        raise InfeasibleConfigError("no valid mapping in the exhaustive space")
    row, c = np.nonzero(rep[space.iter_mask[t]] >= 0)
    t = t[row]  # one row per (valid tile vector, reachable class)
    rows = _eval_batch(_class_batch(space, t * nclass + c), accel)
    edp = rows[0] * rows[1]
    tied = np.flatnonzero(edp == edp.min())
    # expand the tied classes to their perms; the least encoding wins, with
    # a DRAM perm ranked as a tuple of dim names
    which, perm = np.nonzero(code[space.iter_mask[t[tied]]] == c[tied, None])
    i = tied[which]
    cand = space.batch(t[i], perm)
    perms = _dram_perms(nest.names)
    name_rank = np.empty(len(perms), dtype=np.int64)
    name_rank[sorted(range(len(perms)), key=perms.__getitem__)] = np.arange(len(perms))
    best = np.lexsort((name_rank[perm], *cand.tiles[::-1], *cand.spatial[::-1]))[0]
    lat, en, dram, compute = (col[i[best]] for col in rows)
    return (space.mapping(t[i[best]], perm[best]),
            _report(lat, en, {"dram": float(dram)}, compute, accel))


def matched_mac_dims(conv: OperatorSpec, l: int) -> tuple[int, int]:
    """Transformer dims whose projection matmuls match a conv's MAC count.

    d: query projection d*d*l has the conv's MACs; d_ffn_hidden: an FFN pair
    with hidden size 4*d' (so 4*d'^2*l MACs) matches it.
    """
    k = conv.kind
    if not isinstance(k, Conv):
        raise TypeError("matched_mac_dims needs a Conv operator")
    macs = k.kernel * k.kernel * k.in_ch * k.out_ch * k.out_h * k.out_w * k.repetitions
    d = round(math.sqrt(macs / l))
    d_ffn = round(math.sqrt(macs / (l * 4.0)))
    return d, d_ffn
