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

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import _kernels
from .hwmodel import AcceleratorConfig, CostReport, InfeasibleConfigError, _out_bytes, _pad
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
    return tuple(d for d in range(1, x + 1) if x % d == 0)


@lru_cache(maxsize=None)
def _tile_choices(extent: int, s: int) -> tuple[int, ...]:
    p = _pad(extent, s)
    return tuple(d for d in _divisors(p) if d % s == 0)


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
# Batch sampling (array-of-mappings form shared with the kernels)
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
    """Column arrays for n sampled mappings of one nest."""

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

    def take(self, idx: np.ndarray) -> "_Batch":
        """The mappings at columns idx, in that order."""
        out = _Batch(self.nest, 0)
        out.spatial = self.spatial[:, idx]
        out.tiles = self.tiles[:, idx]
        out.perm_idx = self.perm_idx[idx]
        return out


def _sample_batch(nest: LoopNest, accel: AcceleratorConfig, n: int,
                  rng: np.random.Generator) -> _Batch:
    """n candidate mappings drawn uniformly (not yet validity-filtered)."""
    sdivs = _divisors(accel.pe_width)
    sdiv_arr = np.array(sdivs, dtype=np.int64)
    batch = _Batch(nest, n)
    sdims = nest.spatial_dims
    for d, (name, ext) in enumerate(nest.dims):
        if name not in sdims:  # spatial factor 1: one tile choice set
            choices = np.array(_tile_choices(ext, 1), dtype=np.int64)
            batch.tiles[d] = choices[rng.integers(0, len(choices), size=n)]
            continue
        j = rng.integers(0, len(sdivs), size=n)
        batch.spatial[d] = sdiv_arr[j]
        # tile choice sets depend on the spatial factor: draw per factor in
        # ascending order, then scatter each group to its rows in row order
        drawn = np.empty(n, dtype=np.int64)
        start = 0
        for s, c in zip(sdivs, np.bincount(j, minlength=len(sdivs)).tolist()):
            if c:
                choices = np.array(_tile_choices(ext, s), dtype=np.int64)
                drawn[start:start + c] = choices[rng.integers(0, len(choices), size=c)]
                start += c
        # a narrow key lets the stable sort use radix sort; the order is the same
        key = j.astype(np.min_scalar_type(len(sdivs) - 1))
        batch.tiles[d, np.argsort(key, kind="stable")] = drawn
    nperm = math.factorial(len(nest.names))
    batch.perm_idx = rng.integers(0, nperm, size=n)
    return batch


def _valid_mask(batch: _Batch, accel: AcceleratorConfig) -> np.ndarray:
    f1, f2, facc = _footprints(batch.nest, batch.tiles)
    half = accel.scratchpad_bytes // 2
    return (f1 <= half) & (f2 <= half) & (facc <= accel.accumulator_bytes // 2)


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


def _mapping_from_batch(batch: _Batch, i: int) -> Mapping:
    return Mapping(
        nest=batch.nest,
        spatial=tuple(int(x) for x in batch.spatial[:, i]),
        tiles=tuple(int(x) for x in batch.tiles[:, i]),
        dram_perm=_dram_perms(batch.nest.names)[int(batch.perm_idx[i])],
    )


def _report(lat, en, dram, compute, accel: AcceleratorConfig) -> CostReport:
    """CostReport of one kernel row, compute-bound by hwmodel.op_latency's rule."""
    return CostReport(latency=float(lat), energy=float(en),
                      traffic=MappingProxyType({"dram": float(dram)}),
                      compute_bound=bool(compute >= dram / accel.dram_bw))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

_MAX_REJECTION_ROUNDS = 64


def random_mapping(nest: LoopNest, accel: AcceleratorConfig, seed: int) -> Mapping:
    """One uniformly sampled valid mapping; deterministic per seed."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_REJECTION_ROUNDS):
        batch = _sample_batch(nest, accel, 64, rng)
        ok = _valid_mask(batch, accel)
        idx = np.flatnonzero(ok)
        if len(idx):
            return _mapping_from_batch(batch, int(idx[0]))
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
    return _report(*(col[0] for col in _eval_batch(batch, accel)), accel)


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


def sample_costs(nest: LoopNest, accel: AcceleratorConfig, n: int, seed: int):
    """(latency, energy) arrays over n uniformly sampled valid mappings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    lats = np.empty(n, dtype=np.float64)
    ens = np.empty(n, dtype=np.float64)
    got = 0
    for _ in range(_MAX_REJECTION_ROUNDS):
        need = n - got
        if need == 0:
            break
        batch = _sample_batch(nest, accel, max(need * 2, 1024), rng)
        # the kernels are elementwise, so costing only the kept columns gives
        # each of them the same latency and energy as costing the whole batch
        keep = np.flatnonzero(_valid_mask(batch, accel))[:need]
        if not len(keep):
            continue
        batch = batch.take(keep)  # drops the rest of the draw before the kernels run
        lat, en = _eval_batch(batch, accel)[:2]
        lats[got:got + len(keep)] = lat
        ens[got:got + len(keep)] = en
        got += len(keep)
    if got < n:
        raise InfeasibleConfigError(
            f"could not draw {n} valid mappings for {nest.names}")
    return lats, ens


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
    W = accel.pe_width
    sdims = nest.spatial_dims
    total = 0
    spatial_sets = []
    for name, ext in nest.dims:
        spatial_sets.append(_divisors(W) if name in sdims else (1,))
    for svec in itertools.product(*spatial_sets):
        combos = 1
        for (name, ext), s in zip(nest.dims, svec):
            combos *= len(_tile_choices(ext, s))
        total += combos
    return total * math.factorial(len(nest.names))


_EXHAUSTIVE_GUARD = 10 ** 7


def exhaustive_best(nest: LoopNest, accel: AcceleratorConfig):
    """Enumerate every valid mapping; return (Mapping, CostReport) of the
    minimum-EDP one, ties broken lexicographically on the mapping encoding."""
    size = mapspace_size(nest, accel)
    if size > _EXHAUSTIVE_GUARD:
        raise MapspaceTooLargeError(
            f"mapspace has ~{size} mappings, above the {_EXHAUSTIVE_GUARD} guard")
    W = accel.pe_width
    sdims = nest.spatial_dims
    ndim = len(nest.names)
    spatial_sets = [(_divisors(W) if name in sdims else (1,)) for name, _ in nest.dims]

    best_key = None
    best_mapping = None
    best_row = None
    nperm = math.factorial(ndim)
    perms = _dram_perms(nest.names)
    for svec in itertools.product(*spatial_sets):
        tile_sets = [_tile_choices(ext, s) for (_, ext), s in zip(nest.dims, svec)]
        tiles = np.array(list(itertools.product(*tile_sets)), dtype=np.int64)
        if not len(tiles):
            continue
        nt = len(tiles)
        batch = _Batch(nest, nt * nperm)
        batch.spatial[:] = np.array(svec, dtype=np.int64)[:, None]
        batch.tiles[:] = np.repeat(tiles.T, nperm, axis=1)
        batch.perm_idx[:] = np.tile(np.arange(nperm, dtype=np.int64), nt)
        ok = _valid_mask(batch, accel)
        if not ok.any():
            continue
        rows = _eval_batch(batch, accel)
        edp = rows[0] * rows[1]
        edp[~ok] = np.inf
        i = int(np.argmin(edp))
        # lexicographic tie-break over equal-EDP candidates' encodings, whose
        # spatial entry is the batch's own
        ties = np.flatnonzero(edp == edp[i])
        *_, i = min(zip(batch.tiles[:, ties].T.tolist(),
                        [perms[p] for p in batch.perm_idx[ties].tolist()], ties.tolist()))
        m = _mapping_from_batch(batch, i)
        key = (float(edp[i]), m.encode())
        if best_key is None or key < best_key:
            best_key = key
            best_mapping = m
            best_row = tuple(col[i] for col in rows)
    if best_mapping is None:
        raise InfeasibleConfigError("no valid mapping in the exhaustive space")
    return best_mapping, _report(*best_row, accel)


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
