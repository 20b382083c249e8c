"""Evolutionary hardware-aware architecture search with EDP objective.

Searches encoder architectures over layer count, model dim, and per-layer
head count / FFN dim. Each candidate is costed analytically on one
accelerator (sum of per-operator latency and energy, sequence length
`SEQ_LEN`) through a cost cache that keeps a table of encoder-layer costs,
built from three smaller tables of layer parts and, below them, operator
shapes; each round's candidates are costed in one array pass over the layer
table. Quality uses a parameter-count proxy. Evolution
retains the Pareto front (maximize quality, minimize EDP), kept with one
sorted sweep, and refills the population by mutating retained members
round-robin.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .hwmodel import (AcceleratorConfig, InfeasibleConfigError, OpCostTable, _left_sum,
                      _wide_flags, accel_preset, greedy_tiles, op_latency)
from .workload import (ConfigError, Conv, Matmul, Mode, ModelConfig, OperatorSpec,
                       check_keys, layer_ops_encoder)


@dataclass(frozen=True)
class SearchSpace:
    layer_counts: tuple = (3, 4, 5, 6)
    heads_per_layer: tuple = (4, 6, 8, 10, 12)
    model_dims: tuple = tuple(range(384, 769, 96))
    ffn_dims_per_layer: tuple = tuple(range(768, 3073, 128))

    def check(self) -> "SearchSpace":
        for name in ("layer_counts", "heads_per_layer", "model_dims", "ffn_dims_per_layer"):
            vals = getattr(self, name)
            if not vals or min(vals) < 1:
                raise ConfigError(f"search space {name} must be nonempty positive")
        # head dim floor(d/h) must stay >= 1 for every combo
        if min(self.model_dims) < max(self.heads_per_layer):
            raise ConfigError("smallest d must be >= largest h")
        return self


DEFAULT_SPACE = SearchSpace()


_SPACE_KEYS = ("layer_counts", "heads_per_layer", "model_dims", "ffn_dims_per_layer")


def space_from_json(doc: str | dict) -> SearchSpace:
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, dict):
        raise ConfigError("search space must be a JSON object")
    check_keys(data, _SPACE_KEYS, "search space")
    kw = {}
    for key in _SPACE_KEYS:
        if key in data:
            vals = data[key]
            # bool is an int subclass; JSON true must not pass as 1
            if (not isinstance(vals, (list, tuple))
                    or not all(type(v) is int for v in vals)):
                raise ConfigError(f"search space {key} must be a list of integers")
            kw[key] = tuple(sorted(vals))
    return SearchSpace(**kw).check()


@dataclass(frozen=True)
class Candidate:
    N: int
    d: int
    h: tuple
    d_FFN: tuple
    quality: float = math.nan
    edp: float = math.nan

    def encode(self) -> tuple:
        return (self.N, self.d) + tuple(self.h) + tuple(self.d_FFN)

    def check(self, space: SearchSpace) -> "Candidate":
        if len(self.h) != self.N or len(self.d_FFN) != self.N:
            raise ConfigError("per-layer lists must have length N")
        if (self.N not in space.layer_counts or self.d not in space.model_dims
                or any(v not in space.heads_per_layer for v in self.h)
                or any(v not in space.ffn_dims_per_layer for v in self.d_FFN)):
            raise ConfigError("candidate outside the search space")
        return self

    @property
    def evaluated(self) -> bool:
        return math.isfinite(self.quality) and math.isfinite(self.edp)


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _pick(rng: np.random.Generator, vals: tuple) -> int:
    return int(vals[rng.integers(len(vals))])


def sample_candidate(space: SearchSpace, seed) -> Candidate:
    space.check()
    rng = _rng(seed)
    n = _pick(rng, space.layer_counts)
    d = _pick(rng, space.model_dims)
    h = tuple(_pick(rng, space.heads_per_layer) for _ in range(n))
    dff = tuple(_pick(rng, space.ffn_dims_per_layer) for _ in range(n))
    return Candidate(n, d, h, dff)


def mutate(c: Candidate, p: float, seed, space: SearchSpace = DEFAULT_SPACE) -> Candidate:
    if not 0.0 <= p <= 1.0:
        raise ConfigError("mutation probability must be in [0, 1]")
    rng = _rng(seed)
    n = _pick(rng, space.layer_counts) if rng.random() < p else c.N
    d = _pick(rng, space.model_dims) if rng.random() < p else c.d
    h, dff = list(c.h[:n]), list(c.d_FFN[:n])
    while len(h) < n:  # N grew: fresh genes for the new layers
        h.append(_pick(rng, space.heads_per_layer))
        dff.append(_pick(rng, space.ffn_dims_per_layer))
    for i in range(n):
        if rng.random() < p:
            h[i] = _pick(rng, space.heads_per_layer)
        if rng.random() < p:
            dff[i] = _pick(rng, space.ffn_dims_per_layer)
    return Candidate(n, d, tuple(h), tuple(dff))


def baseline(space: SearchSpace = DEFAULT_SPACE) -> Candidate:
    n = max(space.layer_counts)
    return Candidate(n, max(space.model_dims),
                     (max(space.heads_per_layer),) * n,
                     (max(space.ffn_dims_per_layer),) * n)


def quality_proxy(c: Candidate) -> float:
    """Parameter count: four d*d attention matrices plus two FFN matrices per layer."""
    return float(sum(4 * c.d * c.d + 2 * c.d * f for f in c.d_FFN))


SEQ_LEN = 512  # the sequence length every candidate is costed at


def _layer_ops(i: int, d: int, h: int, f: int) -> list[OperatorSpec]:
    """Layer i's operators at model dim d, h heads and FFN dim f, built on a
    checked config of that layer's own d and f."""
    # base num_heads=1 always divides d; the real head count enters per layer
    cfg = ModelConfig(name="nas", num_layers=1, model_dim=d, num_heads=1, ffn_dim=f,
                      seq_len=SEQ_LEN, mode=Mode.Encoder).check()
    return layer_ops_encoder(cfg, i, heads=h, ffn_dim=f)


def candidate_ops(c: Candidate) -> list[OperatorSpec]:
    ops: list[OperatorSpec] = []
    for i in range(c.N):
        ops.extend(_layer_ops(i, c.d, c.h[i], c.d_FFN[i]))
    return ops


# A layer's operators in three parts, each keyed by what it depends on:
# wq, wk, wv, wout and add_ln1 on d; qk, softmax and sv on (d, h); w1, gelu,
# w2 and add_ln2 on (d, d_FFN). Each part starts with a matmul, so no
# wide-input flag crosses a part boundary.
_PARTS = ((0, 1, 2, 6, 7), (3, 4, 5), (8, 9, 10, 11))
_PART_COLUMNS = _PARTS[0] + _PARTS[1] + _PARTS[2]  # where each part's pairs go in a layer row


class CostCache(OpCostTable):
    """Lookup tables over operator, layer-part and encoder-layer costs on one
    accelerator (transparent).

    The operator table is hwmodel's `OpCostTable`: `cost` memoizes one
    operator's report by shape, and `hits` and `misses` count these
    operator lookups. Above it, each of the three parts of a layer (see
    `_PARTS`) keeps its operators' (latency, energy) pairs per key, so an
    operator is looked up only when its part is first built. `layers` maps
    (d, h, d_FFN) to a row of the layer tables `costs[0]` (latency) and
    `costs[1]` (energy), which hold a layer's 12 operator costs in operator
    order; row 0 is all zeros, and the tables grow by doubling. A cache
    lives for one search.
    """

    # bound on this class too, so that wrapping the search's operator
    # lookups leaves every other OpCostTable alone
    cost = OpCostTable.cost

    def __init__(self, accel: AcceleratorConfig):
        super().__init__(accel)
        self.layers: dict = {}
        self.costs = np.zeros((2, 64, len(_PART_COLUMNS)))
        self._parts: tuple[dict, dict, dict] = ({}, {}, {})

    def _layer(self, i: int, key: tuple) -> int:
        """The `costs` row of a candidate's layer `i`, whose (d, h, d_FFN) is
        `key`; a new row on the first call per key.

        Only the operators of parts not yet built are costed, in operator
        order, so a layer that fails raises at its config check or at its
        first failing operator, under that operator's name. Nothing of a
        failed layer is stored.
        """
        d, h, f = key
        part_keys = (d, (d, h), (d, f))
        missing = [p for p in range(3) if part_keys[p] not in self._parts[p]]
        if missing:
            ops = _layer_ops(i, d, h, f)
            wide = _wide_flags(ops)
            reps = {j: self.cost(ops[j], wide_inputs=wide[j])
                    for j in sorted(j for p in missing for j in _PARTS[p])}
            for p in missing:
                self._parts[p][part_keys[p]] = [(reps[j].latency, reps[j].energy)
                                                for j in _PARTS[p]]
        row = len(self.layers) + 1
        if row == self.costs.shape[1]:
            self.costs = np.concatenate([self.costs, np.zeros_like(self.costs)], axis=1)
        self.costs[:, row, _PART_COLUMNS] = np.transpose(
            [pair for table, k in zip(self._parts, part_keys) for pair in table[k]])
        self.layers[key] = row
        return row


def _accumulate(values: np.ndarray) -> np.ndarray:
    """Totals over the last axis, each added strictly left to right like
    `x += v` in a loop: `np.add.accumulate` adds in order, where
    `ndarray.sum` adds pairwise and the built-in `sum` compensates (from
    Python 3.12)."""
    return np.cumsum(values, axis=-1)[..., -1]


def _cost_round(cands: list[Candidate], cache: CostCache):
    """Costs candidates in one array pass over the cache's layer table.

    Returns (costed candidates, their EDPs, (candidate, error) pairs), each
    in the order of `cands`. A candidate whose layer config check or
    costing raises `ConfigError` or `ValueError` is set aside with its error,
    and the others are still costed. Each costed candidate's layers become
    one row of layer-table indices, padded with the zero row; its total
    latency and energy then add up the per-operator costs in operator order,
    the same sums as over `candidate_ops`, and adding the padding's zeros
    after them leaves those totals as they are.
    """
    layers = cache.layers
    kept, rows, errors = [], [], []
    for c in cands:
        try:
            ids = []
            for i in range(c.N):
                key = (c.d, c.h[i], c.d_FFN[i])
                row = layers.get(key)
                ids.append(cache._layer(i, key) if row is None else row)
        except (ConfigError, ValueError) as exc:
            errors.append((c, exc))
            continue
        kept.append(c)
        rows.append(ids)
    if not rows:
        return kept, [], errors
    width = max(map(len, rows))
    index = np.array([ids + [0] * (width - len(ids)) for ids in rows])
    lat, energy = _accumulate(cache.costs[:, index].reshape(2, len(rows), -1))
    return kept, (lat * energy).tolist(), errors


def candidate_edp(c: Candidate, cache: CostCache) -> float:
    """Total latency x total energy over the candidate's encoder operators,
    on the cache's accelerator: a round of one candidate."""
    if c.N < 1 or len(c.h) != c.N or len(c.d_FFN) != c.N:
        raise ConfigError(f"need N >= 1 and per-layer lists of length N, got {c.encode()}")
    _, edps, errors = _cost_round([c], cache)
    if errors:
        raise errors[0][1]
    return edps[0]


def _scored(c: Candidate, edp: float) -> Candidate:
    return Candidate(c.N, c.d, c.h, c.d_FFN, quality_proxy(c), edp)


def evaluate(c: Candidate, cache: CostCache) -> Candidate:
    return _scored(c, candidate_edp(c, cache))


@dataclass(frozen=True)
class ParetoFront:
    points: tuple  # Candidates sorted by increasing edp
    trace: tuple = ()  # (round, best_edp, front_size) rows
    discarded: tuple = ()  # (candidate encode, reason) rows

    def check(self) -> "ParetoFront":
        # with edp strictly increasing, no point is dominated exactly when
        # quality strictly increases too
        for i, p in enumerate(self.points):
            if not p.evaluated:
                raise ConfigError("front contains an unevaluated candidate")
            if i and not self.points[i - 1].edp < p.edp:
                raise ConfigError("front must be strictly sorted by edp")
            if i and not self.points[i - 1].quality < p.quality:
                raise ConfigError("front contains a dominated point")
        return self

    @property
    def min_edp(self) -> float:
        return self.points[0].edp if self.points else math.inf


def pareto(points: list[Candidate]) -> ParetoFront:
    """Non-dominated points (max quality, min edp), by one sorted sweep.

    This is the 2-D maxima algorithm of Kung, Luccio & Preparata (JACM 1975):
    after sorting by (edp, -quality), a point is dominated exactly when an
    earlier one has at least its quality.
    """
    if any(math.isnan(p.quality) or math.isnan(p.edp) for p in points):
        raise ConfigError("front contains an unevaluated candidate")
    # one representative per (quality, edp) pair, canonical-encoding tie-break
    best: dict = {}
    for p in points:
        key = (p.quality, p.edp)
        if key not in best or p.encode() < best[key].encode():
            best[key] = p
    front: list[Candidate] = []
    for p in sorted(best.values(), key=lambda p: (p.edp, -p.quality)):
        if not front or front[-1].quality < p.quality:
            front.append(p)
    return ParetoFront(tuple(front)).check()


def evolve(space: SearchSpace = DEFAULT_SPACE,
           accel: AcceleratorConfig | None = None,
           pop: int = 40, rounds: int = 40, p: float = 0.2, seed=0,
           cache: CostCache | None = None) -> ParetoFront:
    """Pareto-retention evolution; deterministic per seed. A given `cache`
    must have been built for `accel`."""
    if pop < 2 or rounds < 1:
        raise ConfigError("need pop >= 2 and rounds >= 1")
    if accel is None:
        accel = accel_preset("gemmini-baseline")
    if cache is None:
        cache = CostCache(accel)
    elif cache.accel != accel:
        raise ValueError("cost cache was built for another accelerator")
    space.check()
    rng = _rng(seed)
    population = [sample_candidate(space, rng) for _ in range(pop)]
    trace: list = []
    discarded: list = []
    front = ParetoFront(())
    for rnd in range(1, rounds + 1):
        kept, edps, errors = _cost_round(population, cache)
        discarded.extend((c.encode(), str(exc)) for c, exc in errors)
        scored = list(map(_scored, kept, edps))
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


def rescore(front: ParetoFront, accel: AcceleratorConfig) -> ParetoFront:
    """High-fidelity pass: re-cost retained candidates with greedy max tiles."""
    out = []
    for c in front.points:
        ops = candidate_ops(c)
        reps = [op_latency(op, accel, wide_inputs=w,
                           plan=greedy_tiles(op, accel)
                           if isinstance(op.kind, (Matmul, Conv)) else None)
                for op, w in zip(ops, _wide_flags(ops))]
        edp = _left_sum(r.latency for r in reps) * _left_sum(r.energy for r in reps)
        out.append(replace(c, edp=edp))
    return pareto(out)
