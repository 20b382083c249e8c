"""Evolutionary hardware-aware architecture search with EDP objective.

Searches encoder architectures over layer count, model dim, and per-layer
head count / FFN dim. Each candidate is costed analytically on one
accelerator (sum of per-operator latency and energy, sequence length
`SEQ_LEN`) through a cost cache that memoizes whole encoder layers and,
below them, operator shapes; quality uses a parameter-count proxy. Evolution
retains the Pareto front (maximize quality, minimize EDP), kept with one
sorted sweep, and refills the population by mutating retained members
round-robin.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .hwmodel import (AcceleratorConfig, InfeasibleConfigError, OpCostTable, _wide_flags,
                      accel_preset, greedy_tiles, op_latency)
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


def _encoder_config(c: Candidate) -> ModelConfig:
    # base num_heads=1 always divides d; real head counts enter per layer
    return ModelConfig(name="nas", num_layers=c.N, model_dim=c.d, num_heads=1,
                       ffn_dim=c.d_FFN[0], seq_len=SEQ_LEN, mode=Mode.Encoder).check()


def candidate_ops(c: Candidate) -> list[OperatorSpec]:
    cfg = _encoder_config(c)
    ops: list[OperatorSpec] = []
    for i in range(c.N):
        ops.extend(layer_ops_encoder(cfg, i, heads=c.h[i], ffn_dim=c.d_FFN[i]))
    return ops


class CostCache(OpCostTable):
    """Lookup tables over operator and encoder-layer costs on one
    accelerator (transparent).

    The operator table is hwmodel's `OpCostTable`: `cost` memoizes one
    operator's report by shape, and `hits` and `misses` count these
    operator lookups. `layers` is the table `candidate_edp` keeps per
    encoder layer: (d, h, d_FFN) maps to the layer's (latency, energy)
    pairs in operator order.
    """

    # bound on this class too, so that wrapping the search's operator
    # lookups leaves every other OpCostTable alone
    cost = OpCostTable.cost

    def __init__(self, accel: AcceleratorConfig):
        super().__init__(accel)
        self.layers: dict = {}


def candidate_edp(c: Candidate, cache: CostCache) -> float:
    """Total latency x total energy over the candidate's encoder operators,
    on the cache's accelerator.

    A layer's operators depend only on (d, h_i, d_FFN_i), and no wide-input
    flag crosses a layer boundary (each layer starts with a matmul), so each
    layer's per-operator costs are computed once and then added up in
    operator order: the same sums as over `candidate_ops`.
    """
    cfg = _encoder_config(c)
    layers = cache.layers
    lat = 0.0
    energy = 0.0
    for i in range(c.N):
        key = (c.d, c.h[i], c.d_FFN[i])
        pairs = layers.get(key)
        if pairs is None:
            ops = layer_ops_encoder(cfg, i, heads=c.h[i], ffn_dim=c.d_FFN[i])
            reps = [cache.cost(op, wide_inputs=w)
                    for op, w in zip(ops, _wide_flags(ops))]
            pairs = layers[key] = tuple((r.latency, r.energy) for r in reps)
        for op_lat, op_energy in pairs:
            lat += op_lat
            energy += op_energy
    return lat * energy


def evaluate(c: Candidate, cache: CostCache) -> Candidate:
    return replace(c, quality=quality_proxy(c), edp=candidate_edp(c, cache))


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
        scored = []
        for c in population:
            try:
                scored.append(evaluate(c, cache))
            except (ConfigError, ValueError) as exc:
                discarded.append((c.encode(), str(exc)))
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
        wide = _wide_flags(ops)
        lat = 0.0
        energy = 0.0
        for op, w in zip(ops, wide):
            plan = None
            if isinstance(op.kind, (Matmul, Conv)):
                plan = greedy_tiles(op, accel)
            rep = op_latency(op, accel, plan=plan, wide_inputs=w)
            lat += rep.latency
            energy += rep.energy
        out.append(replace(c, edp=lat * energy))
    return pareto(out)
