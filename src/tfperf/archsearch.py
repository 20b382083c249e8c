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

A seeded search depends only on numpy's seed sequence and PCG64's raw
64-bit stream, which NEP 19 keeps stable across numpy versions: `evolve`
rebuilds the two `Generator` methods it uses, `random()` and `integers(k)`,
bit for bit from the raw words (`_PCG64Words`), where numpy may change
those methods' algorithms. A `Generator` passed as the seed ends in the
state numpy's methods would have left; one over another bit generator is
drawn from as it is. `sample_candidate` and `mutate` still call the
`Generator` methods, and make the same draws.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .hwmodel import AcceleratorConfig, InfeasibleConfigError, OpCostTable, accel_preset
from .workload import ConfigError, Mode, ModelConfig, OperatorSpec, check_keys, layer_ops_encoder


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


class _PCG64Words:
    """`Generator.random()` and `Generator.integers(k)` of a PCG64
    `Generator`, rebuilt bit for bit from its bit generator's raw 64-bit
    words, which are read a block at a time by `random_raw`. The rules are
    numpy's (`random/src/distributions`):
    - `random()` is a word's top 53 bits times 2**-53;
    - `integers(k)` is Lemire's bounded rejection (ACM TOMACS 2019) on
      32-bit halves, as in `buffered_bounded_lemire_uint32`: a word gives
      its low half and keeps its high half pending (PCG64's `has_uint32`
      and `uinteger`) for the next `integers` call, across `random()`
      calls. `integers(1)` is 0 and draws nothing.
    `hand_back` returns the unread words of the block to the bit generator,
    which then holds the state numpy's methods would have left.
    """

    BLOCK = 1024  # words per refill

    __slots__ = ("_bg", "_start", "_words", "_doubles", "_i", "_has", "_uint")

    def __init__(self, bit_generator: np.random.PCG64):
        self._bg = bit_generator
        state = bit_generator.state
        self._has, self._uint = bool(state["has_uint32"]), state["uinteger"]
        self._start: dict | None = None  # the state before the last refill
        self._words: list = []
        self._doubles: list = []
        self._i = 0

    def _refill(self) -> None:
        self._start = self._bg.state
        raw = self._bg.random_raw(self.BLOCK)
        self._words = raw.tolist()
        # (w >> 11) is below 2**53, so each product is exact, as in C
        self._doubles = ((raw >> np.uint64(11)) * 2.0 ** -53).tolist()
        self._i = 0

    def random(self) -> float:
        if self._i == len(self._doubles):
            self._refill()
        i = self._i
        self._i = i + 1
        return self._doubles[i]

    def _next32(self) -> int:
        if self._has:
            self._has = False
            return self._uint
        if self._i == len(self._words):
            self._refill()
        word = self._words[self._i]
        self._i += 1
        self._has, self._uint = True, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._next32() * k
        if (m & 0xFFFFFFFF) < k:  # k bounds the threshold 2**32 mod k
            threshold = (0x100000000 - k) % k
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * k
        return m >> 32

    def hand_back(self) -> None:
        """Puts the bit generator where the words read so far leave it, then
        sets its pending half (`advance` clears it)."""
        if self._start is not None:
            self._bg.state = self._start
            self._bg.advance(self._i)
        state = self._bg.state
        state["has_uint32"], state["uinteger"] = int(self._has), self._uint
        self._bg.state = state


@contextmanager
def _draws(seed) -> Iterator[np.random.Generator | _PCG64Words]:
    """The search's draws for `seed`: raw-word draws over a PCG64
    `Generator`, handed back on exit, or any other `Generator` as it is."""
    rng = _rng(seed)
    if type(rng.bit_generator) is not np.random.PCG64:
        yield rng
        return
    words = _PCG64Words(rng.bit_generator)
    try:
        yield words
    finally:
        words.hand_back()


# `_pick`, `_sample` and `_mutate` draw from a `Generator` or from
# `_PCG64Words` alike: they call only `random()` and `integers(k)`, with
# 1 <= k < 2**32.
def _pick(rng: np.random.Generator | _PCG64Words, vals: tuple) -> int:
    """A uniform pick: one `integers(len(vals))` draw, which for one value
    draws nothing."""
    return int(vals[rng.integers(len(vals))])


def _decode(enc: tuple, quality: float = math.nan, edp: float = math.nan) -> Candidate:
    n = enc[0]
    return Candidate(n, enc[1], enc[2:2 + n], enc[2 + n:], quality, edp)


def _probability(p: float) -> float:
    if not 0.0 <= p <= 1.0:  # NaN fails both comparisons
        raise ConfigError("mutation probability must be in [0, 1]")
    return p


def _sample(space: SearchSpace, rng: np.random.Generator | _PCG64Words) -> tuple:
    """A uniform draw from the space, as a candidate encoding."""
    n = _pick(rng, space.layer_counts)
    d = _pick(rng, space.model_dims)
    h = tuple(_pick(rng, space.heads_per_layer) for _ in range(n))
    dff = tuple(_pick(rng, space.ffn_dims_per_layer) for _ in range(n))
    return (n, d) + h + dff


def sample_candidate(space: SearchSpace, seed) -> Candidate:
    return _decode(_sample(space.check(), _rng(seed)))


def _mutate(enc: tuple, p: float, rng: np.random.Generator | _PCG64Words,
            space: SearchSpace) -> tuple:
    """A child of an encoding: each gene redrawn with probability p."""
    n0 = enc[0]
    n = _pick(rng, space.layer_counts) if rng.random() < p else n0
    d = _pick(rng, space.model_dims) if rng.random() < p else enc[1]
    h, dff = list(enc[2:2 + n0][:n]), list(enc[2 + n0:][:n])
    while len(h) < n:  # N grew: fresh genes for the new layers
        h.append(_pick(rng, space.heads_per_layer))
        dff.append(_pick(rng, space.ffn_dims_per_layer))
    for i in range(n):
        if rng.random() < p:
            h[i] = _pick(rng, space.heads_per_layer)
        if rng.random() < p:
            dff[i] = _pick(rng, space.ffn_dims_per_layer)
    return (n, d, *h, *dff)


def mutate(c: Candidate, p: float, seed, space: SearchSpace = DEFAULT_SPACE) -> Candidate:
    if len(c.h) != c.N or len(c.d_FFN) != c.N:  # the encoding splits its genes at N
        raise ConfigError("per-layer lists must have length N")
    return _decode(_mutate(c.encode(), _probability(p), _rng(seed), space))


def baseline(space: SearchSpace = DEFAULT_SPACE) -> Candidate:
    n = max(space.layer_counts)
    return Candidate(n, max(space.model_dims),
                     (max(space.heads_per_layer),) * n,
                     (max(space.ffn_dims_per_layer),) * n)


def _quality(d: int, ffns: tuple) -> float:
    """Parameter count: four d*d attention matrices plus two FFN matrices per
    layer, summed in exact integers."""
    return float(2 * d * (2 * d * len(ffns) + sum(ffns)))


def quality_proxy(c: Candidate) -> float:
    return _quality(c.d, c.d_FFN)


SEQ_LEN = 512  # the sequence length every candidate is costed at


def _layer_ops(i: int, d: int, h: int, f: int) -> list[OperatorSpec]:
    """Layer i's operators at model dim d, h heads and FFN dim f, built on a
    checked config of that layer's own d and f."""
    # base num_heads=1 always divides d; the real head count enters per layer
    cfg = ModelConfig(name="nas", num_layers=1, model_dim=d, num_heads=1, ffn_dim=f,
                      seq_len=SEQ_LEN, mode=Mode.Encoder).check()
    return layer_ops_encoder(cfg, i, heads=h)


def candidate_ops(c: Candidate) -> list[OperatorSpec]:
    ops: list[OperatorSpec] = []
    for i in range(c.N):
        ops.extend(_layer_ops(i, c.d, c.h[i], c.d_FFN[i]))
    return ops


# A layer's operators in three parts, each keyed by what it depends on:
# wq, wk, wv, wout and add_ln1 on d; qk, softmax and sv on (d, h); w1, gelu,
# w2 and add_ln2 on (d, d_FFN).
_PARTS = ((0, 1, 2, 6, 7), (3, 4, 5), (8, 9, 10, 11))
_OP_ORDER = [sum(_PARTS, ()).index(j) for j in range(12)]  # part-by-part row to op order


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
    order; row 0 is all zeros. A new layer's pairs wait in a pending list
    until `_written` appends them all to the tables in one array call. A
    cache lives for one search.
    """

    # bound on this class too, so that wrapping the search's operator
    # lookups leaves every other OpCostTable alone
    cost = OpCostTable.cost

    def __init__(self, accel: AcceleratorConfig):
        super().__init__(accel)
        self.layers: dict = {}
        self.costs = np.zeros((2, 1, len(_OP_ORDER)))
        self._parts: tuple[dict, dict, dict] = ({}, {}, {})
        self._pending: list = []

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
            reps = {j: self.cost(ops[j]) for j in sorted(j for p in missing for j in _PARTS[p])}
            for p in missing:
                self._parts[p][part_keys[p]] = [(reps[j].latency, reps[j].energy)
                                                for j in _PARTS[p]]
        self._pending.append([pair for table, k in zip(self._parts, part_keys)
                              for pair in table[k]])
        row = self.layers[key] = len(self.layers) + 1
        return row

    def _written(self) -> np.ndarray:
        """`costs`, with every pending layer appended."""
        if self._pending:
            new = np.transpose(self._pending, (2, 0, 1))[..., _OP_ORDER]
            self.costs = np.concatenate([self.costs, new], axis=1)
            self._pending.clear()
        return self.costs


def _accumulate(values: np.ndarray) -> np.ndarray:
    """Totals over the last axis, each added strictly left to right like
    `x += v` in a loop: `np.add.accumulate` adds in order, where
    `ndarray.sum` adds pairwise and the built-in `sum` compensates (from
    Python 3.12)."""
    return np.cumsum(values, axis=-1)[..., -1]


def _cost_round(encs: list[tuple], cache: CostCache):
    """Costs candidate encodings in one array pass over the cache's layer table.

    Returns (costed encodings, their EDPs, (encoding, error) pairs), each in
    the order of `encs`. A candidate whose layer config check or costing
    raises `ConfigError` or `ValueError` is set aside with its error, and
    the others are still costed. Each costed candidate's layers become one
    row of layer-table indices, padded with the zero row; its total latency
    and energy then add up the per-operator costs in operator order, the
    same sums as over `candidate_ops`, and adding the padding's zeros after
    them leaves those totals as they are.
    """
    layers, layer = cache.layers, cache._layer
    kept, rows, errors = [], [], []
    for enc in encs:
        n, d = enc[0], enc[1]
        try:  # row 0 is no layer's, so `or` falls through to a miss only
            ids = [layers.get(key) or layer(i, key)
                   for i, key in enumerate(zip((d,) * n, enc[2:2 + n], enc[2 + n:]))]
        except ValueError as exc:
            errors.append((enc, exc))
            continue
        kept.append(enc)
        rows.append(ids)
    if not rows:
        return kept, [], errors
    width = max(map(len, rows))
    index = np.array([ids + [0] * (width - len(ids)) for ids in rows])
    lat, energy = _accumulate(cache._written()[:, index].reshape(2, len(rows), -1))
    return kept, (lat * energy).tolist(), errors


def candidate_edp(c: Candidate, cache: CostCache) -> float:
    """Total latency x total energy over the candidate's encoder operators,
    on the cache's accelerator: a round of one candidate."""
    if c.N < 1 or len(c.h) != c.N or len(c.d_FFN) != c.N:
        raise ConfigError(f"need N >= 1 and per-layer lists of length N, got {c.encode()}")
    _, edps, errors = _cost_round([c.encode()], cache)
    if errors:
        raise errors[0][1]
    return edps[0]


def evaluate(c: Candidate, cache: CostCache) -> Candidate:
    edp = candidate_edp(c, cache)
    return Candidate(c.N, c.d, c.h, c.d_FFN, quality_proxy(c), edp)


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


def _sweep(rows: list) -> list:
    """The non-dominated (edp, -quality, encoding, ...) rows, by the 2-D
    maxima sweep of Kung, Luccio & Preparata (JACM 1975): once sorted, a row
    is dominated exactly when an earlier one has at least its quality. Of
    rows tied on (quality, edp), the smallest encoding sorts first and stays.
    """
    front: list = []
    for row in sorted(rows):
        if not front or front[-1][1] > row[1]:
            front.append(row)
    return front


def pareto(points: list[Candidate]) -> ParetoFront:
    """Non-dominated points (max quality, min edp), sorted by edp."""
    if any(math.isnan(p.quality) or math.isnan(p.edp) for p in points):
        raise ConfigError("front contains an unevaluated candidate")
    front = _sweep([(p.edp, -p.quality, p.encode(), i) for i, p in enumerate(points)])
    return ParetoFront(tuple(points[row[3]] for row in front)).check()


def evolve(space: SearchSpace = DEFAULT_SPACE,
           accel: AcceleratorConfig | None = None,
           pop: int = 40, rounds: int = 40, p: float = 0.2, seed=0,
           cache: CostCache | None = None) -> ParetoFront:
    """Pareto-retention evolution; deterministic per seed. A given `cache`
    must have been built for `accel`. The search runs on encodings, with the
    front kept as sorted (edp, -quality, encoding) rows; only the returned
    front is built as `Candidate`s. A `Generator` given as `seed` is left,
    on return or raise, in the state numpy's own draws would leave."""
    if pop < 2 or rounds < 1:
        raise ConfigError("need pop >= 2 and rounds >= 1")
    _probability(p)
    if accel is None:
        accel = accel_preset("gemmini-baseline")
    if cache is None:
        cache = CostCache(accel)
    elif cache.accel != accel:
        raise ValueError("cost cache was built for another accelerator")
    space.check()
    trace: list = []
    discarded: list = []
    front: list = []
    with _draws(seed) as rng:
        population = [_sample(space, rng) for _ in range(pop)]
        for rnd in range(1, rounds + 1):
            kept, edps, errors = _cost_round(population, cache)
            discarded.extend((enc, str(exc)) for enc, exc in errors)
            front = _sweep(front + [(e, -_quality(enc[1], enc[2 + enc[0]:]), enc)
                                    for enc, e in zip(kept, edps)])
            if not front:  # every candidate so far was discarded: none to mutate
                raise InfeasibleConfigError(
                    f"no candidate fits the accelerator; first discard: {discarded[0][1]}")
            # sorted by edp, an infinite one comes last
            if not math.isfinite(front[-1][0]) or any(map(math.isnan, edps)):
                raise ConfigError("front contains an unevaluated candidate")
            trace.append((rnd, front[0][0], len(front)))
            population = [_mutate(front[i % len(front)][2], p, rng, space)
                          for i in range(pop - len(front))]
    points = tuple(_decode(enc, -q, e) for e, q, enc in front)
    return ParetoFront(points, tuple(trace), tuple(discarded)).check()
