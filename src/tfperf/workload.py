"""Operator graphs and ideal FLOPs/MOPs/arithmetic-intensity profiles.

Conventions (chosen to be self-consistent and recalibratable; see README):
- weight matmuls count 2 FLOPs per MAC (2*M*K*N);
- activation-to-activation matmuls count the reduction exactly, with no free
  initial accumulate: (2K-1)*M*N;
- softmax 5 FLOPs/element, one load + one store ideally (the three-pass
  structure matters only once intermediate precision enters the picture);
- add+layernorm is a single record per "Add & Norm" block: 8 FLOPs/element
  (7 for the normalization, 1 for the residual add), 3 loads + 1 store;
- GELU 8 FLOPs/element, one load + one store.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence


class Mode(Enum):
    Encoder = "encoder"
    Decoder = "decoder"
    Cnn = "cnn"  # the fixed ResNet-50 graph; model dims do not apply


class OperatorClass(Enum):
    MhaProjection = "mha_projection"
    ActToAct = "act_to_act"
    FfnProjection = "ffn_projection"
    Nonlinear = "nonlinear"
    Convolution = "convolution"
    Pooling = "pooling"
    ResidualAdd = "residual_add"


CATEGORY_MHA_PROJ = "MHA (projections)"
CATEGORY_ACT_TO_ACT = "MHA (act-to-act matmuls)"
CATEGORY_FFN = "FFN (projections)"
CATEGORY_OTHER = "Other"

_CLASS_CATEGORY = {
    OperatorClass.MhaProjection: CATEGORY_MHA_PROJ,
    OperatorClass.ActToAct: CATEGORY_ACT_TO_ACT,
    OperatorClass.FfnProjection: CATEGORY_FFN,
    OperatorClass.Nonlinear: CATEGORY_OTHER,
    OperatorClass.Convolution: "Convolution",
    OperatorClass.Pooling: CATEGORY_OTHER,
    OperatorClass.ResidualAdd: CATEGORY_OTHER,
}


class ConfigError(ValueError):
    """Invalid model or operator configuration."""


class UndefinedIntensityError(ZeroDivisionError):
    """Arithmetic intensity requested for an operator with zero MOPs."""


@dataclass(frozen=True)
class Matmul:
    M: int
    K: int
    N: int


@dataclass(frozen=True)
class MatvecSeries:
    """One matrix-vector product per generation step, `iterations` steps.

    For ActToAct records the series aggregates KV-cache attention: the matrix
    grows with the step index; (rows, cols) is the full final footprint and
    rows == iterations marks the growing-output (query*key style) series.
    """

    rows: int
    cols: int
    iterations: int


@dataclass(frozen=True)
class Conv:
    kernel: int
    in_ch: int
    out_ch: int
    out_h: int
    out_w: int
    stride: int = 1
    repetitions: int = 1


@dataclass(frozen=True)
class Elementwise:
    elements: int
    flops_per_element: int
    passes: int = 1


Kind = Matmul | MatvecSeries | Conv | Elementwise


@dataclass(frozen=True)
class OperatorSpec:
    name: str
    op_class: OperatorClass
    kind: Kind
    repeat: int = 1
    in_precisions: tuple[int, ...] = (1, 1)
    out_precision: int = 1
    # True for matmuls whose output immediately feeds Softmax/LayerNorm; the
    # non-ideal (hardware) paths widen these outputs to accumulator precision.
    pre_nonlinear: bool = False


@dataclass(frozen=True)
class ModelConfig:
    name: str
    num_layers: int
    model_dim: int
    num_heads: int
    ffn_dim: int
    seq_len: int
    mode: Mode = Mode.Encoder
    activation_precision: int = 1
    weight_precision: int = 1

    def check(self) -> "ModelConfig":
        if min(self.num_layers, self.model_dim, self.num_heads, self.ffn_dim, self.seq_len) < 1:
            raise ConfigError("N, d, h, d_FFN, l must all be >= 1")
        if self.model_dim % self.num_heads != 0:
            raise ConfigError(f"d={self.model_dim} not divisible by h={self.num_heads}")
        for p in (self.activation_precision, self.weight_precision):
            if p not in (1, 2, 4):
                raise ConfigError(f"precision {p} not in {{1, 2, 4}} bytes")
        return self

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


# ---------------------------------------------------------------------------
# FLOPs / MOPs / intensity
# ---------------------------------------------------------------------------

def flops(op: OperatorSpec) -> int:
    k = op.kind
    if isinstance(k, Matmul):
        if op.op_class is OperatorClass.ActToAct:
            return (2 * k.K - 1) * k.M * k.N * op.repeat
        return 2 * k.M * k.K * k.N * op.repeat
    if isinstance(k, MatvecSeries):
        if op.op_class is OperatorClass.ActToAct:
            # sum_i static*(2i-1) = static * iterations^2
            return _a2a_static(k) * k.iterations * k.iterations * op.repeat
        return 2 * k.rows * k.cols * k.iterations * op.repeat
    if isinstance(k, Conv):
        return 2 * k.kernel * k.kernel * k.in_ch * k.out_ch * k.out_h * k.out_w * k.repetitions * op.repeat
    if isinstance(k, Elementwise):
        return k.elements * k.flops_per_element * op.repeat
    raise TypeError(f"unknown kind {k!r}")


def _a2a_static(k: MatvecSeries) -> int:
    # The non-growing dimension of a cached-attention series.
    return k.cols if k.rows == k.iterations else k.rows


def _in_bytes(op: OperatorSpec) -> tuple[int, int]:
    """The widths of the operator's first and second operand: an operator
    with one input width reads both at it."""
    p = op.in_precisions
    return (p[0], p[1]) if len(p) > 1 else (p[0], p[0])


def mops(op: OperatorSpec) -> int:
    k = op.kind
    in1, in2 = _in_bytes(op)
    out = op.out_precision
    if isinstance(k, Matmul):
        return (k.M * k.K * in1 + k.K * k.N * in2 + k.M * k.N * out) * op.repeat
    if isinstance(k, MatvecSeries):
        if op.op_class is OperatorClass.ActToAct:
            return _a2a_mops(k, in1, out) * op.repeat
        # weights reloaded every iteration; one in-vector and one out-vector per step
        per_iter = k.rows * k.cols * in2 + k.cols * in1 + k.rows * out
        return per_iter * k.iterations * op.repeat
    if isinstance(k, Conv):
        in_h = k.out_h * k.stride
        in_w = k.out_w * k.stride
        per_rep = (k.kernel * k.kernel * k.in_ch * k.out_ch * in2
                   + k.in_ch * in_h * in_w * in1
                   + k.out_ch * k.out_h * k.out_w * out)
        return per_rep * k.repetitions * op.repeat
    if isinstance(k, Elementwise):
        return (k.passes * k.elements * in1 + k.elements * out) * op.repeat
    raise TypeError(f"unknown kind {k!r}")


def _a2a_mops(k: MatvecSeries, act_b: int, out_b: int) -> int:
    """KV-cache attention series traffic.

    Per step i: read the i cached vectors (static * i), write the step's new
    vector (static). The growing-output series (query*key) additionally writes
    i scores per step; the reducing series (score*value) writes a static-size
    context vector per step.
    """
    static = _a2a_static(k)
    it = k.iterations
    tri = it * (it + 1) // 2
    base = static * tri * act_b + static * it * act_b
    if k.rows == k.iterations:  # growing output: scores
        return base + tri * out_b
    return base + static * it * out_b


def intensity(flop_count: float, mop_count: float) -> float:
    if mop_count <= 0:
        raise UndefinedIntensityError("intensity undefined for mops == 0")
    return flop_count / mop_count


# ---------------------------------------------------------------------------
# Model construction
# ---------------------------------------------------------------------------

def _matmul_op(name: str, cls: OperatorClass, M: int, K: int, N: int, cfg: ModelConfig,
               repeat: int = 1, pre_nonlinear: bool = False) -> OperatorSpec:
    # weight matmuls are oriented (M x K) weights times (K x N) activations
    a = cfg.activation_precision
    return OperatorSpec(name, cls, Matmul(M, K, N), repeat=repeat,
                        in_precisions=(cfg.weight_precision, a), out_precision=a,
                        pre_nonlinear=pre_nonlinear)


def _elementwise_op(name: str, elements: int, f_per_el: int, passes: int,
                    cfg: ModelConfig, cls: OperatorClass = OperatorClass.Nonlinear) -> OperatorSpec:
    a = cfg.activation_precision
    return OperatorSpec(name, cls, Elementwise(elements, f_per_el, passes),
                        in_precisions=(a,), out_precision=a)


def layer_ops_encoder(cfg: ModelConfig, layer: int, heads: int | None = None,
                      ffn_dim: int | None = None) -> list[OperatorSpec]:
    """The 12 operator records of one encoder layer.

    `heads`/`ffn_dim` override the config per layer (used by the architecture
    search); head dim is floor(d/h) with any remainder dropped from the
    act-to-act shapes only.
    """
    d, l = cfg.model_dim, cfg.seq_len
    h = heads if heads is not None else cfg.num_heads
    dff = ffn_dim if ffn_dim is not None else cfg.ffn_dim
    if not 1 <= h <= d:
        raise ConfigError(f"layer {layer}: h={h} heads need 1 <= h <= d={d}")
    dh = d // h
    p = f"L{layer}."
    P, A2A, F = OperatorClass.MhaProjection, OperatorClass.ActToAct, OperatorClass.FfnProjection
    ops = [
        _matmul_op(p + "wq", P, d, d, l, cfg),
        _matmul_op(p + "wk", P, d, d, l, cfg),
        _matmul_op(p + "wv", P, d, d, l, cfg),
        OperatorSpec(p + "qk", A2A, Matmul(l, dh, l), repeat=h,
                     in_precisions=(cfg.activation_precision,) * 2,
                     out_precision=cfg.activation_precision, pre_nonlinear=True),
        _elementwise_op(p + "softmax", h * l * l, 5, 1, cfg),
        OperatorSpec(p + "sv", A2A, Matmul(l, l, dh), repeat=h,
                     in_precisions=(cfg.activation_precision,) * 2,
                     out_precision=cfg.activation_precision),
        _matmul_op(p + "wout", P, d, d, l, cfg, pre_nonlinear=True),
        _elementwise_op(p + "add_ln1", d * l, 8, 3, cfg),
        _matmul_op(p + "w1", F, dff, d, l, cfg),
        _elementwise_op(p + "gelu", dff * l, 8, 1, cfg),
        _matmul_op(p + "w2", F, d, dff, l, cfg, pre_nonlinear=True),
        _elementwise_op(p + "add_ln2", d * l, 8, 3, cfg),
    ]
    return ops


def encoder_ops(cfg: ModelConfig) -> list[OperatorSpec]:
    cfg.check()
    if cfg.mode is not Mode.Encoder:
        raise ConfigError("encoder_ops requires an Encoder-mode config")
    out: list[OperatorSpec] = []
    for layer in range(cfg.num_layers):
        out.extend(layer_ops_encoder(cfg, layer))
    return out


def decoder_ops(cfg: ModelConfig) -> list[OperatorSpec]:
    """Autoregressive decode with a KV cache, empty prompt, steps 1..l."""
    cfg.check()
    if cfg.mode is not Mode.Decoder:
        raise ConfigError("decoder_ops requires a Decoder-mode config")
    d, l, h, dff = cfg.model_dim, cfg.seq_len, cfg.num_heads, cfg.ffn_dim
    dh = d // h
    a = cfg.activation_precision
    w = cfg.weight_precision
    P, A2A, F = OperatorClass.MhaProjection, OperatorClass.ActToAct, OperatorClass.FfnProjection

    def series(name: str, cls: OperatorClass, rows: int, cols: int) -> OperatorSpec:
        return OperatorSpec(name, cls, MatvecSeries(rows, cols, l),
                            in_precisions=(a, w), out_precision=a)

    out: list[OperatorSpec] = []
    for layer in range(cfg.num_layers):
        p = f"L{layer}."
        out.extend([
            series(p + "wq", P, d, d),
            series(p + "wk", P, d, d),
            series(p + "wv", P, d, d),
            OperatorSpec(p + "qk", A2A, MatvecSeries(l, dh, l), repeat=h,
                         in_precisions=(a, a), out_precision=a, pre_nonlinear=True),
            _elementwise_op(p + "softmax", h * (l * (l + 1) // 2), 5, 1, cfg),
            OperatorSpec(p + "sv", A2A, MatvecSeries(dh, l, l), repeat=h,
                         in_precisions=(a, a), out_precision=a),
            series(p + "wout", P, d, d),
            _elementwise_op(p + "add_ln1", d * l, 8, 3, cfg),
            series(p + "w1", F, dff, d),
            _elementwise_op(p + "gelu", dff * l, 8, 1, cfg),
            series(p + "w2", F, d, dff),
            _elementwise_op(p + "add_ln2", d * l, 8, 3, cfg),
        ])
    return out


# ResNet-50: canonical repeated-bottleneck construction. Stage rows aggregate
# over block repetitions; the reduce conv uses the stage's wide input (4*mid).
_RESNET_STAGES = (
    # (mid_ch, out_spatial, blocks)
    (64, 56, 3),
    (128, 28, 4),
    (256, 14, 6),
    (512, 7, 3),
)


def resnet50_ops(act_precision: int = 1, weight_precision: int = 1) -> list[OperatorSpec]:
    a, w = act_precision, weight_precision
    C, NL, PL, RA = (OperatorClass.Convolution, OperatorClass.Nonlinear,
                     OperatorClass.Pooling, OperatorClass.ResidualAdd)

    def conv(name: str, kernel: int, cin: int, cout: int, sp: int, stride: int = 1,
             reps: int = 1) -> OperatorSpec:
        return OperatorSpec(name, C, Conv(kernel, cin, cout, sp, sp, stride, reps),
                            in_precisions=(a, w), out_precision=a)

    def bn(name: str, elements: int) -> OperatorSpec:
        return OperatorSpec(name, NL, Elementwise(elements, 3, 2), in_precisions=(a,), out_precision=a)

    def relu(name: str, elements: int) -> OperatorSpec:
        return OperatorSpec(name, NL, Elementwise(elements, 1, 1), in_precisions=(a,), out_precision=a)

    ops: list[OperatorSpec] = [
        conv("conv1", 7, 3, 64, 112, stride=2),
        bn("conv1.bn", 64 * 112 * 112),
        relu("conv1.relu", 64 * 112 * 112),
        # 3x3/s2 window: ~4 distinct input bytes per output element
        OperatorSpec("maxpool", PL, Elementwise(64 * 56 * 56, 8, 4),
                     in_precisions=(a,), out_precision=a),
    ]
    for idx, (mid, sp, blocks) in enumerate(_RESNET_STAGES, start=2):
        wide = 4 * mid
        hw = sp * sp
        stage = f"conv{idx}"
        ops.extend([
            conv(f"{stage}.reduce", 1, wide, mid, sp, reps=blocks),
            bn(f"{stage}.reduce.bn", mid * hw * blocks),
            relu(f"{stage}.reduce.relu", mid * hw * blocks),
            conv(f"{stage}.mid", 3, mid, mid, sp, reps=blocks),
            bn(f"{stage}.mid.bn", mid * hw * blocks),
            relu(f"{stage}.mid.relu", mid * hw * blocks),
            conv(f"{stage}.expand", 1, mid, wide, sp, reps=blocks),
            bn(f"{stage}.expand.bn", wide * hw * blocks),
            OperatorSpec(f"{stage}.add", RA, Elementwise(wide * hw * blocks, 1, 2),
                         in_precisions=(a,), out_precision=a),
            relu(f"{stage}.add.relu", wide * hw * blocks),
        ])
    ops.extend([
        OperatorSpec("avgpool", PL, Elementwise(2048, 49, 49), in_precisions=(a,), out_precision=a),
        OperatorSpec("fc", OperatorClass.FfnProjection, Matmul(1000, 2048, 1),
                     in_precisions=(w, a), out_precision=a),
        OperatorSpec("softmax", NL, Elementwise(1000, 5, 1), in_precisions=(a,), out_precision=a),
    ])
    return ops


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRow:
    op: OperatorSpec
    flops: int
    mops: int
    intensity: float


@dataclass(frozen=True)
class CategoryRow:
    flops: int
    flops_pct: float
    mops: int
    mops_pct: float
    intensity: float


@dataclass(frozen=True)
class WorkloadProfile:
    per_op: tuple[ProfileRow, ...]
    per_category: dict[str, CategoryRow]
    totals: tuple[int, int, float]  # (flops, mops, intensity)


class EmptyProfileError(ValueError):
    pass


def _cnn_category(op: OperatorSpec) -> str:
    if op.op_class is OperatorClass.Convolution:
        return "Convolution"
    if op.op_class is OperatorClass.Nonlinear:
        if ".bn" in op.name or op.name.endswith("bn"):
            return "BatchNorm"
        if "relu" in op.name:
            return "ReLU"
    return CATEGORY_OTHER


def category_of(op: OperatorSpec, cnn: bool = False) -> str:
    if cnn:
        return _cnn_category(op)
    return _CLASS_CATEGORY[op.op_class]


def _aggregate(rows: Sequence[ProfileRow], category) -> WorkloadProfile:
    """Profile of per-op rows with per-category sums; a category (like an op)
    that moves no bytes gets infinite intensity."""
    agg: dict[str, list[int]] = {}
    for r in rows:
        bucket = agg.setdefault(category(r.op), [0, 0])
        bucket[0] += r.flops
        bucket[1] += r.mops
    tot_f = sum(r.flops for r in rows)
    tot_m = sum(r.mops for r in rows)
    cats = {
        name: CategoryRow(f, 100.0 * f / tot_f, m, 100.0 * m / tot_m,
                          intensity(f, m) if m else math.inf)
        for name, (f, m) in agg.items()
    }
    return WorkloadProfile(tuple(rows), cats, (tot_f, tot_m, intensity(tot_f, tot_m)))


def profile(ops: Sequence[OperatorSpec], cnn: bool = False) -> WorkloadProfile:
    if not ops:
        raise EmptyProfileError("cannot profile an empty operator list")
    rows = []
    for op in ops:
        f, m = flops(op), mops(op)
        rows.append(ProfileRow(op, f, m, intensity(f, m) if m else math.inf))
    return _aggregate(rows, lambda op: category_of(op, cnn=cnn))


def fold_cnn_fusion(p: WorkloadProfile) -> WorkloadProfile:
    """Fold BatchNorm into the preceding conv and fuse ReLU.

    BatchNorm contributes neither FLOPs nor MOPs after folding; fused ReLU
    keeps its FLOPs but moves no bytes.
    """
    rows = []
    for r in p.per_op:
        cat = _cnn_category(r.op)
        if cat == "BatchNorm":
            continue
        if cat == "ReLU":
            rows.append(ProfileRow(r.op, r.flops, 0, math.inf))
        else:
            rows.append(r)
    return _aggregate(rows, _cnn_category)


# ---------------------------------------------------------------------------
# Presets / JSON ingestion
# ---------------------------------------------------------------------------

_PRESETS: dict[str, dict] = {
    "bert-base": dict(layers=12, d=768, heads=12, d_ffn=3072, mode="encoder"),
    "bert-large": dict(layers=24, d=1024, heads=16, d_ffn=4096, mode="encoder"),
    "gpt2": dict(layers=12, d=768, heads=12, d_ffn=3072, mode="decoder"),
    "resnet50": dict(layers=50, d=1, heads=1, d_ffn=1, mode="cnn"),
}


def model_preset(name: str, seq_len: int = 512) -> ModelConfig:
    try:
        p = _PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown model preset {name!r}; "
                          f"choose from {sorted(_PRESETS)}") from None
    return ModelConfig(name=name, num_layers=p["layers"], model_dim=p["d"],
                       num_heads=p["heads"], ffn_dim=p["d_ffn"], seq_len=seq_len,
                       mode=Mode(p["mode"])).check()


def json_int(value, key: str) -> int:
    """An integer config value. JSON true is not 1, and 16.7 is not 16."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {json.dumps(value)}")
    return int(value)


def check_keys(data: dict, known: Sequence[str], what: str) -> None:
    """Reject keys a loader would ignore: a misspelt key must not run a default."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown}; known: {sorted(known)}")


_MODEL_KEYS = ("name", "layers", "d", "heads", "d_ffn", "seq_len", "mode",
               "act_bytes", "weight_bytes")


def model_from_json(doc: str | dict, seq_len: int | None = None) -> ModelConfig:
    data = json.loads(doc) if isinstance(doc, str) else doc
    if not isinstance(data, dict):
        raise ConfigError("model config must be a JSON object")
    check_keys(data, _MODEL_KEYS, "model config")
    try:
        cfg = ModelConfig(
            name=data.get("name", "custom"),
            num_layers=json_int(data["layers"], "layers"),
            model_dim=json_int(data["d"], "d"),
            num_heads=json_int(data["heads"], "heads"),
            ffn_dim=json_int(data["d_ffn"], "d_ffn"),
            seq_len=(json_int(data.get("seq_len", 512), "seq_len") if seq_len is None
                     else int(seq_len)),
            mode=Mode(data.get("mode", "encoder")),
            activation_precision=json_int(data.get("act_bytes", 1), "act_bytes"),
            weight_precision=json_int(data.get("weight_bytes", 1), "weight_bytes"),
        )
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"bad model config: {e}") from e
    if cfg.mode is Mode.Cnn:
        raise ConfigError("mode 'cnn' is only for the resnet50 preset, "
                          "whose fixed graph ignores every model dim")
    return cfg.check()


def model_ops(cfg: ModelConfig) -> list[OperatorSpec]:
    if cfg.mode is Mode.Cnn:
        return resnet50_ops(cfg.activation_precision, cfg.weight_precision)
    if cfg.mode is Mode.Encoder:
        return encoder_ops(cfg)
    return decoder_ops(cfg)
