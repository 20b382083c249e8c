"""Analytical performance model of transformer and CNN inference on a
parameterized spatial accelerator: workload profiling, tiled latency/energy
estimation, mapping-space statistics, fusion scheduling, and an evolutionary
hardware-aware architecture search.
"""

__version__ = "1.0.0"

from .workload import (  # noqa: F401
    Conv,
    Elementwise,
    Matmul,
    MatvecSeries,
    Mode,
    ModelConfig,
    OperatorClass,
    OperatorSpec,
    WorkloadProfile,
    ConfigError,
    decoder_ops,
    encoder_ops,
    flops,
    fold_cnn_fusion,
    intensity,
    model_from_json,
    model_ops,
    model_preset,
    mops,
    profile,
    resnet50_ops,
)
from .hwmodel import (  # noqa: F401
    AcceleratorConfig,
    CostReport,
    EnergyTable,
    InfeasibleConfigError,
    OpCostTable,
    TilingPlan,
    accel_from_json,
    accel_preset,
    greedy_tiles,
    latency_breakdown,
    memory_split_sweep,
    model_costs,
    nonideal_intensity,
    op_latency,
    square_tiles,
)
from .mapspace import (  # noqa: F401
    NAMED_NESTS,
    LoopNest,
    Mapping,
    MapspaceStats,
    MapspaceTooLargeError,
    conv_nest,
    exhaustive_best,
    mapspace_size,
    matched_mac_dims,
    matmul_nest,
    nest_of,
    random_mapping,
    sample_costs,
    sample_stats,
    stats_from_costs,
)
from .fusion import (  # noqa: F401
    FusionInfeasibleError,
    FusionPair,
    FusionReport,
    Verdict,
    bert_pair,
    eval_pair,
    fused_constraints,
    fusion_sweep,
)
from .archsearch import (  # noqa: F401
    DEFAULT_SPACE,
    Candidate,
    CostCache,
    ParetoFront,
    SearchSpace,
    baseline,
    candidate_edp,
    evolve,
    mutate,
    pareto,
    quality_proxy,
    rescore,
    sample_candidate,
    space_from_json,
)
