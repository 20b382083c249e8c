"""The library's public functions and the parameters of its cost and search
entry points, pinned.

Each of these takes only what some `tfperf` command or a cost rule needs: a
cost table serves the one accelerator it was built for, the search runs at
one sequence length with one quality proxy, and operand widths come from the
operator or the loop nest. A knob or a public function that comes back shows
up here as a failing row.
"""
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from tfperf import _kernels, archsearch, fusion, hwmodel, mapspace, workload

SIGNATURES = [
    (hwmodel.OpCostTable, ("accel",)),
    (hwmodel.OpCostTable.cost, ("self", "op")),
    (hwmodel.EnergyTable.total, ("self", "macs", "spad", "acc", "dram")),
    (hwmodel.accel_preset, ("name",)),
    (hwmodel.memory_split_sweep, ("cfg", "accel", "total_kb")),
    (hwmodel.op_latency, ("op", "accel", "plan")),
    (archsearch.CostCache, ("accel",)),
    (archsearch.CostCache.cost, ("self", "op")),
    (archsearch.candidate_ops, ("c",)),
    (archsearch.candidate_edp, ("c", "cache")),
    (archsearch.evaluate, ("c", "cache")),
    (archsearch.evolve, ("space", "accel", "pop", "rounds", "p", "seed", "cache")),
    (archsearch.pareto, ("points",)),
    (fusion.bert_pair, ("name", "seq_len")),
    (fusion.eval_pair, ("pair", "accel")),
    (fusion.fusion_sweep, ("pair_name", "accel", "accum_kbs", "seq_lens")),
    # both kernels take the batch's (ndims, n) column arrays; the nest gives
    # the widths and stride, the accelerator the hardware parameters
    (_kernels.matmul_eval, ("P", "S", "T", "pos", "nest", "accel")),
    (_kernels.conv_eval, ("P", "S", "T", "pos", "nest", "accel")),
    # widths come from the operator (hwmodel) or the loop nest (mapspace)
    (hwmodel.square_tiles, ("op", "accel")),
    (hwmodel.greedy_tiles, ("op", "accel")),
    (hwmodel.nonideal_intensity, ("op", "accel")),
    (mapspace.validate, ("m", "accel")),
    (mapspace.evaluate, ("m", "accel")),
    (mapspace.random_mapping, ("nest", "accel", "seed")),
    (mapspace.sample_costs, ("nest", "accel", "n", "seed")),
    (mapspace.sample_stats, ("nest", "accel", "n", "seed")),
    (mapspace.exhaustive_best, ("nest", "accel")),
    # the walk returns its run cells' drained bytes apart; each caller decides
    # what to overlap
    (hwmodel._tile_cells, ("op", "plan", "accel")),
    # the builders set each operator's widths; no caller overrides them
    (workload.layer_ops_encoder, ("cfg", "layer", "heads")),
    # both order rules take the iterating flags and DRAM positions as rows
    (_kernels.matmul_order, ("it", "pos")),
    (_kernels.conv_order, ("it", "pos")),
]


# every public function each module defines; one with no command, cost rule,
# benchmark patch or acceptance criterion behind it is deleted, not added here
PUBLIC_FUNCTIONS = {
    workload: ("category_of", "check_keys", "decoder_ops", "encoder_ops", "flops",
               "fold_cnn_fusion", "intensity", "json_int", "layer_ops_encoder",
               "model_from_json", "model_ops", "model_preset", "mops", "profile",
               "resnet50_ops"),
    hwmodel: ("accel_from_json", "accel_preset", "costs_intensity", "greedy_tiles",
              "matmul_dims", "matmul_latency", "memory_split_sweep", "model_costs",
              "model_nonideal_intensity", "nonideal_intensity", "op_latency",
              "report_intensity", "square_tiles"),
    mapspace: ("conv_nest", "evaluate", "exhaustive_best", "matmul_nest", "nest_of",
               "random_mapping", "sample_costs", "sample_stats", "stats_from_costs",
               "validate"),
    fusion: ("bert_pair", "eval_pair", "fused_constraints", "fusion_sweep"),
    archsearch: ("baseline", "candidate_edp", "candidate_ops", "evaluate", "evolve",
                 "mutate", "pareto", "quality_proxy", "sample_candidate",
                 "space_from_json"),
}


def _id(value):
    return value.__qualname__ if callable(value) else None


@pytest.mark.parametrize("fn, params", SIGNATURES, ids=_id)
def test_parameters_are_pinned(fn, params):
    assert tuple(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("module", PUBLIC_FUNCTIONS, ids=lambda m: m.__name__)
def test_public_functions_are_pinned(module):
    defined = sorted(name for name, value in vars(module).items()
                     if inspect.isfunction(value) and value.__module__ == module.__name__
                     and not name.startswith("_"))
    assert tuple(defined) == PUBLIC_FUNCTIONS[module]


def test_accelerator_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(hwmodel.AcceleratorConfig))
    assert fields == ("pe_width", "scratchpad_bytes", "accumulator_bytes", "dram_bw",
                      "sfu_vector_latency", "energy")


def test_operator_fields_are_pinned():
    # the read width is a field of the operator, as the drain width is
    assert tuple(f.name for f in dataclasses.fields(workload.OperatorSpec)) == (
        "name", "op_class", "kind", "repeat", "in_precisions", "out_precision",
        "pre_nonlinear", "wide_inputs")


def test_plan_and_nest_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(hwmodel.TilingPlan)) == (
        "tile_m", "tile_k", "tile_n")
    assert tuple(f.name for f in dataclasses.fields(mapspace.LoopNest)) == (
        "dims", "stride", "precisions")


def test_benchmark_patch_targets_exist():
    """perfbench/layers.py patches tfperf functions by name for its per-layer
    metrics; installing its tracer fails if one of them is gone."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        layers = importlib.import_module("layers")
        tracer, modules = layers.make_tracer()
        original = mapspace._valid_mask
        try:
            tracer.install(modules)
            assert mapspace._valid_mask is not original
        finally:
            tracer.uninstall()
        assert mapspace._valid_mask is original
    finally:
        sys.path.remove(perfbench)
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)


def test_the_search_runs_at_one_sequence_length():
    assert archsearch.SEQ_LEN == 512
    c = archsearch.baseline()
    assert all(op.kind.N == 512 for op in archsearch.candidate_ops(c)[:3])
