"""The parameters of the library's cost and search entry points, pinned.

Each of these takes only what some `tfperf` command or a cost rule needs: a
cost table serves the one accelerator it was built for, the search runs at
one sequence length with one quality proxy, and operand widths come from the
operator or the loop nest. A knob that comes back shows up here as a failing
row.
"""
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from tfperf import _kernels, archsearch, fusion, hwmodel, mapspace

SIGNATURES = [
    (hwmodel.OpCostTable, ("accel",)),
    (hwmodel.OpCostTable.cost, ("self", "op", "wide_inputs")),
    (hwmodel.EnergyTable.total, ("self", "macs", "spad", "acc", "dram")),
    (hwmodel.accel_preset, ("name",)),
    (hwmodel.memory_split_sweep, ("cfg", "accel", "total_kb")),
    (hwmodel.op_latency, ("op", "accel", "plan", "wide_inputs")),
    (archsearch.CostCache, ("accel",)),
    (archsearch.CostCache.cost, ("self", "op", "wide_inputs")),
    (archsearch.candidate_ops, ("c",)),
    (archsearch.candidate_edp, ("c", "cache")),
    (archsearch.evaluate, ("c", "cache")),
    (archsearch.evolve, ("space", "accel", "pop", "rounds", "p", "seed", "cache")),
    (archsearch.rescore, ("front", "accel")),
    (fusion.bert_pair, ("name", "seq_len")),
    (fusion.eval_pair, ("pair", "accel")),
    (mapspace.matched_mac_dims, ("conv", "l")),
    (_kernels.matmul_eval, ("Pm", "Pk", "Pn", "sm", "sn", "tm", "tk", "tn",
                            "pos_m", "pos_k", "pos_n", "in1_b", "in2_b", "out_b",
                            "W", "bw", "energy")),
    (_kernels.conv_eval, ("P", "s_oc", "s_ic", "T", "pos", "stride",
                          "act_b", "w_b", "out_b", "W", "bw", "energy")),
    # widths come from the operator (hwmodel) or the loop nest (mapspace)
    (hwmodel.square_tiles, ("op", "accel")),
    (hwmodel.greedy_tiles, ("op", "accel")),
    (hwmodel.nonideal_intensity, ("op", "accel", "wide_inputs")),
    (mapspace.validate, ("m", "accel")),
    (mapspace.evaluate, ("m", "accel")),
    (mapspace.random_mapping, ("nest", "accel", "seed")),
    (mapspace.sample_costs, ("nest", "accel", "n", "seed")),
    (mapspace.sample_stats, ("nest", "accel", "n", "seed")),
    (mapspace.exhaustive_best, ("nest", "accel")),
    # the walk returns its drained bytes apart; each caller decides what to overlap
    (hwmodel._tile_grid, ("op", "plan", "accel")),
]


def _id(value):
    return value.__qualname__ if callable(value) else None


@pytest.mark.parametrize("fn, params", SIGNATURES, ids=_id)
def test_parameters_are_pinned(fn, params):
    assert tuple(inspect.signature(fn).parameters) == params


def test_accelerator_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(hwmodel.AcceleratorConfig))
    assert fields == ("pe_width", "scratchpad_bytes", "accumulator_bytes", "dram_bw",
                      "sfu_vector_latency", "energy")


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
