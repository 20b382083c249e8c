"""The parameters of the library's cost and search entry points, pinned.

Each of these takes only what some `tfperf` command or a cost rule needs: a
cost table serves the one accelerator it was built for, and the search runs
at one sequence length with one quality proxy. A knob that comes back shows
up here as a failing row.
"""
import dataclasses
import inspect

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


def test_the_search_runs_at_one_sequence_length():
    assert archsearch.SEQ_LEN == 512
    c = archsearch.baseline()
    assert all(op.kind.N == 512 for op in archsearch.candidate_ops(c)[:3])
