"""CLI: argument handling, exit codes, CSV/JSON emission, determinism."""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tfperf import cli, hwmodel, mapspace
from tfperf.archsearch import space_from_json
from tfperf.cli import COMMANDS, build_parser, main
from tfperf.hwmodel import _shape_key, accel_preset
from tfperf.workload import model_ops, model_preset, resnet50_ops

from conftest import DECODER3, strict_json
from test_archsearch import _reference_evolve


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_analyze_ok(capsys):
    code, out, err = run(capsys, "analyze", "--model", "bert-base")
    assert code == 0
    assert err == ""
    rows = rows_of(out)
    assert len(rows) == 144  # 12 layers x 12 operator records


def test_bad_seqlen_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--seqlen", "0")
    assert code == 2
    assert err.startswith("error:")


def test_unknown_model_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--model", "alexnet")
    assert code == 2
    assert "alexnet" in err


def test_model_file_with_accum_bytes_exits_2(tmp_path, capsys):
    # the accumulator width is fixed by the hardware model, not the model file
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"layers": 1, "d": 64, "heads": 2, "d_ffn": 128,
                                "accum_bytes": 4}))
    code, out, err = run(capsys, "latency", "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown model config key(s) ['accum_bytes']")
    assert err.count("\n") == 1


def test_unknown_accel_exits_2(capsys):
    code, _, err = run(capsys, "latency", "--accel", "tpu")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("analyze", "--seed", "1"),
    ("latency", "--seed", "1"),
    ("nonideal-ai", "--seed", "1"),
    ("memsweep", "--seed", "1"),
    ("fusion", "--seed", "1"),
    ("analyze", "--accel", "gemmini-baseline"),
], ids=lambda a: "-".join(a[:2]))
def test_option_no_handler_reads_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_unknown_mapsearch_op_exits_2(capsys):
    code, _, err = run(capsys, "mapsearch", "--op", "bert.nope", "--samples", "8")
    assert code == 2
    assert "bert.nope" in err


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) "
                "and data type int64"),
    MemoryError(),
], ids=["numpy-message", "bare"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_of_memory_exits_2(capsys, monkeypatch, exc, fmt):
    """A --samples count no array can hold ends in one error line, not a
    traceback. The sampler is made to raise, as numpy's allocation would:
    on a host that overcommits memory a real draw would try to fill it."""
    def sample_costs(*args):
        raise exc

    monkeypatch.setattr(mapspace, "sample_costs", sample_costs)
    code, out, err = run(capsys, "mapsearch", "--op", "bert.qk",
                         "--samples", "100000000000", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert str(exc) in err


def test_unwritable_out_exits_3(capsys):
    code, _, err = run(capsys, "analyze", "--out", "/nonexistent/dir/x.csv")
    assert code == 3
    assert err.startswith("io error:")


def test_missing_config_file_exits_3(capsys):
    code, _, err = run(capsys, "analyze", "--model", "/nonexistent/model.json")
    assert code == 3


# ---------------------------------------------------------------------------
# analyze / latency / nonideal-ai
# ---------------------------------------------------------------------------

def test_analyze_spot_values(capsys):
    _, out, _ = run(capsys, "analyze", "--model", "bert-base", "--seqlen", "512")
    wq = next(r for r in rows_of(out) if r["name"] == "L0.wq")
    assert int(wq["flops"]) == 2 * 768 * 768 * 512
    assert int(wq["mops"]) == 768 * 768 + 2 * 768 * 512
    assert float(wq["arithmetic_intensity"]) == pytest.approx(438.857, abs=1e-3)
    assert wq["category"] == "MHA (projections)"


def test_latency_total_row(capsys):
    _, out, _ = run(capsys, "latency")
    rows = rows_of(out)
    assert rows[-1]["name"] == "total"
    body = rows[:-1]
    total = sum(float(r["latency_cycles"]) for r in body)
    assert float(rows[-1]["latency_cycles"]) == pytest.approx(total, rel=1e-9)


def test_nonideal_ai_model_row(capsys):
    _, out, _ = run(capsys, "nonideal-ai")
    rows = rows_of(out)
    assert rows[-1]["name"] == "model"
    for r in rows[:-1]:
        assert float(r["nonideal_ai"]) <= float(r["ideal_ai"]) + 1e-9, r["name"]


@pytest.mark.parametrize("command", ["latency", "nonideal-ai"])
def test_costing_command_costs_each_distinct_operator_once(capsys, monkeypatch, command):
    calls = []
    op_latency = hwmodel.op_latency

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return op_latency(*args, **kwargs)

    monkeypatch.setattr(hwmodel, "op_latency", counted)
    ops = model_ops(model_preset("bert-base", 512))
    distinct = {_shape_key(op) for op in ops}
    counts = []
    for _ in range(2):  # no table survives an invocation
        calls.clear()
        assert main([command, "--model", "bert-base"]) == 0
        capsys.readouterr()
        counts.append(len(calls))
    assert counts == [len(distinct)] * 2
    assert len(distinct) < len(ops)


# ---------------------------------------------------------------------------
# memsweep / fusion
# ---------------------------------------------------------------------------

def test_memsweep_best_row(capsys):
    _, out, _ = run(capsys, "memsweep", "--total-kb", "320")
    rows = rows_of(out)
    assert len(rows) == 19
    best = [r for r in rows if r["best"] == "True"]
    assert len(best) == 1
    assert (int(best[0]["scratchpad_kb"]), int(best[0]["accumulator_kb"])) == (64, 256)


def test_fusion_default_grid(capsys):
    _, out, _ = run(capsys, "fusion")
    rows = rows_of(out)
    assert len(rows) == 3 * 2 * 2
    assert {r["pair"] for r in rows} == {"qk-softmax", "wout-ln", "ffn2-ln"}
    qk = [r for r in rows if r["pair"] == "qk-softmax"]
    assert all(r["verdict"] == "FusionWins" for r in qk)


def test_fusion_single_cell(capsys):
    _, out, _ = run(capsys, "fusion", "--pair", "qk-softmax",
                    "--acc-kb", "128", "--seqlen", "512")
    rows = rows_of(out)
    assert len(rows) == 1
    assert float(rows[0]["fused_latency"]) == 1187840.0
    assert rows[0]["feasible"] == "True"


def test_fusion_repeated_pair_collapses(capsys):
    _, once, _ = run(capsys, "fusion", "--pair", "ffn2-ln", "--pair", "qk-softmax",
                     "--acc-kb", "128", "--seqlen", "512")
    _, repeated, _ = run(capsys, "fusion", "--pair", "ffn2-ln", "--pair", "qk-softmax",
                         "--pair", "ffn2-ln", "--acc-kb", "128", "--acc-kb", "128",
                         "--seqlen", "512", "--seqlen", "512")
    assert repeated == once
    assert [r["pair"] for r in rows_of(repeated)] == ["ffn2-ln", "qk-softmax"]


# ---------------------------------------------------------------------------
# mapsearch
# ---------------------------------------------------------------------------

def test_mapsearch_csv_deterministic(capsys):
    args = ("mapsearch", "--op", "bert.mha", "--samples", "100", "--seed", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert len(out1.splitlines()) == 101  # header + one row per sample
    rows = rows_of(out1)
    rel = [float(r["relative_edp"]) for r in rows]
    assert min(rel) == 1.0


def test_mapsearch_json_stats(capsys):
    _, out, _ = run(capsys, "mapsearch", "--op", "bert.qk", "--samples", "64",
                    "--seed", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["generated_by"].startswith("tfperf mapsearch")
    (row,) = doc["rows"]
    assert row["n_samples"] == 64
    assert set(row) == {"n_samples", "min_edp", "p10", "spread", "frac_within_3x"}
    assert row["spread"] >= 1.0


def test_mapsearch_json_samples_once(capsys, monkeypatch):
    calls = []
    sample_costs = mapspace.sample_costs

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_costs(*args, **kwargs)

    monkeypatch.setattr(mapspace, "sample_costs", counted)
    _, out, _ = run(capsys, "mapsearch", "--op", "resnet.c3", "--samples", "3000",
                    "--seed", "9", "--format", "json")
    assert len(calls) == 1
    monkeypatch.undo()
    (row,) = json.loads(out)["rows"]
    s = mapspace.sample_stats(mapspace.NAMED_NESTS["resnet.c3"],
                              accel_preset("gemmini-baseline"), 3000, 9)
    assert row == {"n_samples": s.n_samples, "min_edp": s.min_edp, "p10": s.p10,
                   "spread": s.spread, "frac_within_3x": s.frac_within(3.0)}


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_csv_trace(capsys):
    _, out, _ = run(capsys, "search", "--pop", "8", "--rounds", "3", "--seed", "2")
    rows = rows_of(out)
    assert [int(r["round"]) for r in rows] == [1, 2, 3]
    best = [float(r["best_edp"]) for r in rows]
    assert all(b <= a for a, b in zip(best, best[1:]))


def test_search_json_front_and_trace(capsys):
    _, out, _ = run(capsys, "search", "--pop", "8", "--rounds", "3",
                    "--seed", "2", "--format", "json")
    doc = json.loads(out)
    assert len(doc["trace"]) == 3
    assert doc["rows"]
    for c in doc["rows"]:
        assert len(c["h"]) == c["N"] and len(c["d_FFN"]) == c["N"]
        assert c["edp"] > 0 and c["quality"] > 0


def test_search_rejects_bad_pop(capsys):
    code, _, err = run(capsys, "search", "--pop", "1", "--rounds", "1")
    assert code == 2


@pytest.mark.parametrize("mutation", ["5", "nan"])
def test_search_rejects_bad_mutation_probability(capsys, mutation):
    # at pop 2 the front fills the population, so no child is ever mutated
    code, out, err = run(capsys, "search", "--pop", "2", "--rounds", "3",
                         "--mutation", mutation, "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: mutation probability must be in [0, 1]")
    assert err.count("\n") == 1


def test_search_on_accel_fitting_no_operator_exits_2(tmp_path, capsys):
    accel = tmp_path / "tiny.json"
    accel.write_text(json.dumps({"scratchpad_kb": 0.0625, "accumulator_kb": 0.0625}))
    code, out, err = run(capsys, "search", "--accel", str(accel), "--pop", "4",
                         "--rounds", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: no candidate fits the accelerator")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc", ["[1, 2]", '{"model_dims": 5}', '{"model_dims": [400.9]}',
                                 '{"heads_per_layer": [true]}', '{"model_dim": [384]}'])
def test_malformed_space_exits_2(tmp_path, capsys, doc):
    space = tmp_path / "space.json"
    space.write_text(doc)
    code, _, err = run(capsys, "search", "--space", str(space), "--pop", "4", "--rounds", "1")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc", ['{"energy": 5}', '{"dram_bytes_per_cycle": "nan"}',
                                 '{"scratchpad_kb": 1e400}', '{"energy": {"mac": "inf"}}',
                                 '{"pe_width": true}', '{"pe_width": 16.7}',
                                 '{"pe_widht": 8}', '{"energy": {"dram_pj": 100}}',
                                 '{"energy": {"mac": -50, "acc": -50}}'])
def test_malformed_accel_exits_2(tmp_path, capsys, doc):
    accel = tmp_path / "accel.json"
    accel.write_text(doc)
    code, _, err = run(capsys, "latency", "--accel", str(accel), "--seqlen", "64")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


_MODEL = '"layers": 2, "d": 128, "heads": 4, "d_ffn": 256'


@pytest.mark.parametrize("doc", ['{"layers": true, "d": 128, "heads": 4, "d_ffn": 256}',
                                 '{"layers": 1.7, "d": 128, "heads": 4, "d_ffn": 256}',
                                 "{" + _MODEL + ', "weight_bytes": 2.5}',
                                 "{" + _MODEL + ', "model_dim": 768}', "[2, 128]",
                                 "{" + _MODEL + ', "mode": "cnn"}'])
def test_malformed_model_exits_2(tmp_path, capsys, doc):
    model = tmp_path / "model.json"
    model.write_text(doc)
    code, _, err = run(capsys, "analyze", "--model", str(model), "--seqlen", "64")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_model_named_resnet50_runs_its_own_dims(tmp_path, capsys):
    model = tmp_path / "r.json"
    model.write_text('{"name": "resnet50", "layers": 2, "d": 64, "heads": 2, "d_ffn": 128}')
    code, out, _ = run(capsys, "analyze", "--model", str(model))
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 2 * 12
    wq = rows[0]
    assert (wq["name"], wq["category"]) == ("L0.wq", "MHA (projections)")
    assert int(wq["flops"]) == 2 * 64 * 64 * 512


def test_resnet50_preset_rows(capsys):
    code, out, _ = run(capsys, "analyze", "--model", "resnet50")
    assert code == 0
    rows = rows_of(out)
    assert [r["name"] for r in rows] == [op.name for op in resnet50_ops()]
    cats = {r["name"]: r["category"] for r in rows}
    assert (cats["conv1"], cats["conv1.bn"], cats["conv1.relu"], cats["maxpool"]) == (
        "Convolution", "BatchNorm", "ReLU", "Other")


# ---------------------------------------------------------------------------
# Config files, output files, report envelope
# ---------------------------------------------------------------------------

def test_config_file_ingestion(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"layers": 2, "d": 128, "heads": 4, "d_ffn": 256, "mode": "encoder"}))
    accel = tmp_path / "accel.json"
    accel.write_text(json.dumps(
        {"pe_width": 16, "scratchpad_kb": 64, "accumulator_kb": 32}))
    code, out, _ = run(capsys, "latency", "--model", str(model),
                       "--accel", str(accel), "--seqlen", "64")
    assert code == 0
    assert len(rows_of(out)) == 2 * 12 + 1


def test_analyze_uses_model_file_seq_len_unless_flag_given(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"layers": 1, "d": 64, "heads": 4, "d_ffn": 256,
                                 "mode": "encoder", "seq_len": 64}))
    for flag, seq_len in (((), 64), (("--seqlen", "512"), 512)):
        _, out, _ = run(capsys, "analyze", "--model", str(model), *flag)
        wq = next(r for r in rows_of(out) if r["name"] == "L0.wq")
        assert int(wq["flops"]) == 2 * 64 * 64 * seq_len


@pytest.mark.parametrize("command", ["analyze", "latency", "nonideal-ai", "memsweep"])
def test_seqlen_flag_wins_over_model_file(tmp_path, capsys, command):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"layers": 1, "d": 128, "heads": 4, "d_ffn": 256,
                                 "mode": "decoder", "seq_len": 96}))
    outs = {flag: run(capsys, command, "--model", str(model), *flag)
            for flag in ((), ("--seqlen", "96"), ("--seqlen", "512"))}
    assert all(code == 0 for code, _, _ in outs.values())
    assert outs[()] == outs[("--seqlen", "96")]
    assert outs[()] != outs[("--seqlen", "512")]
    # a preset has no seq_len of its own: 512
    assert run(capsys, command) == run(capsys, command, "--seqlen", "512")


def test_space_file_ingestion(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"layer_counts": [3], "model_dims": [384],
                                 "heads_per_layer": [4],
                                 "ffn_dims_per_layer": [768]}))
    code, out, _ = run(capsys, "search", "--space", str(space),
                       "--pop", "4", "--rounds", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert all(c["N"] == 3 and c["d"] == 384 for c in doc["rows"])
    assert len(doc["rows"]) == 1  # one-point space collapses to one candidate


def test_search_on_single_valued_genes_matches_the_candidate_search(tmp_path, capsys):
    # a one-value gene is drawn from integers(1), which numpy answers without
    # drawing, so the draws of every other gene must not shift
    doc = {"layer_counts": [3], "model_dims": [480], "heads_per_layer": [4, 8],
           "ffn_dims_per_layer": [768, 1024, 2048]}
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "search", "--space", str(space), "--pop", "24",
                       "--rounds", "6", "--seed", "3", "--format", "json")
    assert code == 0
    want = _reference_evolve(space_from_json(doc), accel_preset("gemmini-baseline"),
                             pop=24, rounds=6, seed=3)
    got = json.loads(out)
    assert [(c["N"], c["d"], tuple(c["h"]), tuple(c["d_FFN"]), c["quality"], c["edp"])
            for c in got["rows"]] == [(c.N, c.d, c.h, c.d_FFN, c.quality, c.edp)
                                      for c in want.points]
    assert [tuple(r.values()) for r in got["trace"]] == list(want.trace)


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "report.csv"
    code, out_direct, _ = run(capsys, "analyze", "--seqlen", "128")
    code2, out_filed, _ = run(capsys, "analyze", "--seqlen", "128",
                              "--out", str(path))
    assert code == code2 == 0
    assert out_filed == ""  # written to the file instead
    assert path.read_text() == out_direct


def test_json_envelope_keys(capsys):
    _, out, _ = run(capsys, "analyze", "--format", "json", "--seqlen", "128")
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "generated_by", "rows"]
    assert doc["schema_version"] == "1"
    assert doc["generated_by"] == "tfperf analyze --format json --seqlen 128"


def test_csv_has_no_metadata_lines(capsys):
    _, out, _ = run(capsys, "memsweep")
    first = out.splitlines()[0]
    assert first == "scratchpad_kb,accumulator_kb,latency_cycles,feasible,best"


EVERY_COMMAND_ARGVS = [
    ("analyze", "--seqlen", "128"),
    ("analyze", "--model", "resnet50"),
    ("latency", "--seqlen", "256"),
    ("nonideal-ai", "--model", "gpt2", "--seqlen", "128"),
    ("memsweep",),
    ("mapsearch", "--op", "bert.qk", "--samples", "300", "--seed", "4"),
    ("fusion", "--acc-kb", "64", "--seqlen", "512"),
    ("search", "--pop", "6", "--rounds", "3", "--seed", "1"),
]


def as_list(column) -> list:
    """A table column as Python values: an array's cells as Python numbers."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def handler_table(argv) -> tuple:
    args = build_parser().parse_args(list(argv))
    return args.func(args)


def dictwriter_text(names, columns) -> str:
    oracle = io.StringIO()
    w = csv.DictWriter(oracle, fieldnames=names, lineterminator="\n")
    w.writeheader()
    w.writerows(dict(zip(names, row)) for row in zip(*map(as_list, columns)))
    return oracle.getvalue()


@pytest.mark.parametrize("argv", EVERY_COMMAND_ARGVS, ids=lambda a: "-".join(a[:3]))
def test_csv_bytes_match_dictwriter(capsys, argv):
    (names, columns), _ = handler_table(argv)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == dictwriter_text(names, columns)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", EVERY_COMMAND_ARGVS, ids=lambda a: "-".join(a[:3]))
def test_every_row_has_one_value_per_column(argv, fmt):
    """Each table has one column per name, all of one nonzero length; a
    column is a list or a 1-D int64/float64 array, and the mapsearch dump
    keeps its five columns in arrays."""
    table, extra = handler_table([*argv, "--format", fmt])
    for names, columns in [table, *extra.values()]:
        assert len(columns) == len(names)
        assert len({len(column) for column in columns}) == 1 and len(columns[0])
        for column in columns:
            assert type(column) is list or (type(column) is np.ndarray and column.ndim == 1
                                            and column.dtype in (np.int64, np.float64))
    if argv[0] == "mapsearch" and fmt == "csv":
        assert [type(column) for column in table[1]] == [np.ndarray] * 5


def csv_writer_text(names, columns) -> str:
    oracle = io.StringIO()
    w = csv.writer(oracle, lineterminator="\n")
    w.writerow(names)
    w.writerows(zip(*map(as_list, columns)))
    return oracle.getvalue()


def emit_csv(names, columns) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        written = cli.emit({}, {"rows": (names, columns)}, "csv", None)
    return out.getvalue(), written


# 0.0 and -0.0 differ in their bits and text; NaNs of either sign print "nan"
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16,
                  0.1, 1.0, -2.5e-7, 1.7976931348623157e308]


@st.composite
def number_tables(draw, wide_ints=False):
    """(names, columns): one int column among 1-4 float64 array columns, each
    float column every SPECIAL_FLOATS value and a few drawn ones, heavily
    repeated. The int column is an int64 array, or with `wide_ints` a list of
    ints up to 2**70 in size, which no int64 array holds."""
    n_rows = draw(st.integers(len(SPECIAL_FLOATS) + 6, 120))
    float_columns = []
    for _ in range(draw(st.integers(1, 4))):
        pool = SPECIAL_FLOATS + draw(st.lists(st.floats(), min_size=1, max_size=6))
        picks = draw(st.lists(st.sampled_from(pool), min_size=n_rows - len(pool),
                              max_size=n_rows - len(pool)))
        float_columns.append(np.array(draw(st.permutations(pool + picks)), dtype=np.float64))
    if wide_ints:
        ints = draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n_rows, max_size=n_rows))
    else:
        ints = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n_rows,
                                      max_size=n_rows)), dtype=np.int64)
    columns = float_columns[:]
    columns.insert(draw(st.integers(0, len(float_columns))), ints)
    names = draw(st.lists(st.text(max_size=4), min_size=len(columns), max_size=len(columns)))
    return names, columns


@settings(max_examples=100, deadline=None)
@given(number_tables())
def test_emit_csv_matches_csv_writer_on_number_tables(table):
    names, columns = table
    expected = csv_writer_text(names, columns)
    text, written = emit_csv(names, columns)
    assert text == expected
    assert written == len(expected.encode("utf-8"))


@settings(max_examples=50, deadline=None)
@given(number_tables(wide_ints=True))
def test_emit_csv_matches_csv_writer_on_wide_int_tables(table):
    names, columns = table
    expected = csv_writer_text(names, columns)
    text, written = emit_csv(names, columns)
    assert text == expected
    assert written == len(expected.encode("utf-8"))


NOT_NUMBERS = st.one_of(st.text(max_size=4), st.booleans(), st.just(""),
                        st.floats().map(np.float64), st.none())


@settings(max_examples=100, deadline=None)
@given(number_tables(), st.data())
def test_emit_csv_matches_csv_writer_on_other_tables(table, data):
    names, columns = table
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(columns[0]) - 1))
        j = data.draw(st.integers(0, len(columns) - 1))
        columns[j] = as_list(columns[j])
        columns[j][i] = data.draw(NOT_NUMBERS)
    expected = csv_writer_text(names, columns)
    text, written = emit_csv(names, columns)
    assert text == expected
    assert written == len(expected.encode("utf-8"))


@pytest.mark.parametrize("names, columns", [
    (["a", "b"], [[], []]),
    (["a", "b"], [np.array([], dtype=np.int64), np.array([], dtype=np.float64)]),
    ([], []),
], ids=["empty", "empty-arrays", "no-columns"])
def test_emit_csv_matches_csv_writer_on_odd_tables(names, columns):
    text, written = emit_csv(names, columns)
    assert text == csv_writer_text(names, columns)
    assert written == len(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("key", ["rows", "trace"])
@pytest.mark.parametrize("names, columns", [
    (["a", "b"], [[1, 3], [2.0]]),
    (["a", "b"], [[1, 3], np.array([2.0, 4.0, 5.0])]),
    (["a", "b"], [[1, 3]]),
    (["a"], [[1, 3], [2.0, 4.0]]),
    ([], [[1, 3]]),
], ids=["short-column", "long-column", "missing-column", "extra-column", "no-names"])
def test_emit_rejects_misshapen_tables(capsys, names, columns, key, fmt):
    """Either format refuses a table without one column per name, all of one
    length, whichever table of the report it is, and writes nothing."""
    tables = {"rows": (["n"], [[1, 2]]), key: (names, columns)}
    with pytest.raises(ValueError, match=repr(key)):
        cli.emit({}, tables, fmt, None)
    assert capsys.readouterr().out == ""


def test_mapsearch_csv_dump_matches_dictwriter(tmp_path, capsys, monkeypatch):
    # at 20k samples the costs repeat
    argv = ["mapsearch", "--op", "bert.mha", "--samples", "20000", "--seed", "7"]
    (names, columns), _ = handler_table(argv)
    assert len(set(columns[1].tolist())) < len(columns[1]) // 10
    expected = dictwriter_text(names, columns)

    written = []
    emit = cli.emit
    monkeypatch.setattr(cli, "emit", lambda *a: written.append(emit(*a)) or written[-1])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected
    path = tmp_path / "dump.csv"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes() == expected.encode("utf-8")
    assert written == [len(expected)] * 2


def test_emit_counts_utf8_bytes(tmp_path):
    names = ["índice", "édp"]
    path = tmp_path / "t.csv"
    header = {"schema_version": "1", "generated_by": "tfperf analyze --model modèle"}
    for columns in ([np.array([1, 2]), np.array([0.5, -0.0])], [[1, 2], [0.5, -0.0]]):
        written = cli.emit({}, {"rows": (names, columns)}, "csv", str(path))
        assert written == len(path.read_bytes()) == len(csv_writer_text(names, columns)) + 2
        written = cli.emit(header, {"rows": (names, columns)}, "json", str(path))
        assert written == len(path.read_bytes())


# text with quotes, backslashes, control characters and non-ASCII letters
JSON_TEXT = st.text(st.sampled_from('ab"\\\n\t\x00\x1f\x7fé€😀') | st.characters(), max_size=6)
JSON_SCALARS = st.one_of(
    JSON_TEXT, st.just(""), st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]), st.floats())
JSON_CELLS = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)


@st.composite
def json_tables(draw, cells):
    """(names, columns): 0-3 columns and 0-5 rows of `cells`; a column of
    floats alone may be a float64 array."""
    names = draw(st.lists(JSON_TEXT, max_size=3))
    rows = draw(st.lists(st.tuples(*[cells] * len(names)), max_size=5))
    columns = [list(column) for column in zip(*rows)] or [[] for _ in names]
    return names, [np.array(column, dtype=np.float64)
                   if {type(v) for v in column} == {float} and draw(st.booleans()) else column
                   for column in columns]


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(JSON_TEXT, JSON_TEXT, max_size=3),
       json_tables(st.one_of(JSON_SCALARS, JSON_CELLS)),
       st.dictionaries(JSON_TEXT, json_tables(JSON_SCALARS), max_size=2))
@example({}, (["%s", "a%d%%"], [["%s", "%"], ["100%", "%(x)s"]]), {})  # % in names and cells
@example({}, (["x", "y", "x"], [[1, 2], [3, 4], [5, 6]]), {})  # a repeated name
@example({"trace": "t", "rows": "r", "a": "b"}, (["n"], [[1]]),
         {"trace": (["round"], [[0, 1]])})  # table keys equal to header keys
@example({}, (["a", "b"], [[], []]), {"trace": ([], [])})  # zero-row tables
@example({}, (["h", "n"], [[[], [1]], [2, 3]]), {})  # an empty list cell
@example({}, (["h", "d_FFN"], [[(4, 8), (2,)], [(), (1024, 4096)]]), {})  # tuples, as search's
@example({}, (["x", "h"], [[np.float64(0.5), np.float64(-0.0)],
                           [[np.float64(1e300)], [np.float64(5e-324), 1]]]), {})  # np.float64
@example({}, (["x"], [[np.float64(math.inf)]]), {})  # not JSON: nothing is written
def test_emit_json_matches_indented_dumps(header, rows_table, extra):
    # extra tables, as `search`'s trace is, of scalar cells only
    tables = {**extra, "rows": rows_table}
    report = {**header, **{key: [dict(zip(names, row)) for row in zip(*map(as_list, columns))]
                           for key, (names, columns) in tables.items()}}
    out = io.StringIO()
    try:
        expected = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:  # NaN or an infinity: no report, and nothing written
        with contextlib.redirect_stdout(out), pytest.raises(ValueError):
            cli.emit(header, tables, "json", None)
        assert out.getvalue() == ""
        return
    with contextlib.redirect_stdout(out):
        written = cli.emit(header, tables, "json", None)
    assert out.getvalue() == expected
    assert written == len(expected.encode("utf-8"))


def test_emit_json_encodes_scalar_tables_without_indent(monkeypatch):
    """Each column is encoded in one call, and no call indents: the
    indenting encoder is pure Python. A column with list cells, as `search`
    rows have, takes one more call per cell, and neither a row nor the whole
    report is ever encoded as one object."""
    calls = []
    iterencode = json.JSONEncoder.iterencode
    monkeypatch.setattr(json.JSONEncoder, "iterencode", lambda self, o, *a, **kw:
                        calls.append((self.indent, type(o), o)) or iterencode(self, o, *a, **kw))
    header = {"schema_version": "1", "generated_by": "tfperf"}
    scalar_table = (["n", "x", "s", "z", "b"],
                    [np.array([1, 2]), np.array([0.5, 1.5]), ["a", "b"], [None, None],
                     [True, False]])
    emit_text = io.StringIO()
    with contextlib.redirect_stdout(emit_text):
        cli.emit(header, {"trace": scalar_table, "rows": scalar_table}, "json", None)
        assert [(indent, kind) for indent, kind, _ in calls] == [(None, list)] * 10
        calls.clear()
        cli.emit(header, {"rows": (["n", "h", "d_FFN"], [[1, 2], [(2, 3), (4,)], [[], [8]]])},
                 "json", None)
    assert {indent for indent, _, _ in calls} == {None}
    assert [o for _, _, o in calls] == [[1, 2], [(2, 3), (4,)], (2, 3), (4,), [[], [8]], [], [8]]


# ---------------------------------------------------------------------------
# Argument parsing: one parser per process, a freshly built one as oracle
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of `main(argv)`, argparse's exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_parser_outcome(capsys, monkeypatch, argv) -> tuple:
    """What `main(argv)` gives when it parses with a parser built for it alone."""
    with monkeypatch.context() as m:
        m.setattr(cli, "build_parser", build_parser.__wrapped__)
        return outcome(capsys, argv)


def parse_argvs():
    yield from ([], ["-h"], ["bogus"])
    for command in COMMANDS:
        int_option = {"mapsearch": "--samples", "search": "--pop"}.get(command, "--seqlen")
        foreign = ("--seqlen" if command in ("mapsearch", "search") else "--samples", "1")
        yield [command, "-h"]
        yield [command, "--bogus"]
        yield [command, "--format", "xml"]
        yield [command, int_option, "x"]
        yield [command, *foreign]
        yield [command, "--for", "json"]
    # valid calls that repeat options, abbreviate them or join their values
    # with "=": an append list or a stored value must not outlive its call
    yield ["fusion", "--acc-kb", "16", "--acc-kb=32", "--seqlen", "64", "--seqlen=128",
           "--pair", "qk-softmax", "--pair=wout-ln", "--for", "json"]
    yield ["fusion", "--acc-kb", "64", "--seqlen", "256", "--pair", "ffn2-ln"]
    yield ["latency", "--seqlen", "64", "--seqlen=128", "--for=json"]
    yield ["memsweep", "--seqlen", "64", "--total=256", "--model", "gpt2"]
    yield ["mapsearch", "--op=bert.qk", "--samp", "200", "--samples", "300", "--for", "json"]
    yield ["search", "--pop", "4", "--rou", "1", "--mut=0.5", "--format", "json"]


@pytest.mark.parametrize("argv", list(parse_argvs()), ids=lambda a: "-".join(a) or "no-args")
def test_parsing_matches_full_parser(capsys, monkeypatch, argv):
    """The parser built once per process gives, call after call, what a
    freshly built full parser gives."""
    monkeypatch.setenv("COLUMNS", "80")
    fresh = fresh_parser_outcome(capsys, monkeypatch, argv)
    assert outcome(capsys, argv) == fresh
    assert outcome(capsys, argv) == fresh


@pytest.mark.parametrize("argv", [
    ("analyze", "--seqlen", "128", "--format", "json"),  # a report
    ("bogus",),                                          # no subcommand
    ("analyze", "--bogus"),                              # an unknown argument
], ids=["subcommand", "not-a-subcommand", "arguments-left"])
def test_python_m_tfperf_matches_full_parser(capsys, monkeypatch, argv):
    """A cold `python -m tfperf` gives what `main` gives in a warm process."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "tfperf", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    monkeypatch.setenv("COLUMNS", "80")
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome(capsys, argv)


def test_parser_is_built_once_on_the_first_call(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["latency", "--seqlen", "128"]) == 0
    assert progs == ["tfperf", *(f"tfperf {c}" for c in COMMANDS)]
    with pytest.raises(SystemExit):  # an unknown argument: the same parser reports it
        main(["latency", "--bogus"])
    assert main(["analyze", "--seqlen", "64"]) == 0
    assert len(progs) == 1 + len(COMMANDS)
    capsys.readouterr()


def test_import_builds_no_parser():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import tfperf.cli as cli; "
                           "print(cli.build_parser.cache_info().currsize)"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


@pytest.mark.parametrize("argv", [
    ("latency",), ("nonideal-ai",), ("fusion",), ("search", "--pop", "4", "--rounds", "2"),
    ("memsweep", "--total-kb", "320"),
    ("mapsearch", "--samples", "1000", "--format", "json"), ("mapsearch", "--samples", "1000"),
], ids=["latency", "nonideal-ai", "fusion", "search", "memsweep", "mapsearch-json",
        "mapsearch-csv"])
def test_non_finite_costs_exit_2(tmp_path, argv):
    """A subnormal bandwidth passes the config check, but the costs it gives
    are not finite: the command prints no report and one error line alone,
    without numpy's overflow warning."""
    accel = tmp_path / "accel.json"
    accel.write_text(json.dumps({"dram_bytes_per_cycle": 1e-320}))
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "tfperf", *argv, "--accel", str(accel)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv,column", [
    (("memsweep", "--total-kb", "96", "--accel", "pe64.json"), "latency_cycles"),
    (("fusion", "--acc-kb", "8", "--seqlen", "4096", "--pair", "qk-softmax"), "fused_latency"),
], ids=["memsweep", "fusion"])
def test_infeasible_cells_are_null(tmp_path, monkeypatch, capsys, argv, column):
    """An infeasible split or fusion cell has no cost: JSON null and an empty
    CSV cell, beside feasible false; the report stays strict JSON."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pe64.json").write_text(
        json.dumps({"pe_width": 64, "scratchpad_kb": 64, "accumulator_kb": 16}))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    infeasible = [row for row in strict_json(out)["rows"] if not row["feasible"]]
    assert infeasible and all(row[column] is None for row in infeasible)
    if argv[0] == "fusion":
        assert all(row["producer_penalty"] is None for row in infeasible)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    infeasible = [row for row in rows_of(out) if row["feasible"] == "False"]
    assert infeasible and all(row[column] == "" for row in infeasible)


# ---------------------------------------------------------------------------
# Byte goldens of the costing commands
# ---------------------------------------------------------------------------

GOLDENS = Path(__file__).parent / "data" / "cli_goldens.json"
GOLDEN_COMMANDS = ("latency", "nonideal-ai", "memsweep")
GOLDEN_MODELS = ("bert-base", "bert-large", "gpt2", "resnet50", "decoder3.json")


def golden_argvs(command: str, model: str):
    for accel in ("gemmini-baseline", "gemmini-tuned"):
        for seq_len in (128, 512, 2048):
            for fmt in ("csv", "json"):
                yield [command, "--model", model, "--accel", accel,
                       "--seqlen", str(seq_len), "--format", fmt]


def digests(capsys, argvs) -> dict:
    """sha256 of stdout per argv, each JSON output parsed strictly first; the
    working directory must hold decoder3.json."""
    out = {}
    for argv in argvs:
        assert main(argv) == 0, argv
        text = capsys.readouterr().out
        if argv[argv.index("--format") + 1] == "json":
            try:
                strict_json(text)
            except ValueError as exc:
                pytest.fail(f"{' '.join(argv)}: {exc}")
        out[" ".join(argv)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def golden_digests(capsys, command: str, model: str) -> dict:
    return digests(capsys, golden_argvs(command, model))


@pytest.mark.parametrize("model", GOLDEN_MODELS)
@pytest.mark.parametrize("command", GOLDEN_COMMANDS)
def test_costing_commands_match_goldens(tmp_path, monkeypatch, capsys, command, model):
    # the model file is named relative to the working directory, so that the
    # JSON reports' generated_by echo is the same wherever the test runs
    monkeypatch.chdir(tmp_path)
    (tmp_path / "decoder3.json").write_text(json.dumps(DECODER3))
    want = json.loads(GOLDENS.read_text())
    got = golden_digests(capsys, command, model)
    assert got == {k: want[k] for k in got}


# the four commands not pinned above: every column of each, in
# both formats, pinned so that a value written under the wrong column shows
FORMATS = ("csv", "json")
ACCELS = ("gemmini-baseline", "gemmini-tuned")
FUSION_GRIDS = ((), ("--acc-kb", "16", "--acc-kb", "512", "--seqlen", "64", "--seqlen", "8192"))
OTHER_GOLDEN_ARGVS = {
    "analyze": [["analyze", "--model", model, "--seqlen", seq_len, "--format", fmt]
                for model in GOLDEN_MODELS for seq_len in ("128", "2048") for fmt in FORMATS],
    "mapsearch": [["mapsearch", "--op", op, "--accel", accel, "--samples", "500",
                   "--seed", "3", "--format", fmt]
                  for op in sorted(mapspace.NAMED_NESTS) for accel in ACCELS for fmt in FORMATS],
    "fusion": [["fusion", "--accel", accel, *grid, "--format", fmt]
               for accel in ACCELS for grid in FUSION_GRIDS for fmt in FORMATS],
    "search": [["search", "--accel", accel, "--pop", "8", "--rounds", "4", "--seed", "2",
                "--format", fmt] for accel in ACCELS for fmt in FORMATS],
}


@pytest.mark.parametrize("command", OTHER_GOLDEN_ARGVS)
def test_other_commands_match_goldens(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "decoder3.json").write_text(json.dumps(DECODER3))
    want = json.loads(GOLDENS.read_text())
    got = digests(capsys, OTHER_GOLDEN_ARGVS[command])
    assert got == {k: want[k] for k in got}
