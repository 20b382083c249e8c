"""Config loaders on arbitrary JSON: every document loads or is rejected
cleanly, and every command reading it reports or exits 2 with one line."""
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from tfperf.archsearch import _SPACE_KEYS, space_from_json
from tfperf.cli import main
from tfperf.hwmodel import _ACCEL_KEYS, _ENERGY_KEYS, InfeasibleConfigError, accel_from_json
from tfperf.workload import _MODEL_KEYS, ConfigError, model_from_json

from conftest import strict_json

# json.dumps writes NaN and inf as NaN and Infinity, which json.loads reads
# back; this string becomes the literal 1e400, which json.loads reads as inf
HUGE = "__1e400__"

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-4, 5000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 16.0, 16.7, 1e-300, 1e308]),
    st.just(HUGE),
    st.sampled_from(["16", "16.0", "1e400", "nan", "-inf", " 7 ", "0x10", "", "encoder",
                     "decoder", "cnn"]),
    st.text(max_size=6),
)
values = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def objects(plausible: dict, keys) -> st.SearchStrategy:
    """Objects of plausible values with up to two keys (or an unknown one) set
    to arbitrary values and up to two keys dropped."""
    def edit(doc, wild, dropped):
        doc = {**doc, **wild}
        for k in dropped:
            doc.pop(k, None)
        return doc
    return st.builds(edit, st.fixed_dictionaries(plausible),
                     st.dictionaries(st.sampled_from(tuple(keys) + ("bogus",)), values,
                                     max_size=2),
                     st.sets(st.sampled_from(keys), max_size=2))


def documents(plausible: dict, keys) -> st.SearchStrategy:
    return st.one_of(objects(plausible, keys), objects(plausible, keys), values)


ENERGY = {"mac": st.floats(0.1, 2.0), "spad": st.floats(1.0, 10.0),
          "acc": st.floats(1.0, 20.0), "dram": st.sampled_from([50, 200.0, "300"])}
ACCEL = {"pe_width": st.sampled_from([1, 4, 16, 16.0, "8"]),
         "scratchpad_kb": st.sampled_from([0.5, 16, 64, 256, "32"]),
         "accumulator_kb": st.sampled_from([0.5, 16, 64, 256, "32"]),
         "dram_bytes_per_cycle": st.floats(0.1, 16.0),
         "sfu_cycles_per_vector": st.floats(0.5, 4.0),
         "energy": objects(ENERGY, _ENERGY_KEYS)}
MODEL = {"name": st.text(max_size=6), "layers": st.integers(1, 3),
         "d": st.sampled_from([64, 96, 128.0]), "heads": st.sampled_from([1, 2, 4]),
         "d_ffn": st.sampled_from([64, 256, "128"]), "seq_len": st.integers(1, 256),
         "mode": st.sampled_from(["encoder", "decoder"]),
         "act_bytes": st.sampled_from([1, 2]), "weight_bytes": st.sampled_from([1, 2])}
SPACE = {k: st.lists(st.integers(1, 1024), min_size=1, max_size=4) for k in _SPACE_KEYS}


def as_text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(HUGE), "1e400")


def check_loads_or_rejects(loader, doc, **kw):
    text = as_text(doc)
    parsed = json.loads(text)
    # a loader reads a str argument as JSON text, anything else as parsed JSON
    for form in (text,) if isinstance(parsed, str) else (text, parsed):
        try:
            cfg = loader(form, **kw)
        except (ConfigError, InfeasibleConfigError):
            continue
        cfg.check()


@settings(max_examples=300, deadline=None)
@given(doc=documents(ACCEL, _ACCEL_KEYS))
def test_accel_from_json_fuzz(doc):
    check_loads_or_rejects(accel_from_json, doc)


@settings(max_examples=300, deadline=None)
@given(doc=documents(MODEL, _MODEL_KEYS), seq_len=st.one_of(st.none(), st.integers(1, 512)))
def test_model_from_json_fuzz(doc, seq_len):
    check_loads_or_rejects(model_from_json, doc, seq_len=seq_len)


@settings(max_examples=300, deadline=None)
@given(doc=documents(SPACE, _SPACE_KEYS))
def test_space_from_json_fuzz(doc):
    check_loads_or_rejects(space_from_json, doc)


def check_commands_report_or_exit_2(path, doc, option, argvs):
    """Each command run on `doc` as its `option` file either exits 2 with one
    error line alone, or exits 0 with a strict JSON report and no warning."""
    path.write_text(as_text(doc))
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main([*argv, option, str(path), "--format", "json"])
        assert [str(w.message) for w in caught] == [], argv
        if code == 2:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv
        else:
            assert (code, err.getvalue()) == (0, ""), argv
            strict_json(out.getvalue())


# a small model for the accelerator documents to cost
SMALL_MODEL = {"layers": 1, "d": 64, "heads": 2, "d_ffn": 128, "seq_len": 32}


@settings(max_examples=50, deadline=None)
@given(doc=documents(ACCEL, _ACCEL_KEYS))
def test_commands_on_fuzzed_accel_documents(tmp_path_factory, doc):
    root = tmp_path_factory.getbasetemp()
    model = root / "small_model.json"
    model.write_text(json.dumps(SMALL_MODEL))
    check_commands_report_or_exit_2(root / "accel.json", doc, "--accel", [
        ["latency", "--model", str(model)],
        ["nonideal-ai", "--model", str(model)],
        ["memsweep", "--model", str(model), "--total-kb", "64"],
        ["fusion", "--pair", "qk-softmax", "--acc-kb", "32", "--seqlen", "64"],
        ["mapsearch", "--op", "bert.qk", "--samples", "50"],
        ["search", "--pop", "4", "--rounds", "1"],
    ])


@settings(max_examples=80, deadline=None)
@given(doc=documents(MODEL, _MODEL_KEYS))
def test_commands_on_fuzzed_model_documents(tmp_path_factory, doc):
    check_commands_report_or_exit_2(tmp_path_factory.getbasetemp() / "model.json", doc,
                                    "--model", [["analyze"], ["latency"], ["memsweep"]])


@settings(max_examples=80, deadline=None)
@given(doc=documents(SPACE, _SPACE_KEYS))
def test_commands_on_fuzzed_space_documents(tmp_path_factory, doc):
    check_commands_report_or_exit_2(tmp_path_factory.getbasetemp() / "space.json", doc,
                                    "--space", [["search", "--pop", "4", "--rounds", "1"]])


def test_fuzz_text_carries_non_finite_numbers():
    assert math.isinf(json.loads(as_text({"x": HUGE}))["x"])
    assert math.isnan(json.loads(as_text({"x": math.nan}))["x"])


@pytest.mark.parametrize("option, argv, text", [
    ("--accel", ["latency", "--seqlen", "64"], '{"scratchpad_kb": 1e400, "pe_width": 16}'),
    ("--model", ["analyze"], '{"layers": 2, "d": NaN, "heads": 4, "d_ffn": 256}'),
    ("--space", ["search", "--pop", "4", "--rounds", "1"], '{"layer_counts": ["3"]}'),
], ids=["accel", "model", "space"])
def test_fuzzed_kind_of_document_exits_2(tmp_path, capsys, option, argv, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main(argv + [option, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
