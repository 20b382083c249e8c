"""The benchmark's own tests: inputs, checks and tracer arithmetic.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""
import contextlib
import io
import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tfperf import cli  # noqa: E402


def _inputs(workload, seed, tmp_path, name):
    d = tmp_path / name
    d.mkdir()
    calls = workloads.build(workload, seed, str(d))
    files = {p.name: p.read_text() for p in sorted(d.iterdir())}
    argv = [tuple(a.replace(str(d), "<dir>") for a in c.argv) for c in calls]
    return [c.key for c in calls], argv, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    a = _inputs(workload, 3, tmp_path, "a")
    assert a == _inputs(workload, 3, tmp_path, "b")
    other = _inputs(workload, 4, tmp_path, "c")
    assert other[0] == a[0]  # same calls, so the reference keys hold at every seed
    assert other[1:] != a[1:]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_config_is_accepted(workload, seed, tmp_path):
    workloads.build(workload, seed, str(tmp_path))
    for p in sorted(tmp_path.iterdir()):
        if p.name.startswith("model"):
            argv = ["analyze", "--model", str(p), "--seqlen", "512", "--format", "json"]
        else:
            argv = ["latency", "--accel", str(p), "--seqlen", "512", "--format", "json"]
        rc, _, err = _run(argv)
        assert rc == 0, (p.name, err)


def _latency_record(tmp_path):
    calls = workloads.build("model-sweep", 0, str(tmp_path))
    call = next(c for c in calls if c.kind == "latency")
    rc, out, err = _run(list(call.argv))
    assert rc == 0, err
    return call, checks.record(call, out)


def test_checks_reject_a_perturbed_total(tmp_path):
    call, rec = _latency_record(tmp_path)
    assert checks.check_call(call, rec) == []
    bad = json.loads(json.dumps(rec))
    col = rec["columns"].index("latency_cycles")
    bad["rows"][-1][col] *= 1 + 1e-6
    assert any("not the sum" in e for e in checks.check_call(call, bad))


def test_reference_diff_tolerates_only_rounding(tmp_path):
    _, rec = _latency_record(tmp_path)
    col = rec["columns"].index("energy_pj")
    near, far, renamed = (json.loads(json.dumps(rec)) for _ in range(3))
    near["rows"][0][col] *= 1 + 1e-12
    far["rows"][0][col] *= 1 + 1e-6
    renamed["rows"][0][0] += "x"
    assert checks.diff(rec, near) is None
    assert checks.diff(rec, far) is not None
    assert checks.diff(rec, renamed) is not None


def test_search_checks_reject_a_dominated_front():
    call = workloads.Call("search", "search", info={"rounds": 2})
    rows = [[1.0, 5.0], [2.0, 6.0]]
    rec = {"columns": ["quality", "edp"], "rows": rows,
           "trace": [[1, 6.0, 2], [2, 5.0, 2]]}
    assert checks.check_call(call, rec) == []
    rec["rows"] = [[2.0, 5.0], [1.0, 6.0]]  # the second point is dominated
    rec["trace"][-1] = [2, 5.0, 2]
    assert any("dominated" in e for e in checks.check_call(call, rec))


def test_each_pass_is_scaled_by_the_host_slowdown_during_it():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S["interp"]
    # full speed during the first pass, half speed on average during the second
    host.series = [(0.0, {"interp": ref}), (1.0, {"interp": ref}),
                   (10.0, {"interp": ref}), (11.0, {"interp": 3 * ref})]
    assert host.slowdown("interp", -1.0, 2.0) == pytest.approx(1.0)
    assert host.slowdown("interp", 9.0, 12.0) == pytest.approx(2.0)
    # a burst that lost the CPU counts as MAX_SLOWDOWN times the reference
    host.series.append((20.0, {"interp": 30 * ref}))
    assert host.slowdown("interp", 19.0, 21.0) == pytest.approx(hostspeed.MAX_SLOWDOWN)
    # 1 s at full speed, then 2 s at half speed: 1 s either way
    passes = [{"durations": {"c": 1.0}, "wall": 1.0, "start": 0.0, "end": 1.5},
              {"durations": {"c": 2.0}, "wall": 2.0, "start": 10.0, "end": 12.0}]
    calls = [workloads.Call("c", "latency")]
    per_call, wall = worker._full_speed(calls, passes, host, "interp")
    assert per_call == pytest.approx({"c": 1.0})
    assert wall == pytest.approx(1.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


def test_tracer_self_time_on_nested_calls(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracer, "time", clock)
    t = tracer.Tracer()

    def leaf(dt):
        clock.now += dt

    def outer():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(3.0)

    def inner(dt):
        clock.now += 0.25
        traced_leaf(dt)

    traced_leaf = t.wrap("m.leaf", leaf)
    inner = t.wrap("m.inner", inner)
    t.wrap("m.outer", outer)()

    name_id, parent, start, end = t.arrays()
    names = [t.names[i] for i in name_id]
    self_s = tracer.self_times(parent, start, end)
    got = {}
    for n, s in zip(names, self_s):
        got[n] = got.get(n, 0.0) + s
    assert names == ["m.outer", "m.inner", "m.leaf", "m.inner", "m.leaf"]
    assert got == pytest.approx({"m.outer": 1.5, "m.inner": 0.5, "m.leaf": 5.0})
    assert self_s.sum() == pytest.approx(end[0] - start[0])


def test_tracer_patches_names_imported_by_value():
    def f():
        return 1

    owner = types.ModuleType("owner")
    owner.f = f
    user = types.ModuleType("user")
    user.g = f  # like `from owner import f as g`
    t = tracer.Tracer()
    t.target(owner, "f", "owner.f")
    t.install([user])
    assert owner.f is not f and user.g is owner.f
    assert user.g() == 1 and len(t) == 1
    t.uninstall()
    assert owner.f is f and user.g is f
