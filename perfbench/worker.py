"""One benchmark run in a fresh interpreter: set up, run passes, report.

run.py starts this script; by hand it runs as

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
  python3 perfbench/worker.py --workload NAME --write-reference

It prints one JSON line when it is ready (tfperf.cli imported, inputs
written), then, unless --setup-only, runs whole passes of the workload until
--seconds have passed and prints one JSON line with the result. The first
pass warms up and is not timed. With --trace 1, passes alternate between
traced and untraced, so that the tracing overhead is measured in the run.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")


def _say(doc: dict) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


class CallError(Exception):
    pass


class Runner:
    """Runs the calls of one pass and checks what they return."""

    def __init__(self, calls, reference: dict | None, keep_all: bool = False):
        from hostspeed import HostSpeed
        from tfperf import cli, mapspace
        from tfperf.hwmodel import accel_from_json
        self.host = HostSpeed()
        self.calls = calls
        self.keep_all = keep_all
        self.cli = cli
        self.mapspace = mapspace
        self.reference = reference
        self.accels = {}
        for c in calls:
            if not c.is_cli:
                with open(c.info["accel"], encoding="utf-8") as f:
                    self.accels[c.key] = accel_from_json(f.read())

    def run_call(self, call):
        if not call.is_cli:
            nest = self.mapspace.NAMED_NESTS[call.info["nest"]]
            t0 = time.perf_counter()
            result = self.mapspace.exhaustive_best(nest, self.accels[call.key])
            return time.perf_counter() - t0, result
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(call.argv))
        except SystemExit as exc:  # argparse rejects arguments by exiting
            rc = exc.code
        dt = time.perf_counter() - t0
        if rc != 0:
            raise CallError(f"exit code {rc}: {err.getvalue().strip()}")
        return dt, out.getvalue()

    def run_pass(self):
        """(durations, records, errors) keyed by call; a failed call has no duration.

        Records are kept only where a later check or count reads them (all of
        them with keep_all), since the worker's peak RSS is a metric.
        """
        from checks import check_call, check_pass, diff, record
        durations, records, errors = {}, {}, {}
        for c in self.calls:
            try:
                dt, out = self.run_call(c)
                rec = record(c, out)
            except Exception as exc:  # a failing call is counted and the run goes on
                errors[c.key] = [f"{type(exc).__name__}: {exc}"]
                continue
            durations[c.key] = dt
            if self.keep_all or c.kind in ("mapsearch", "exhaustive", "search"):
                records[c.key] = rec
            errs = check_call(c, rec)
            if self.reference is not None:
                ref = self.reference.get(c.key)
                d = "no reference entry" if ref is None else diff(ref, rec)
                if d:
                    errs.append(f"differs from reference: {d}")
            if errs:
                errors[c.key] = errs
            self.host.sample()
        for key, errs in check_pass(self.calls, records).items():
            errors.setdefault(key, []).extend(errs)
        return durations, records, errors


def work_done(call, rec: dict) -> int:
    """Units behind work_per_s: valid mappings, search rounds, or CLI calls."""
    if call.kind == "search":
        return len(rec["trace"])
    if call.kind == "mapsearch":
        return 0 if call.info.get("csv") else rec["rows"][0][rec["columns"].index("n_samples")]
    return int(call.is_cli)


def _percentile(vals, q):
    import numpy as np
    return float(np.percentile(vals, q))


def _full_speed(calls, passes, host, loop: str) -> tuple[dict, float]:
    """Each call's mean time over the passes, and the passes' mean wall, at full host speed.

    A pass's durations are divided by the host's slowdown over that pass: the
    loop's mean time in the bursts taken during the pass, over its time on the
    host at full speed (hostspeed.py). Means, not medians or minimums, because
    the host flips between a fast and a slow state within a pass and a mean
    follows the share of slow time smoothly where the others jump.
    """
    slow = [host.slowdown(loop, p["start"], p["end"]) for p in passes]
    per_call = {}
    for c in calls:
        ran = [(p["durations"][c.key], s) for p, s in zip(passes, slow) if c.key in p["durations"]]
        if ran:
            per_call[c.key] = sum(d for d, _ in ran) / sum(s for _, s in ran)
    return per_call, sum(p["wall"] for p in passes) / sum(slow)


def end_to_end(calls, passes, work, host, loop: str) -> tuple[dict, dict, dict]:
    """Metrics from the untraced timed passes, timed at full host speed (_full_speed)."""
    timed = [p for p in passes[1:] if not p["traced"]] or passes
    per_call, wall = _full_speed(calls, timed, host, loop)
    cli_ms = [per_call[c.key] * 1e3 for c in calls if c.is_cli and c.key in per_call]
    worked = [c.key for c in calls if work.get(c.key) and c.key in per_call]
    each = f"each call's mean over {len(timed)} passes, at full host speed"
    metrics = {
        "wall_s": wall,
        "call_p50_ms": _percentile(cli_ms, 50),
        "call_p90_ms": _percentile(cli_ms, 90),
        "work_per_s": sum(work[k] for k in worked) / sum(per_call[k] for k in worked),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"wall_s": f"mean of {len(timed)} passes of {len(per_call)} calls, "
                         "at full host speed",
               "call_p50_ms": f"{len(cli_ms)} CLI calls, {each}",
               "work_per_s": f"{sum(work[k] for k in worked)} units in {len(worked)} calls, {each}",
               "peak_rss_mb": "1 process"}
    samples["call_p90_ms"] = samples["call_p50_ms"]
    speed = {"loop": loop, "bursts": len(host.series),
             "run_slowdown": {name: host.slowdown(name) for name in host.series[0][1]},
             "unscaled_wall_s": statistics.fmean(p["wall"] for p in timed),
             "series": host.series}
    return metrics, samples, speed


def per_layer(calls, passes, layer_rows, host, loop: str) -> tuple[dict, dict]:
    """Medians over traced passes, and the tracing overhead in wall time at full host speed."""
    traced = [p for p in passes[1:] if p["traced"]]
    untraced = [p for p in passes[1:] if not p["traced"]]
    metrics = {}
    for k in layer_rows[0]:
        vals = [r[k] for r in layer_rows]
        exact = all(isinstance(v, int) for v in vals)  # counts stay whole numbers
        metrics[k] = statistics.median_low(vals) if exact else statistics.median(vals)
    wall = _full_speed(calls, traced, host, loop)[1]
    untraced_wall = _full_speed(calls, untraced, host, loop)[1]
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = wall - untraced_wall
    # the layers' self times over the calls' durations, pass by pass
    metrics["trace.accounted_share"] = statistics.median(
        sum(v for k, v in r.items() if k.startswith("layer.")) / p["wall"]
        for r, p in zip(layer_rows, traced))
    samples = {"per_layer": f"median of {len(traced)} traced passes",
               "trace.wall_s": f"mean of {len(traced)} traced passes, at full host speed",
               "trace.untraced_wall_s": f"mean of {len(untraced)} untraced passes, "
                                        "at full host speed"}
    return metrics, samples


def _reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def write_reference(workload: str) -> int:
    import workloads
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        calls = workloads.build(workload, workloads.DEFAULT_SEED, workdir)
        _, records, errors = Runner(calls, None, keep_all=True).run_pass()
    if errors:
        print(json.dumps(errors, indent=1), file=sys.stderr)
        return 1
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_reference_path(workload), "w", encoding="utf-8") as f:
        f.write('{"workload": %s, "seed": %d, "records": {\n'
                % (json.dumps(workload), workloads.DEFAULT_SEED))
        f.write(",\n".join(f"{json.dumps(c.key)}: {json.dumps(records[c.key])}" for c in calls))
        f.write("\n}}\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir")
    p.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tfperf.cli  # noqa: F401  -- the import users pay for on every call
    import workloads
    if args.write_reference:
        return write_reference(args.workload)
    calls = workloads.build(args.workload, args.seed, args.workdir)
    _say({"event": "ready"})
    if args.setup_only:
        from hostspeed import SETUP_LOOP, HostSpeed
        host = HostSpeed()
        host.sample(force=True)  # in a fresh process the loops' first runs fault in their memory
        host.series.clear()
        for _ in range(5):
            host.sample(force=True)
        _say({"event": "speed", "slowdown": host.slowdown(SETUP_LOOP)})
        return 0

    import tfperf
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(_reference_path(args.workload), encoding="utf-8") as f:
            reference = json.load(f)["records"]
    runner = Runner(calls, reference)
    tracer = modules = None
    if args.trace:
        from layers import make_tracer, pass_metrics
        tracer, modules = make_tracer()
    requested = sum(c.info.get("samples", 0) for c in calls if c.kind == "mapsearch")

    passes, layer_rows, work = [], [], {}
    attempted = failed = 0
    errors_seen: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        gc.collect()  # each pass starts from the same heap, not the last checks' garbage
        if traced:
            lo = len(tracer)
            tracer.install(modules)
        start = time.perf_counter()
        runner.host.sample(force=True)  # every pass has a burst, its first call one just before it
        try:
            durations, records, errors = runner.run_pass()
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer_rows.append(pass_metrics(tracer, lo, len(tracer), requested))
        if not work:
            work = {c.key: work_done(c, records.get(c.key)) for c in calls if c.key in durations}
        attempted += len(calls)
        failed += len(errors)
        errors_seen += [f"{k}: {e}" for k, errs in errors.items() for e in errs][:5]
        passes.append({"traced": traced, "wall": sum(durations.values()),
                       "durations": durations, "start": start, "end": time.perf_counter()})
        done = len(passes) >= (3 if args.trace else 2)
        if done and time.perf_counter() >= deadline:
            break

    result = {"event": "result", "attempted": attempted, "failed": failed,
              "errors": errors_seen[:10], "passes": len(passes),
              "tfperf": os.path.relpath(tfperf.__file__, ROOT),
              "pass_seconds": [[p["traced"], p["wall"]] for p in passes],
              "pass_spans": [[p["start"], p["end"]] for p in passes],
              "call_seconds": {c.key: [p["durations"].get(c.key) for p in passes]
                               for c in calls}}
    if failed == attempted:
        _say(result)
        return 1
    result["metrics"], result["samples"], result["host"] = end_to_end(
        calls, passes, work, runner.host, workloads.HOST_LOOPS[args.workload])
    if args.trace:
        layer_metrics, layer_samples = per_layer(calls, passes, layer_rows, runner.host,
                                                 workloads.HOST_LOOPS[args.workload])
        result["metrics"].update(layer_metrics)
        result["samples"].update(layer_samples)
        if args.spans:
            tracer.save(args.spans)
    _say(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
