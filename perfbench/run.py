"""tfperf benchmark: one seeded workload through `tfperf.cli.main`, measured.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --compare OLD_RESULTS_DIR NEW_RESULTS_DIR

Run from the repository root. A run times set-up in several fresh
interpreters, then runs the workload in one worker process for --seconds,
checks every output, prints a table with the run's context, saves the result
under --results, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. Metrics are the end_to_end metrics of
BENCHMARK.json, or with --trace 1 its per_layer metrics. fail_rate is
failed / attempted. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORK_NAMES, WORKLOADS  # noqa: E402

SETUP_PROBES = (4, 4)     # set-up-only interpreters started before and after the run
WORKER_GRACE_S = 120      # how long a worker may run past --seconds before it is killed


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _worker(args: list[str], limit: float) -> tuple[float, int, list[str]]:
    """Start worker.py; return (seconds until its ready line, exit code, output lines)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, rc, (first + rest).splitlines()


def _event(lines: list[str], name: str) -> dict | None:
    for line in lines:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and doc.get("event") == name:
            return doc
    return None


def run_context(workload: str, seed: int, trace: int) -> dict:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy
    return {"git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "workload": workload, "seed": seed, "trace": trace}


def measure(workload: str, seed: int, seconds: float, trace: int, spans: str | None):
    """(setup times, worker result) of one run; the worker result is None on a crash."""
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root)
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        def probe():
            d = tempfile.mkdtemp(dir=workdir)
            ready, rc, lines = _worker(base + ["--workdir", d, "--setup-only"], WORKER_GRACE_S)
            speed = _event(lines, "speed")
            if rc != 0 or _event(lines, "ready") is None or speed is None:
                raise RuntimeError(f"set-up probe failed with exit code {rc}")
            return ready, speed["slowdown"]

        setups = [probe() for _ in range(SETUP_PROBES[0])]
        extra = ["--spans", spans] if spans else []
        _, rc, lines = _worker(
            base + ["--workdir", workdir, "--seconds", str(seconds), "--trace", str(trace)]
            + extra, seconds + WORKER_GRACE_S)
        setups += [probe() for _ in range(SETUP_PROBES[1])]
        result = _event(lines, "result")
        if result is not None:
            result["exit_code"] = rc
        return setups, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=os.path.join(HERE, "results"),
                   help="directory the run's result file is saved in")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two results directories instead of running")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tfperf", "cli.py")):
        print("error: tfperf sources not found under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        from compare import compare
        return compare(spec, *args.compare)
    if args.workload is None:
        p.error("--workload is required")

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    os.makedirs(args.results, exist_ok=True)
    stem = os.path.join(args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    setups, result = measure(args.workload, args.seed, args.seconds, args.trace,
                             stem + "-spans.npz" if args.trace else None)
    if result is None or "metrics" not in result:
        print(f"error: the worker produced no result: {result}", file=sys.stderr)
        return 1
    measured = dict(result["metrics"])
    host = result["host"]
    # each set-up interpreter times the reference loop once it is ready
    measured["setup_s"] = statistics.median(ready / slow for ready, slow in setups)
    samples = dict(result["samples"], setup_s=f"median of {len(setups)} fresh interpreters, "
                                              "at full host speed")
    missing = sorted(set(wanted) - set(measured))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    context = run_context(args.workload, args.seed, args.trace)
    context["tfperf"] = result["tfperf"]
    failed, attempted = result["failed"], result["attempted"]

    print(" ".join(f"{k}={v}" for k, v in context.items()))
    print(f"{'metric':34} {'value':>14} {'unit':8} samples")
    for name, unit in wanted.items():
        label = f"{name} = {WORK_NAMES[args.workload]}" if name == "work_per_s" else name
        print(f"{label:34} {_fmt(measured[name]):>14} {unit:8} {samples.get(name, '')}")
    print(f"{'fail_rate':34} {_fmt(failed / attempted):>14} {'ratio':8} "
          f"{failed} of {attempted} calls")
    print(f"host slowdown over the run: "
          + ", ".join(f"{k} loop {v:.3f}" for k, v in host["run_slowdown"].items())
          + f" ({host['bursts']} bursts; timings scaled by the {host['loop']} loop); "
          f"unscaled wall_s {_fmt(host['unscaled_wall_s'])}, "
          f"setup_s {_fmt(statistics.median(ready for ready, _ in setups))}")
    for e in result["errors"]:
        print(f"failed: {e}")

    out = {"correct": failed == 0 and result["exit_code"] == 0,
           "attempted": attempted, "failed": failed,
           "metrics": {n: {"value": measured[n], "unit": u} for n, u in wanted.items()}}
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(dict(out, context=context, samples=samples, setups_s=setups,
                       fail_rate=failed / attempted, errors=result["errors"],
                       all_metrics=measured, host=host, pass_seconds=result["pass_seconds"],
                       pass_spans=result["pass_spans"],
                       call_seconds=result["call_seconds"]), f, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
