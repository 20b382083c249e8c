"""Compare two sets of saved results, one row per workload and end-to-end metric.

Each set is a results directory of run.py (one file per workload and seed).
A row gives both medians with their quartiles and the ratio new/old. It reads
"unresolved" when either side's run-to-run spread (quartile distance over
median) exceeds the metric's bound, unless every new run beats every old run.
"""
from __future__ import annotations

import glob
import json
import os
import statistics


def load(results_dir: str) -> dict:
    """{workload: {metric: [values over runs]}} from the untraced runs in a directory."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*-trace0.json"))):
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        per = out.setdefault(doc["context"]["workload"], {})
        for name, m in doc["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def summary(vals: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(old: list[float], new: list[float], bound: float, better: str) -> str:
    lower = better == "lower"
    o1, om, o3 = summary(old)
    n1, nm, n3 = summary(new)
    if (max(new) < min(old)) if lower else (min(new) > max(old)):
        return "better"
    if (o3 - o1) / om > bound or (n3 - n1) / nm > bound:
        return "unresolved"
    worse = nm > om * (1 + bound) if lower else nm < om * (1 - bound)
    return "regressed" if worse else "ok"


def compare(spec: dict, old_dir: str, new_dir: str) -> int:
    old, new = load(old_dir), load(new_dir)
    print(f"{'workload':16} {'metric':12} {'unit':6} {'old median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'new/old':>8}  verdict")
    regressed = False
    for w in sorted(set(old) & set(new)):
        for m in spec["end_to_end"]:
            a, b = old[w].get(m["name"]), new[w].get(m["name"])
            if not a or not b:
                continue
            o1, om, o3 = summary(a)
            n1, nm, n3 = summary(b)
            v = verdict(a, b, m["bound"], m["better"])
            regressed |= v == "regressed"
            print(f"{w:16} {m['name']:12} {m['unit']:6} "
                  f"{f'{om:.4g} [{o1:.4g}, {o3:.4g}]':>30} {f'{nm:.4g} [{n1:.4g}, {n3:.4g}]':>30} "
                  f"{nm / om:8.3f}  {v} (n={len(a)}/{len(b)}, bound {m['bound']})")
    return 1 if regressed else 0
