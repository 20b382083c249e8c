"""Output checks: invariants at any seed, reference rows at the default seed.

Each call's output is first reduced to a record, a JSON-ready structure of its
rows. Records are what the reference file stores and what the invariants
read. Floats compare within a relative REL_TOL, so that a change of summation
order is not a failure; every other value must match exactly.
"""
from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9
CSV_SAMPLE_EVERY = 1000  # rows of a CSV dump kept whole in its record


def record(call, output) -> dict:
    """Normalize one call's output: CLI text, or (Mapping, CostReport) for exhaustive."""
    if call.kind == "exhaustive":
        m, rep = output
        return {"rows": [[list(m.spatial), list(m.tiles), list(m.dram_perm),
                          rep.latency, rep.energy]]}
    if call.info.get("csv"):
        return _csv_record(output)
    doc = json.loads(output)
    if doc.get("schema_version") != "1":
        raise ValueError(f"schema_version {doc.get('schema_version')!r}")
    rows = doc["rows"]
    cols = list(rows[0]) if rows else []
    rec = {"columns": cols, "rows": [[r[c] for c in cols] for r in rows]}
    if "trace" in doc:
        rec["trace"] = [[t["round"], t["best_edp"], t["front_size"]] for t in doc["trace"]]
    return rec


def _csv_record(text: str) -> dict:
    # streamed: a dump has ~1e5 rows, and the worker's peak RSS is a metric
    reader = csv.reader(io.StringIO(text))
    cols = next(reader)
    n, idx_ok, sampled = 0, True, []
    sums = [0.0] * (len(cols) - 1)
    mins = [math.inf] * (len(cols) - 1)
    for r in reader:
        vals = [float(v) for v in r[1:]]
        idx_ok = idx_ok and int(r[0]) == n
        for j, v in enumerate(vals):
            sums[j] += v
            mins[j] = min(mins[j], v)
        if n % CSV_SAMPLE_EVERY == 0:
            sampled.append([n] + vals)
        n += 1
    return {"columns": cols, "n": n, "sums": sums,
            "min": mins, "sampled": sampled, "idx_ok": idx_ok}


# ---------------------------------------------------------------------------
# Reference comparison
# ---------------------------------------------------------------------------

def close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def diff(ref, got, path: str = "") -> str | None:
    """First difference between two records, or None when they match."""
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)) \
                and not isinstance(ref, bool) and not isinstance(got, bool) \
                and close(float(ref), float(got)):
            return None
        return f"{path}: {ref!r} != {got!r}"
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return f"{path}: keys {sorted(ref)} != {sorted(got)}"
        for k in ref:
            d = diff(ref[k], got[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            d = diff(a, b, f"{path}[{i}]")
            if d:
                return d
        return None
    if type(ref) is not type(got) or ref != got:
        return f"{path}: {ref!r} != {got!r}"
    return None


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def _dicts(rec: dict) -> list[dict]:
    return [dict(zip(rec["columns"], r)) for r in rec["rows"]]


def _check_analyze(rec, call):
    for r in _dicts(rec):
        if not r["flops"] > 0 or not close(r["arithmetic_intensity"], r["flops"] / r["mops"]):
            yield f"{r['name']}: intensity is not flops/mops"


def _check_latency(rec, call):
    rows = _dicts(rec)
    total, ops = rows[-1], rows[:-1]
    if total["name"] != "total":
        yield "last row is not the total"
        return
    for col in ("latency_cycles", "energy_pj"):
        if not close(math.fsum(r[col] for r in ops), total[col]):
            yield f"total {col} {total[col]!r} is not the sum of its rows"


def _check_nonideal(rec, call):
    for r in _dicts(rec):
        if r["name"] != "model" and not r["nonideal_ai"] <= r["ideal_ai"] * (1 + 1e-12):
            yield f"{r['name']}: non-ideal AI {r['nonideal_ai']} > ideal {r['ideal_ai']}"


def _check_memsweep(rec, call):
    rows = _dicts(rec)
    best = [r for r in rows if r["best"] is True]
    if len(best) != 1:
        yield f"{len(best)} best rows"
        return
    feasible = [r["latency_cycles"] for r in rows if r["feasible"]]
    if not best[0]["feasible"] or best[0]["latency_cycles"] != min(feasible):
        yield "best row is not the minimum feasible latency"


def _check_fusion(rec, call):
    for r in _dicts(rec):
        wins = r["fused_latency"] < r["nonfused_latency"]
        if (r["verdict"] == "FusionWins") != wins:
            yield f"{r['pair']}@{r['accumulator_kb']}kB/{r['seq_len']}: verdict {r['verdict']}"


def _check_mapsearch(rec, call):
    want = call.info["samples"]
    if call.info.get("csv"):
        if rec["n"] != want or not rec["idx_ok"]:
            yield f"{rec['n']} rows for {want} samples"
        rel_min = rec["min"][rec["columns"].index("relative_edp") - 1]
        if rel_min != 1.0:
            yield f"minimum relative_edp {rel_min} != 1"
        return
    r = _dicts(rec)[0]
    if r["n_samples"] != want or not r["min_edp"] > 0 or not r["p10"] >= 1.0 \
            or not 0.0 <= r["frac_within_3x"] <= 1.0:
        yield f"implausible stats {r}"


def _dominates(a: dict, b: dict) -> bool:
    return (a["quality"] >= b["quality"] and a["edp"] <= b["edp"]
            and (a["quality"] > b["quality"] or a["edp"] < b["edp"]))


def _check_search(rec, call):
    front = _dicts(rec)
    if not front:
        yield "empty front"
    for a, b in zip(front, front[1:]):
        if not a["edp"] < b["edp"]:
            yield "front is not strictly sorted by edp"
            break
    for p in front:  # brute-force non-domination
        if any(_dominates(q, p) for q in front if q is not p):
            yield f"dominated front point {p}"
            break
    trace = rec["trace"]
    if len(trace) != call.info["rounds"] or [t[0] for t in trace] != list(range(1, len(trace) + 1)):
        yield f"trace has {len(trace)} rounds, want {call.info['rounds']}"
    elif front and (trace[-1][1] != front[0]["edp"] or trace[-1][2] != len(front)):
        yield "last trace row does not describe the front"


def _check_exhaustive(rec, call):
    _, _, _, lat, en = rec["rows"][0]
    if not (lat > 0 and en > 0):
        yield "non-positive exhaustive cost"


_CHECKS = {"analyze": _check_analyze, "latency": _check_latency,
           "nonideal-ai": _check_nonideal, "memsweep": _check_memsweep,
           "fusion": _check_fusion, "mapsearch": _check_mapsearch,
           "search": _check_search, "exhaustive": _check_exhaustive}


def check_call(call, rec: dict) -> list[str]:
    if "rows" in rec and not rec["rows"]:
        return ["no rows"]
    return list(_CHECKS[call.kind](rec, call))


def check_pass(calls, records: dict) -> dict[str, list[str]]:
    """Invariants across calls: sampled minimum EDP >= exhaustive optimum."""
    best = {}
    for c in calls:
        if c.kind == "exhaustive" and c.key in records:
            _, _, _, lat, en = records[c.key]["rows"][0]
            best[c.info["nest"]] = lat * en
    errors: dict[str, list[str]] = {}
    for c in calls:
        if c.kind != "mapsearch" or c.key not in records or c.info["nest"] not in best:
            continue
        rec = records[c.key]
        if c.info.get("csv"):
            i = rec["columns"].index("edp") - 1
            sampled = rec["min"][i]
        else:
            sampled = _dicts(rec)[0]["min_edp"]
        opt = best[c.info["nest"]]
        if sampled < opt * (1 - 1e-12):
            errors.setdefault(c.key, []).append(
                f"sampled min EDP {sampled!r} < exhaustive optimum {opt!r}")
    return errors
