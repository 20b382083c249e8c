"""The traced functions of each tfperf module, and the per-layer metrics of a pass.

Layers are the package's modules. Span names are `<layer>.<function>`; the
self time of every span counts toward its layer, so the layers' self times
add up to the traced wall time. Time metrics ending in `_s` are self times
per pass, except `hwmodel.memsweep_s` and `mapspace.exhaustive_s`, which are
the whole calls.
"""
from __future__ import annotations

import numpy as np

from tracer import Tracer, self_times

LAYERS = ("cli", "workload", "hwmodel", "fusion", "mapspace", "kernels", "archsearch")


def _evolve_counts(args, kwargs, front):
    # the CostCache the caller handed in holds this call's hits and misses
    cache = kwargs.get("cache")
    return {"hits": cache.hits if cache else 0, "misses": cache.misses if cache else 0,
            "discarded": len(front.discarded)}


def make_tracer() -> tuple[Tracer, list]:
    """A tracer with every layer's functions registered, and the modules to patch."""
    import tfperf
    from tfperf import _kernels, archsearch, cli, fusion, hwmodel, mapspace, workload
    t = Tracer()
    t.target(cli, "main", "cli.main")
    t.target(cli, "emit", "cli.emit", lambda a, k, r: {"bytes": r})
    t.target(workload, "model_ops", "workload.model_ops")
    t.target(workload, "layer_ops_encoder", "workload.layer_ops_encoder")
    t.target(hwmodel, "op_latency", "hwmodel.op_latency")
    t.target(hwmodel, "square_tiles", "hwmodel.tiling")
    t.target(hwmodel, "greedy_tiles", "hwmodel.tiling")
    t.target(hwmodel, "memory_split_sweep", "hwmodel.memory_split_sweep")
    for name in ("model_costs", "matmul_latency", "nonideal_intensity",
                 "model_nonideal_intensity"):
        t.target(hwmodel, name, f"hwmodel.{name}")
    t.target(fusion, "eval_pair", "fusion.eval_pair")
    t.target(fusion, "fusion_sweep", "fusion.fusion_sweep")
    t.target(mapspace, "sample_costs", "mapspace.sample_costs")
    t.target(mapspace, "sample_stats", "mapspace.sample_stats")
    t.target(mapspace, "exhaustive_best", "mapspace.exhaustive_best")
    t.target(mapspace, "_valid_mask", "mapspace.valid_mask",
             lambda a, k, r: {"rows": len(r), "accepted": int(np.count_nonzero(r))})
    t.target(_kernels, "matmul_eval", "kernels.matmul_eval",
             lambda a, k, r: {"rows": len(r[0])})
    t.target(_kernels, "conv_eval", "kernels.conv_eval",
             lambda a, k, r: {"rows": len(r[0])})
    t.target(archsearch, "evolve", "archsearch.evolve", _evolve_counts)
    t.target(archsearch, "evaluate", "archsearch.evaluate")
    t.target(archsearch, "candidate_ops", "archsearch.candidate_ops")
    t.target(archsearch.CostCache, "cost", "archsearch.cache_cost")
    t.target(archsearch, "pareto", "archsearch.pareto")
    t.target(archsearch, "mutate", "archsearch.mutate")
    t.target(archsearch, "sample_candidate", "archsearch.sample_candidate")
    modules = [tfperf, _kernels, archsearch, cli, fusion, hwmodel, mapspace, workload]
    return t, modules


def pass_metrics(t: Tracer, lo: int, hi: int, requested_samples: int) -> dict:
    """Per-layer metrics of the spans lo..hi-1, which are one whole pass."""
    name_id, parent, start, end = t.arrays(lo, hi)
    self_s = self_times(parent, start, end, lo)
    dur = end - start

    def sel(name):
        return name_id == t.names.index(name)

    def tot(arr, name):
        return float(arr[sel(name)].sum())

    def count(name):
        return int(sel(name).sum())

    def counted(name, key, under=None):
        total = 0
        for i in np.flatnonzero(sel(name)):
            if under is None or _has_ancestor(t, lo + int(i), under, lo):
                total += t.counts[lo + int(i)][key]
        return total

    layer_of = np.array([n.split(".")[0] for n in t.names])[name_id]
    m: dict[str, float] = {}
    m["cli.calls"] = count("cli.main")
    m["cli.self_s"] = tot(self_s, "cli.main")
    m["cli.emit_s"] = tot(self_s, "cli.emit")
    m["cli.emit_bytes"] = counted("cli.emit", "bytes")
    m["workload.model_ops_calls"] = count("workload.model_ops")
    m["workload.model_ops_s"] = tot(self_s, "workload.model_ops")
    m["workload.layer_ops_s"] = tot(self_s, "workload.layer_ops_encoder")
    m["hwmodel.op_latency_calls"] = count("hwmodel.op_latency")
    m["hwmodel.op_latency_s"] = tot(self_s, "hwmodel.op_latency")
    m["hwmodel.tiling_s"] = tot(self_s, "hwmodel.tiling")
    m["hwmodel.memsweep_s"] = tot(dur, "hwmodel.memory_split_sweep")
    m["fusion.eval_pair_calls"] = count("fusion.eval_pair")
    m["fusion.eval_pair_s"] = tot(self_s, "fusion.eval_pair")

    # sampling work is what runs under sample_costs; exhaustive_best enumerates
    sc = t.names.index("mapspace.sample_costs")
    m["mapspace.sample_costs_calls"] = count("mapspace.sample_costs")
    m["mapspace.sample_self_s"] = tot(self_s, "mapspace.sample_costs") + sum(
        float(self_s[i]) for i in np.flatnonzero(sel("mapspace.valid_mask"))
        if _has_ancestor(t, lo + int(i), sc, lo))
    rows = (counted("kernels.matmul_eval", "rows", sc)
            + counted("kernels.conv_eval", "rows", sc))
    m["mapspace.rows_evaluated"] = rows
    m["mapspace.rows_accepted"] = counted("mapspace.valid_mask", "accepted", sc)
    m["mapspace.useful_ratio"] = requested_samples / rows if rows else 0.0
    m["mapspace.exhaustive_s"] = tot(dur, "mapspace.exhaustive_best")

    kern = sel("kernels.matmul_eval") | sel("kernels.conv_eval")
    m["kernels.calls"] = int(kern.sum())
    m["kernels.s"] = float(self_s[kern].sum())
    all_rows = counted("kernels.matmul_eval", "rows") + counted("kernels.conv_eval", "rows")
    m["kernels.rows_per_s"] = all_rows / m["kernels.s"] if m["kernels.s"] else 0.0

    hits = counted("archsearch.evolve", "hits")
    lookups = hits + counted("archsearch.evolve", "misses")
    m["archsearch.evaluations"] = count("archsearch.evaluate")
    m["archsearch.evaluate_self_s"] = tot(self_s, "archsearch.evaluate")
    m["archsearch.candidate_ops_s"] = tot(self_s, "archsearch.candidate_ops")
    m["archsearch.cache_lookups"] = lookups
    m["archsearch.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["archsearch.cache_self_s"] = tot(self_s, "archsearch.cache_cost")
    m["archsearch.pareto_calls"] = count("archsearch.pareto")
    m["archsearch.pareto_s"] = tot(self_s, "archsearch.pareto")
    m["archsearch.mutate_s"] = tot(self_s, "archsearch.mutate")
    m["archsearch.discarded"] = counted("archsearch.evolve", "discarded")

    for layer in LAYERS:
        m[f"layer.{layer}_s"] = float(self_s[layer_of == layer].sum())
    return m


def _has_ancestor(t: Tracer, i: int, name_id: int, lo: int) -> bool:
    p = t.parent[i]
    while p >= lo:
        if t.name_id[p] == name_id:
            return True
        p = t.parent[p]
    return False
