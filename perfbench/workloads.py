"""Seeded inputs for each workload, and the calls one pass of it makes.

A workload seed fixes every generated number. The structure of a pass (how
many models, which layer counts, which accelerator capacities) is the same at
every seed, so that the work per pass, and with it the timings, stay
comparable across seeds; the seed moves the shapes and constants within it.
tfperf only ever sees the generated JSON files and the CLI arguments.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("model-sweep", "mapspace-sample", "arch-search")
DEFAULT_SEED = 0
# what the end-to-end metric work_per_s counts on each workload
WORK_NAMES = {"model-sweep": "calls_per_s", "mapspace-sample": "mappings_per_s",
              "arch-search": "rounds_per_s"}
# the reference loop (hostspeed.py) that slows down as the workload's own work does
HOST_LOOPS = {"model-sweep": "interp", "mapspace-sample": "array", "arch-search": "interp"}


@dataclass(frozen=True)
class Call:
    """One timed step of a pass: a `tfperf` CLI call, or a library call."""
    key: str                  # stable across seeds and checkouts; names the reference entry
    kind: str                 # CLI subcommand, or "exhaustive" for the library call
    argv: tuple = ()          # CLI arguments (empty for the library call)
    info: dict = field(default_factory=dict)  # what the checks need to know

    @property
    def is_cli(self) -> bool:
        return self.kind != "exhaustive"


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    return path


def _accel_doc(rng: random.Random, pe_width: int, spad_kb: int, acc_kb: int) -> dict:
    # capacities stay fixed per slot: they set tile sizes and with them the work
    return {"pe_width": pe_width, "scratchpad_kb": spad_kb, "accumulator_kb": acc_kb,
            "dram_bytes_per_cycle": round(rng.uniform(2.0, 6.0), 3),
            "sfu_cycles_per_vector": rng.choice((1.0, 2.0)),
            "energy": {"mac": round(rng.uniform(0.8, 1.2), 3),
                       "spad": round(rng.uniform(5.0, 7.0), 3),
                       "acc": round(rng.uniform(10.0, 14.0), 3),
                       "dram": round(rng.uniform(150.0, 250.0), 3)}}


# --- model-sweep ------------------------------------------------------------

MODEL_SWEEP_ACCELS = ((16, 256, 64), (16, 128, 128), (32, 512, 256))
SEQ_LENS = (512, 1024, 2048, 4096)
# Model i runs at SEQ_LENS[(i // 2) % 4] with LAYER_COUNTS[i] layers, model
# dim MODEL_DIMS[i], HEADS[i] heads and FFN width FFN_MULTS[i] * d at every
# seed, so that the work of a pass barely moves with the seed (the tile grids
# of qk and sv shrink with the head count); the seed jitters each model dim by
# one step of DIM_JITTER.
LAYER_COUNTS = (2, 2, 3, 3, 4, 4, 6, 6, 6, 6, 4, 4, 3, 3, 2, 2)
MODEL_DIMS = (640, 896, 256, 1024, 896, 512, 384, 768,
              1024, 384, 768, 640, 512, 256, 1024, 768)
HEADS = (8, 16, 4, 16, 8, 8, 4, 16, 16, 4, 8, 8, 8, 4, 4, 16)
FFN_MULTS = (3, 2, 4, 3, 2, 4, 4, 3, 2, 4, 3, 2, 4, 3, 4, 2)
DIM_JITTER = 16
# The largest shape sets peak RSS (its memsweep tile grids), so one encoder
# at l=4096 has it at every seed: index, then d, heads, d_ffn.
PEAK_MODEL = (14, 1024, 4, 4096)
FUSION_ACC_KB = (64, 128, 256, 512)
MEMSWEEP_TOTAL_KB = 320


def _model_sweep(rng: random.Random, workdir: str) -> list[Call]:
    accels = [_write(workdir, f"accel{i}.json", _accel_doc(rng, *slot))
              for i, slot in enumerate(MODEL_SWEEP_ACCELS)]
    calls: list[Call] = []
    for i, layers in enumerate(LAYER_COUNTS):
        mode = ("encoder", "decoder")[i % 2]
        d = min(1024, max(256, MODEL_DIMS[i] + DIM_JITTER * rng.choice((-1, 0, 1))))
        seq = str(SEQ_LENS[(i // 2) % 4])
        heads, d_ffn = HEADS[i], d * FFN_MULTS[i]
        if i == PEAK_MODEL[0]:
            d, heads, d_ffn = PEAK_MODEL[1:]
        model = _write(workdir, f"model{i:02d}.json", {
            "name": f"gen-{mode}-{i:02d}", "mode": mode, "layers": layers, "d": d,
            "heads": heads, "d_ffn": d_ffn})
        m = f"m{i:02d}"
        calls.append(Call(f"analyze:{m}", "analyze",
                          ("analyze", "--model", model, "--seqlen", seq, "--format", "json")))
        for j, accel in enumerate(accels):
            for cmd in ("latency", "nonideal-ai"):
                calls.append(Call(f"{cmd}:{m}:a{j}", cmd,
                                  (cmd, "--model", model, "--accel", accel,
                                   "--seqlen", seq, "--format", "json")))
        calls.append(Call(f"memsweep:{m}", "memsweep",
                          ("memsweep", "--model", model, "--accel", accels[i % 3],
                           "--seqlen", seq, "--total-kb", str(MEMSWEEP_TOTAL_KB),
                           "--format", "json")))
    for j, accel in enumerate(accels):
        argv = ["fusion", "--accel", accel, "--format", "json"]
        for kb in FUSION_ACC_KB:
            argv += ["--acc-kb", str(kb)]
        for seq in SEQ_LENS:
            argv += ["--seqlen", str(seq)]
        calls.append(Call(f"fusion:a{j}", "fusion", tuple(argv)))
    return calls


# --- mapspace-sample ----------------------------------------------------------

MAPSEARCH_SAMPLES = 300_000
CSV_DUMP_SAMPLES = 100_000
SAMPLED_NESTS = ("bert.mha", "bert.qk", "resnet.c3")
EXHAUSTIVE_NESTS = ("bert.mha", "bert.qk")


def _mapspace_sample(rng: random.Random, workdir: str) -> list[Call]:
    accel = _write(workdir, "accel.json", _accel_doc(rng, 16, 256, 64))
    calls = []
    for nest in SAMPLED_NESTS:  # each nest draws from its own sampler seed
        calls.append(Call(f"mapsearch:{nest}", "mapsearch",
                          ("mapsearch", "--op", nest, "--accel", accel,
                           "--samples", str(MAPSEARCH_SAMPLES),
                           "--seed", str(rng.randrange(2 ** 31)), "--format", "json"),
                          {"nest": nest, "samples": MAPSEARCH_SAMPLES}))
    calls.append(Call("mapsearch-csv:bert.mha", "mapsearch",
                      ("mapsearch", "--op", "bert.mha", "--accel", accel,
                       "--samples", str(CSV_DUMP_SAMPLES),
                       "--seed", str(rng.randrange(2 ** 31))),
                      {"nest": "bert.mha", "samples": CSV_DUMP_SAMPLES, "csv": True}))
    for nest in EXHAUSTIVE_NESTS:
        calls.append(Call(f"exhaustive:{nest}", "exhaustive", (),
                          {"nest": nest, "accel": accel}))
    return calls


# --- arch-search --------------------------------------------------------------

SEARCH_POP = 200
SEARCH_ROUNDS = 50
# Each search evolves its own population, and the work it does moves with its
# seed (its evaluations spread about 7% between quartiles at 50 rounds), so a
# pass runs several searches on independent seeds and the pass's work spreads
# about half as much.
SEARCHES = 4


def _arch_search(rng: random.Random, workdir: str) -> list[Call]:
    accel = _write(workdir, "accel.json", _accel_doc(rng, 16, 256, 64))
    return [Call(f"search:{i}", "search",
                 ("search", "--accel", accel, "--pop", str(SEARCH_POP),
                  "--rounds", str(SEARCH_ROUNDS), "--seed", str(rng.randrange(2 ** 31)),
                  "--format", "json"),
                 {"rounds": SEARCH_ROUNDS})
            for i in range(SEARCHES)]


_BUILDERS = {"model-sweep": _model_sweep, "mapspace-sample": _mapspace_sample,
             "arch-search": _arch_search}


def build(workload: str, seed: int, workdir: str) -> list[Call]:
    """Write the workload's input files into `workdir`; return one pass's calls."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
