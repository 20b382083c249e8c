"""Batch mapping-evaluation kernels (vectorized numpy, float64).

Each kernel takes per-sample integer arrays (padded extents, spatial factors,
tile sizes, loop positions) plus scalar hardware parameters and the
accelerator's `EnergyTable`, and returns per-sample arrays (lat, en, dram,
compute): latency in cycles, energy, DRAM bytes and compute cycles.

A kernel is two rules composed. Its loop-order rule reads only which loops
iterate (F > 1) and the DRAM loop positions, and returns boolean arrays: which
operands an outer loop re-fetches, and whether partial outputs spill. Its cost
rule reads the extents, tiles and those booleans. So two loop orders with the
same order-rule result cost the same on every tile vector with the same
iterating loops, which is what lets `mapspace` cost one order per class.

The kernels read the accumulator width and the compute/DRAM overlap rule from
`hwmodel` (`_ACCUM_BYTES`, `_overlap`), as its tile walk does.
"""
from __future__ import annotations

import numpy as np

from .hwmodel import _ACCUM_BYTES, _overlap


def _cost_rows(compute, loaded, drained, macs, in_b, W, bw, energy):
    """(lat, en, dram, compute) from the bytes loaded into the scratchpad and
    drained from the accumulator; each streamed operand element feeds W MACs."""
    dram = loaded + drained
    spad = loaded + macs * in_b / W
    acc = macs * _ACCUM_BYTES / W + drained
    return _overlap(compute, dram, bw), energy.total(macs, spad, acc, dram), dram, compute


# ---------------------------------------------------------------------------
# Matmul mapping evaluation
# ---------------------------------------------------------------------------
# Loop positions count outward-in: pos 0 is the outermost DRAM loop. An input
# operand is re-fetched by an irrelevant outer loop whenever that loop
# iterates and sits above some iterating relevant loop; partial outputs spill
# when a reduction loop iterates above an iterating output-dim loop.

def matmul_order(it_m, it_k, it_n, pos_m, pos_k, pos_n):
    """(in1 re-fetched by n, in2 re-fetched by m, outputs spill) from the
    iterating flags (F > 1) and DRAM loop positions of m, k and n."""
    neg = np.int64(-1)
    rel1 = np.maximum(np.where(it_m, pos_m, neg), np.where(it_k, pos_k, neg))
    rel2 = np.maximum(np.where(it_k, pos_k, neg), np.where(it_n, pos_n, neg))
    spill = it_k & ((it_m & (pos_m > pos_k)) | (it_n & (pos_n > pos_k)))
    return it_n & (pos_n < rel1), it_m & (pos_m < rel2), spill


def matmul_cost(Pm, Pk, Pn, Fm, Fk, Fn, sm, sn, order,
                in1_b, in2_b, out_b, W, bw, energy):
    """(lat, en, dram, compute) from the extents, loop counts and `matmul_order`."""
    in1_refetch, in2_refetch, spill = order
    in1_bytes = (Pm * Pk).astype(np.float64) * in1_b * np.where(in1_refetch, Fn, 1)
    in2_bytes = (Pk * Pn).astype(np.float64) * in2_b * np.where(in2_refetch, Fm, 1)
    out_elems = (Pm * Pn).astype(np.float64)
    out_bytes = np.where(spill, out_elems * _ACCUM_BYTES * Fk, out_elems * out_b)

    macs = Pm.astype(np.float64) * Pk * Pn
    compute = macs / (sm * sn).astype(np.float64) + W * (Fm * Fk * Fn).astype(np.float64)
    return _cost_rows(compute, in1_bytes + in2_bytes, out_bytes, macs, in1_b + in2_b, W, bw, energy)


def matmul_eval(Pm, Pk, Pn, sm, sn, tm, tk, tn, pos_m, pos_k, pos_n,
                in1_b, in2_b, out_b, W, bw, energy):
    Fm = Pm // tm
    Fk = Pk // tk
    Fn = Pn // tn
    order = matmul_order(Fm > 1, Fk > 1, Fn > 1, pos_m, pos_k, pos_n)
    return matmul_cost(Pm, Pk, Pn, Fm, Fk, Fn, sm, sn, order,
                       in1_b, in2_b, out_b, W, bw, energy)


# ---------------------------------------------------------------------------
# Conv mapping evaluation
# ---------------------------------------------------------------------------
# Dim order everywhere: (oc, ic, kh, kw, oh, ow). The input footprint carries
# the kernel halo, so kh/kw loops never force input re-fetches.

def conv_order(it, pos):
    """(weights re-fetched by oh, by ow, input re-fetched by oc, outputs
    spill) from the six iterating flags (F > 1) and DRAM loop positions."""
    i_oc, i_ic, i_kh, i_kw, i_oh, i_ow = it
    p_oc, p_ic, p_kh, p_kw, p_oh, p_ow = pos
    neg = np.int64(-1)
    # weights: relevant {oc, ic, kh, kw}
    rel_w = np.maximum.reduce([
        np.where(i_oc, p_oc, neg), np.where(i_ic, p_ic, neg),
        np.where(i_kh, p_kh, neg), np.where(i_kw, p_kw, neg)])
    # input: relevant {ic, oh, ow}; the halo'd footprint covers kh/kw
    rel_i = np.maximum.reduce([
        np.where(i_ic, p_ic, neg), np.where(i_oh, p_oh, neg), np.where(i_ow, p_ow, neg)])
    # output: spills when a reduction loop iterates above an output loop
    inner_out = np.maximum.reduce([
        np.where(i_oc, p_oc, neg), np.where(i_oh, p_oh, neg), np.where(i_ow, p_ow, neg)])
    spill = np.zeros(np.shape(inner_out), dtype=bool)
    for ir, pr in ((i_ic, p_ic), (i_kh, p_kh), (i_kw, p_kw)):
        spill |= ir & (inner_out > pr)
    return i_oh & (p_oh < rel_w), i_ow & (p_ow < rel_w), i_oc & (p_oc < rel_i), spill


def conv_cost(P, F, s_oc, s_ic, order, stride, act_b, w_b, out_b, W, bw, energy):
    """(lat, en, dram, compute) from the extents, loop counts and `conv_order`."""
    Poc, Pic, Pkh, Pkw, Poh, Pow = (P[j] for j in range(6))
    Foc, Fic, Fkh, Fkw, Foh, Fow = F
    w_by_oh, w_by_ow, i_by_oc, spill = order

    w_elems = (Poc * Pic * Pkh * Pkw).astype(np.float64)
    mult_w = (np.where(w_by_oh, Foh, 1).astype(np.float64) * np.where(w_by_ow, Fow, 1))
    w_bytes = w_elems * w_b * mult_w

    ih = (Poh - 1) * stride + Pkh
    iw = (Pow - 1) * stride + Pkw
    i_elems = (Pic * ih * iw).astype(np.float64)
    i_bytes = i_elems * act_b * np.where(i_by_oc, Foc, 1).astype(np.float64)

    red = (Fic * Fkh * Fkw).astype(np.float64)
    o_elems = (Poc * Poh * Pow).astype(np.float64)
    o_bytes = np.where(spill, o_elems * _ACCUM_BYTES * red, o_elems * out_b)

    macs = (Poc * Pic * Pkh * Pkw).astype(np.float64) * Poh * Pow
    fills = (Foc * Fic * Fkh).astype(np.float64) * Fkw * Foh * Fow
    compute = macs / (s_oc * s_ic).astype(np.float64) + W * fills
    return _cost_rows(compute, w_bytes + i_bytes, o_bytes, macs, act_b + w_b, W, bw, energy)


def conv_eval(P, s_oc, s_ic, T, pos, stride,
              act_b, w_b, out_b, W, bw, energy):
    F = [P[j] // T[j] for j in range(6)]
    order = conv_order([f > 1 for f in F], [pos[j] for j in range(6)])
    return conv_cost(P, F, s_oc, s_ic, order, stride, act_b, w_b, out_b, W, bw, energy)
