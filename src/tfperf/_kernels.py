"""Batch mapping-evaluation kernels (vectorized numpy, float64).

Both kernels share one call shape, `kernel(P, S, T, pos, nest, accel)`. P, S,
T and pos are the padded extents, spatial factors, tile sizes and DRAM loop
positions of n mappings, each an (ndims, n) int64 array in nest dim order.
The loop nest gives the operand widths and a conv's stride; the accelerator
gives the PE width, the DRAM bandwidth and the energy table. Each kernel
returns per-sample arrays (lat, en, dram, compute): latency in cycles,
energy, DRAM bytes and compute cycles.

A kernel is two rules composed. Its loop-order rule reads only which loops
iterate (F > 1) and the DRAM loop positions, and returns boolean arrays: which
operands an outer loop re-fetches, and whether partial outputs spill. Its cost
rule, the rest of the kernel after the order call, reads the extents, tiles
and those booleans. So two loop orders with the same order-rule result cost
the same on every tile vector with the same iterating loops, which is what
lets `mapspace` cost one order per class.

The kernels read the accumulator width and the compute/DRAM overlap rule from
`hwmodel`: `_ACCUM_BYTES`, and `_overlap`, the rule's array spelling. The tile
walk and the scalar costs spell it `max(compute, dram / dram_bw)` on floats.

Loop counts (F = P // T) and their flags are taken one dim row at a time. With
one (ndims, n) temporary in their place, perfbench's mapspace-sample run at
seeds 0 and 44 peaked about 3 MB higher in RSS (heap fragmentation; the
allocation peak is the same).
"""
from __future__ import annotations

import numpy as np

from .hwmodel import _ACCUM_BYTES, _overlap


def _cost_rows(compute, loaded, drained, macs, in_b, accel):
    """(lat, en, dram, compute) from the bytes loaded into the scratchpad and
    drained from the accumulator; each streamed operand element feeds W MACs."""
    W = accel.pe_width
    dram = loaded + drained
    spad = loaded + macs * in_b / W
    acc = macs * _ACCUM_BYTES / W + drained
    lat = _overlap(compute, dram, accel.dram_bw)
    return lat, accel.energy.total(macs, spad, acc, dram), dram, compute


# ---------------------------------------------------------------------------
# Matmul mapping evaluation
# ---------------------------------------------------------------------------
# Dim order everywhere: (m, k, n). Loop positions count outward-in: pos 0 is
# the outermost DRAM loop. An input operand is re-fetched by an irrelevant
# outer loop whenever that loop iterates and sits above some iterating
# relevant loop; partial outputs spill when a reduction loop iterates above an
# iterating output-dim loop.

def matmul_order(it, pos):
    """(in1 re-fetched by n, in2 re-fetched by m, outputs spill) from the
    three iterating flags (F > 1) and DRAM loop positions."""
    it_m, it_k, it_n = it
    pos_m, pos_k, pos_n = pos
    neg = np.int64(-1)
    rel1 = np.maximum(np.where(it_m, pos_m, neg), np.where(it_k, pos_k, neg))
    rel2 = np.maximum(np.where(it_k, pos_k, neg), np.where(it_n, pos_n, neg))
    spill = it_k & ((it_m & (pos_m > pos_k)) | (it_n & (pos_n > pos_k)))
    return it_n & (pos_n < rel1), it_m & (pos_m < rel2), spill


def matmul_eval(P, S, T, pos, nest, accel):
    F = [p // t for p, t in zip(P, T)]
    in1_refetch, in2_refetch, spill = matmul_order([f > 1 for f in F], pos)
    Pm, Pk, Pn = P
    Fm, Fk, Fn = F
    in1_b, in2_b, out_b = nest.precisions
    in1_bytes = (Pm * Pk).astype(np.float64) * in1_b * np.where(in1_refetch, Fn, 1)
    in2_bytes = (Pk * Pn).astype(np.float64) * in2_b * np.where(in2_refetch, Fm, 1)
    out_elems = (Pm * Pn).astype(np.float64)
    out_bytes = np.where(spill, out_elems * _ACCUM_BYTES * Fk, out_elems * out_b)

    macs = Pm.astype(np.float64) * Pk * Pn
    compute = (macs / (S[0] * S[2]).astype(np.float64)
               + accel.pe_width * (Fm * Fk * Fn).astype(np.float64))
    return _cost_rows(compute, in1_bytes + in2_bytes, out_bytes, macs, in1_b + in2_b, accel)


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


def conv_eval(P, S, T, pos, nest, accel):
    F = [p // t for p, t in zip(P, T)]
    w_by_oh, w_by_ow, i_by_oc, spill = conv_order([f > 1 for f in F], pos)
    Poc, Pic, Pkh, Pkw, Poh, Pow = P
    Foc, Fic, Fkh, Fkw, Foh, Fow = F
    act_b, w_b, out_b = nest.precisions

    w_elems = (Poc * Pic * Pkh * Pkw).astype(np.float64)
    mult_w = (np.where(w_by_oh, Foh, 1).astype(np.float64) * np.where(w_by_ow, Fow, 1))
    w_bytes = w_elems * w_b * mult_w

    ih = (Poh - 1) * nest.stride + Pkh
    iw = (Pow - 1) * nest.stride + Pkw
    i_elems = (Pic * ih * iw).astype(np.float64)
    i_bytes = i_elems * act_b * np.where(i_by_oc, Foc, 1).astype(np.float64)

    red = (Fic * Fkh * Fkw).astype(np.float64)
    o_elems = (Poc * Poh * Pow).astype(np.float64)
    o_bytes = np.where(spill, o_elems * _ACCUM_BYTES * red, o_elems * out_b)

    macs = (Poc * Pic * Pkh * Pkw).astype(np.float64) * Poh * Pow
    fills = (Foc * Fic * Fkh).astype(np.float64) * Fkw * Foh * Fow
    compute = macs / (S[0] * S[1]).astype(np.float64) + accel.pe_width * fills
    return _cost_rows(compute, w_bytes + i_bytes, o_bytes, macs, act_b + w_b, accel)
