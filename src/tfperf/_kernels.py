"""Batch mapping-evaluation kernels (vectorized numpy, float64).

Each kernel takes per-sample integer arrays (padded extents, spatial factors,
tile sizes, loop positions) plus scalar hardware parameters and the
accelerator's `EnergyTable`, and returns per-sample arrays (lat, en, dram,
compute): latency in cycles, energy, DRAM bytes and compute cycles.
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Matmul mapping evaluation
# ---------------------------------------------------------------------------
# Loop positions count outward-in: pos 0 is the outermost DRAM loop. An input
# operand is re-fetched by an irrelevant outer loop whenever that loop sits
# above some iterating (F > 1) relevant loop; partial outputs spill when a
# reduction loop iterates above an iterating output-dim loop.

def matmul_eval(Pm, Pk, Pn, sm, sn, tm, tk, tn, pos_m, pos_k, pos_n,
                in1_b, in2_b, out_b, W, bw, energy):
    Fm = Pm // tm
    Fk = Pk // tk
    Fn = Pn // tn

    neg = np.int64(-1)
    rel1 = np.maximum(np.where(Fm > 1, pos_m, neg), np.where(Fk > 1, pos_k, neg))
    mult1 = np.where(pos_n < rel1, Fn, 1)
    rel2 = np.maximum(np.where(Fk > 1, pos_k, neg), np.where(Fn > 1, pos_n, neg))
    mult2 = np.where(pos_m < rel2, Fm, 1)
    in1_bytes = (Pm * Pk).astype(np.float64) * in1_b * mult1
    in2_bytes = (Pk * Pn).astype(np.float64) * in2_b * mult2

    spill = (Fk > 1) & (((Fm > 1) & (pos_m > pos_k)) | ((Fn > 1) & (pos_n > pos_k)))
    out_elems = (Pm * Pn).astype(np.float64)
    out_bytes = np.where(spill, out_elems * 4.0 * Fk, out_elems * out_b)

    dram = in1_bytes + in2_bytes + out_bytes
    macs = Pm.astype(np.float64) * Pk * Pn
    compute = macs / (sm * sn).astype(np.float64) + W * (Fm * Fk * Fn).astype(np.float64)
    lat = np.maximum(compute, dram / bw)
    spad = in1_bytes + in2_bytes + macs * (in1_b + in2_b) / W
    acc = macs * 4.0 / W + out_bytes
    en = energy.total(macs, spad, acc, dram)
    return lat, en, dram, compute


# ---------------------------------------------------------------------------
# Conv mapping evaluation
# ---------------------------------------------------------------------------
# Dim order everywhere: (oc, ic, kh, kw, oh, ow). The input footprint carries
# the kernel halo, so kh/kw loops never force input re-fetches.

def conv_eval(P, s_oc, s_ic, T, pos, stride,
              act_b, w_b, out_b, W, bw, energy):
    Poc, Pic, Pkh, Pkw, Poh, Pow = (P[j] for j in range(6))
    F = [P[j] // T[j] for j in range(6)]
    Foc, Fic, Fkh, Fkw, Foh, Fow = F
    p_oc, p_ic, p_kh, p_kw, p_oh, p_ow = (pos[j] for j in range(6))

    neg = np.int64(-1)
    # weights: relevant {oc, ic, kh, kw}
    rel_w = np.maximum.reduce([
        np.where(Foc > 1, p_oc, neg), np.where(Fic > 1, p_ic, neg),
        np.where(Fkh > 1, p_kh, neg), np.where(Fkw > 1, p_kw, neg)])
    w_elems = (Poc * Pic * Pkh * Pkw).astype(np.float64)
    mult_w = (np.where(p_oh < rel_w, Foh, 1).astype(np.float64)
              * np.where(p_ow < rel_w, Fow, 1))
    w_bytes = w_elems * w_b * mult_w

    # input: relevant {ic, oh, ow}; halo'd footprint covers kh/kw
    rel_i = np.maximum.reduce([
        np.where(Fic > 1, p_ic, neg), np.where(Foh > 1, p_oh, neg),
        np.where(Fow > 1, p_ow, neg)])
    ih = (Poh - 1) * stride + Pkh
    iw = (Pow - 1) * stride + Pkw
    i_elems = (Pic * ih * iw).astype(np.float64)
    mult_i = np.where(p_oc < rel_i, Foc, 1).astype(np.float64)
    i_bytes = i_elems * act_b * mult_i

    # output: spills when a reduction loop iterates above an output loop
    red = (Fic * Fkh * Fkw).astype(np.float64)
    inner_out = np.maximum.reduce([
        np.where(Foc > 1, p_oc, neg), np.where(Foh > 1, p_oh, neg),
        np.where(Fow > 1, p_ow, neg)])
    spill = np.zeros(Poc.shape, dtype=bool)
    for fr, pr in ((Fic, p_ic), (Fkh, p_kh), (Fkw, p_kw)):
        spill |= (fr > 1) & (inner_out > pr)
    o_elems = (Poc * Poh * Pow).astype(np.float64)
    o_bytes = np.where(spill, o_elems * 4.0 * red, o_elems * out_b)

    dram = w_bytes + i_bytes + o_bytes
    macs = (Poc * Pic * Pkh * Pkw).astype(np.float64) * Poh * Pow
    fills = (Foc * Fic * Fkh).astype(np.float64) * Fkw * Foh * Fow
    compute = macs / (s_oc * s_ic).astype(np.float64) + W * fills
    lat = np.maximum(compute, dram / bw)
    spad = w_bytes + i_bytes + macs * (act_b + w_b) / W
    acc = macs * 4.0 / W + o_bytes
    en = energy.total(macs, spad, acc, dram)
    return lat, en, dram, compute
