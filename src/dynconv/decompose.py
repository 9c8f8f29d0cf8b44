"""Exact reformulation of attention-mixed kernels.

A convex mixture of K static kernels can be rewritten, without
approximation, as the average kernel plus an attention-weighted sum of
SVD factors of the per-kernel residuals:

    Σ_k π_k W_k  =  W0 + U·Π(x)·S·Vᵀ,   W0 = (1/K) Σ_k W_k

where U = [U_1 … U_K], S = diag(S_1 … S_K), V = [V_1 … V_K] collect the
SVDs of ΔW_k = W_k − W0 and Π(x) repeats each attention score C times on
the diagonal.  This module implements the rewrite, its rank-1 expansion
(KC outer products), and a side-by-side accounting of this mechanism
versus latent channel fusion (L² outer products).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tensor as T

ATTENTION_SUM_TOL = 1e-9


@dataclass
class DecomposedResidual:
    """Average kernel plus per-kernel SVD factors, stacked column-wise."""

    w0: np.ndarray  # (C, C) average kernel
    u: np.ndarray  # (C, K·C), columns [U_1 … U_K]
    s: np.ndarray  # (K·C,) singular values, per-kernel descending
    v: np.ndarray  # (C, K·C), columns [V_1 … V_K]
    k: int

    @property
    def c(self) -> int:
        return self.w0.shape[0]

    def kernel(self, i: int) -> np.ndarray:
        """Reconstruct original kernel i as W0 + U_i S_i V_iᵀ."""
        c = self.c
        cols = slice(i * c, (i + 1) * c)
        scaled = self.u[:, cols] * self.s[cols][None, :]
        return self.w0 + T.matmul(scaled, np.ascontiguousarray(self.v[:, cols].T))


def residual_decompose(kernels: np.ndarray) -> DecomposedResidual:
    """Split K square kernels into their mean and SVD-factored residuals."""
    kernels = T.as_tensor(kernels)
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
        raise ValueError(f"expected (K, C, C) stacked square kernels, got {kernels.shape}")
    k, c, _ = kernels.shape
    w0 = kernels.sum(axis=0) / float(k)
    u = np.empty((c, k * c))
    s = np.empty(k * c)
    v = np.empty((c, k * c))
    for i in range(k):
        f = T.svd(kernels[i] - w0)
        cols = slice(i * c, (i + 1) * c)
        u[:, cols] = f.u
        s[cols] = f.s
        v[:, cols] = f.v
    return DecomposedResidual(w0=w0, u=u, s=s, v=v, k=k)


def _check_attention(attention: np.ndarray, k: int) -> np.ndarray:
    attention = T.as_tensor(attention)
    if attention.ndim != 2 or attention.shape[1] != k:
        raise ValueError(f"attention must be (N, {k}), got {attention.shape}")
    sums = attention.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > ATTENTION_SUM_TOL:
        raise ValueError("attention rows must sum to 1 (the rewrite cancels W0's coefficient only then)")
    return attention


def aggregate_decomposed(attention: np.ndarray, d: DecomposedResidual) -> np.ndarray:
    """Per-sample W0 + U·Π(x)·S·Vᵀ, shape (N, C, C)."""
    attention = _check_attention(attention, d.k)
    n = attention.shape[0]
    c = d.c
    vt = np.ascontiguousarray(d.v.T)
    out = np.empty((n, c, c))
    for i in range(n):
        coeff = np.repeat(attention[i], c) * d.s
        out[i] = d.w0 + T.matmul(d.u * coeff[None, :], vt)
    return out


def rank1_expand(attention_row: np.ndarray, d: DecomposedResidual) -> np.ndarray:
    """The dynamic residual as an explicit sum of K·C rank-1 outer products.

    Term i (1-based) is π_⌈i/C⌉ · u_i s_i v_iᵀ; summation is left-to-right.
    Returns the residual only (add W0 for the full kernel).
    """
    attention_row = T.as_tensor(attention_row).reshape(-1)
    if attention_row.shape[0] != d.k:
        raise ValueError(f"attention row must have {d.k} entries, got {attention_row.shape[0]}")
    c = d.c
    res = np.zeros((c, c))
    for i in range(d.k * c):
        pi = attention_row[i // c]  # ⌈(i+1)/C⌉ in 1-based terms
        res += pi * d.s[i] * np.outer(d.u[:, i], d.v[:, i])
    return res


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-10) -> int:
    """Count singular values above rel_tol × the largest one."""
    s = T.svd(m).s
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


@dataclass
class MechanismRow:
    """One side of the aggregation-mechanism comparison."""

    mechanism: str
    rank: int  # max residual rank observed
    rank_bound: int
    term_count: int  # rank-1 terms in the expansion
    static_params: int  # scalars in the static factors (U,V vs P,Q)


def compare_aggregation_mechanisms(
    c: int, k: int, l: int, trials: int = 8, seed: int = 0
) -> list[MechanismRow]:
    """Attention over K kernels vs latent channel fusion, on matched random instances.

    Reports the observed residual rank, its bound (C vs L), the rank-1
    term count (K·C vs L²), and static factor parameter counts
    (2·K·C² for U,V vs 2·C·L for P,Q).
    """
    for quantity, value in (("channel count", c), ("kernel count", k), ("latent size", l), ("trial count", trials)):
        if value < 1:
            raise ValueError(f"{quantity} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    att_rank = 0
    fusion_rank = 0
    for _ in range(trials):
        kernels = rng.standard_normal((k, c, c))
        d = residual_decompose(kernels)
        att = ad.softmax_rows(rng.standard_normal((1, k)))
        res = aggregate_decomposed(att, d)[0] - d.w0
        att_rank = max(att_rank, numerical_rank(res))

        p = rng.standard_normal((c, l))
        q = rng.standard_normal((c, l))
        phi = rng.standard_normal((l, l))
        res2 = T.matmul(p, T.matmul(phi, np.ascontiguousarray(q.T)))
        fusion_rank = max(fusion_rank, numerical_rank(res2))
    return [
        MechanismRow("attention_over_kernels", att_rank, c, k * c, 2 * k * c * c),
        MechanismRow("latent_channel_fusion", fusion_rank, l, l * l, 2 * c * l),
    ]
