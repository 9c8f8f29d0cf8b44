"""Exact reformulation of attention-mixed kernels.

A convex mixture of K static kernels can be rewritten, without
approximation, as the average kernel plus an attention-weighted sum of
SVD factors of the per-kernel residuals:

    Σ_k π_k W_k  =  W0 + U·Π(x)·S·Vᵀ,   W0 = (1/K) Σ_k W_k

where U = [U_1 … U_K], S = diag(S_1 … S_K), V = [V_1 … V_K] collect the
SVDs of ΔW_k = W_k − W0 and Π(x) repeats each attention score C times on
the diagonal.  This module implements the rewrite, its rank-1 expansion
(KC outer products), and one suite that checks it against latent channel
fusion (L² outer products) on the same instances.
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


def kernel_terms(attention_row: np.ndarray, d: DecomposedResidual) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dynamic residual's K·C rank-1 terms as (coefficients, left, right)
    columns: term i (1-based) is π_⌈i/C⌉ s_i · u_i v_iᵀ."""
    attention_row = T.as_tensor(attention_row).reshape(-1)
    if attention_row.shape[0] != d.k:
        raise ValueError(f"attention row must have {d.k} entries, got {attention_row.shape[0]}")
    return np.repeat(attention_row, d.c) * d.s, d.u, d.v


def latent_terms(p: np.ndarray, phi: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P·Φ·Qᵀ's L² rank-1 terms, like `kernel_terms`: term (i, j), i major, is φ_ij · p_i q_jᵀ."""
    l = phi.shape[0]
    return phi.reshape(-1), np.repeat(p, l, axis=1), np.tile(q, (1, l))


def rank1_sum(coeffs: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Σ_t coeffs[t] · left[:, t] right[:, t]ᵀ, one outer product per term, summed left to right."""
    res = np.zeros((left.shape[0], right.shape[0]))
    for coeff, a, b in zip(coeffs, left.T, right.T):
        res += coeff * np.outer(a, b)
    return res


def rank1_expand(attention_row: np.ndarray, d: DecomposedResidual) -> np.ndarray:
    """The dynamic residual as the sum of its K·C rank-1 `kernel_terms`.
    Returns the residual only (add W0 for the full kernel)."""
    return rank1_sum(*kernel_terms(attention_row, d))


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
    term_count: int  # length of the rank-1 sum the suite checks
    static_params: int  # scalars in the static factors (U,V vs P,Q)


IDENTITY_TOLS = {"direct_vs_reformulated": 1e-8, "rank1_expansion_kernel_terms": 1e-9,
                 "rank1_expansion_latent_terms": 1e-9}


def compare_aggregation_mechanisms(
    c: int, k: int, l: int, trials: int = 8, seed: int = 0
) -> tuple[list[tuple[str, float, float]], list[MechanismRow]]:
    """The identity suite: attention over K kernels vs latent channel fusion,
    on `trials` random instances, each drawn once at C, K and L.

    Returns the checks as (name, max abs error over the trials, tolerance):
    Σ_k π_k W_k against W0 + U·Π(x)·S·Vᵀ, that residual against the sum of
    its `kernel_terms`, and P·Φ·Qᵀ against the sum of its `latent_terms`.
    Then one row per mechanism: the observed residual rank, its bound (C vs
    L), the length of the rank-1 sum checked (K·C vs L²), and static factor
    parameter counts (2·K·C² for U,V vs 2·C·L for P,Q).
    """
    for quantity, value in (("channel count", c), ("kernel count", k), ("latent size", l), ("trial count", trials)):
        if value < 1:
            raise ValueError(f"{quantity} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    errs = dict.fromkeys(IDENTITY_TOLS, 0.0)
    att_rank = fusion_rank = 0
    for _ in range(trials):
        kernels = rng.standard_normal((k, c, c))
        att = ad.softmax_rows(rng.standard_normal((1, k)))
        d = residual_decompose(kernels)
        reformed = aggregate_decomposed(att, d)
        res = reformed[0] - d.w0
        att_rank = max(att_rank, numerical_rank(res))
        kc = kernel_terms(att[0], d)
        p, q, phi = rng.standard_normal((c, l)), rng.standard_normal((c, l)), rng.standard_normal((l, l))
        res2 = T.matmul(p, T.matmul(phi, np.ascontiguousarray(q.T)))
        fusion_rank = max(fusion_rank, numerical_rank(res2))
        l2 = latent_terms(p, phi, q)
        pairs = ((np.einsum("nk,kij->nij", att, kernels), reformed), (rank1_sum(*kc), res), (rank1_sum(*l2), res2))
        for name, (a, b) in zip(errs, pairs):
            errs[name] = max(errs[name], float(np.abs(a - b).max()))
    checks = [(name, err, IDENTITY_TOLS[name]) for name, err in errs.items()]
    return checks, [
        MechanismRow("attention_over_kernels", att_rank, c, len(kc[0]), 2 * k * c * c),
        MechanismRow("latent_channel_fusion", fusion_rank, l, len(l2[0]), 2 * c * l),
    ]
