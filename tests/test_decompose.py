"""Mixture-of-kernels rewrite: reconstruction, equivalence, rank-1 expansion."""

import numpy as np
import pytest

from dynconv import autodiff as ad
from dynconv import tensor as T
from dynconv.decompose import (
    DecomposedResidual,
    aggregate_decomposed,
    compare_aggregation_mechanisms,
    numerical_rank,
    rank1_expand,
    residual_decompose,
)


def mixture_oracle(attention, kernels):
    """Direct per-sample Σ_k π_k W_k with a plain loop."""
    n, k = attention.shape
    out = np.zeros((n,) + kernels.shape[1:])
    for i in range(n):
        for j in range(k):
            out[i] += attention[i, j] * kernels[j]
    return out


def random_attention(rng, n, k):
    return ad.softmax_rows(rng.standard_normal((n, k)))


def test_single_kernel_decomposes_to_zero_residual():
    rng = np.random.default_rng(0)
    kernels = rng.standard_normal((1, 6, 6))
    d = residual_decompose(kernels)
    assert np.max(np.abs(d.s)) < 1e-12
    assert np.max(np.abs(d.w0 - kernels[0])) < 1e-12


def test_antisymmetric_pair_has_zero_mean():
    rng = np.random.default_rng(1)
    w1 = rng.standard_normal((5, 5))
    d = residual_decompose(np.stack([w1, -w1]))
    assert np.max(np.abs(d.w0)) < 1e-12
    assert np.max(np.abs(d.kernel(0) - w1)) < 1e-10
    assert np.max(np.abs(d.kernel(1) + w1)) < 1e-10


def test_reconstruction_and_centering():
    rng = np.random.default_rng(2)
    kernels = rng.standard_normal((4, 8, 8))
    d = residual_decompose(kernels)
    for i in range(4):
        assert np.max(np.abs(d.kernel(i) - kernels[i])) < 1e-10
    # residuals of a mean are centered
    total = sum(kernels[i] - d.w0 for i in range(4))
    assert np.max(np.abs(total)) < 1e-10
    # uniform attention cancels the residual entirely
    uniform = np.full((1, 4), 0.25)
    agg = aggregate_decomposed(uniform, d)[0]
    assert np.sqrt(np.sum((agg - d.w0) ** 2)) < 1e-9


def test_one_hot_attention_selects_kernel():
    rng = np.random.default_rng(3)
    kernels = rng.standard_normal((4, 8, 8))
    d = residual_decompose(kernels)
    for j in range(4):
        att = np.zeros((1, 4))
        att[0, j] = 1.0
        agg = aggregate_decomposed(att, d)[0]
        assert np.max(np.abs(agg - kernels[j])) < 1e-10


@pytest.mark.parametrize("c", [4, 8, 16])
@pytest.mark.parametrize("k", [2, 4])
def test_aggregation_matches_direct_mixture(c, k):
    rng = np.random.default_rng(100 + c + k)
    for _ in range(5):
        kernels = rng.standard_normal((k, c, c))
        att = random_attention(rng, 3, k)
        d = residual_decompose(kernels)
        assert np.max(np.abs(aggregate_decomposed(att, d) - mixture_oracle(att, kernels))) < 1e-8


def test_attention_sum_validation():
    rng = np.random.default_rng(4)
    d = residual_decompose(rng.standard_normal((2, 4, 4)))
    with pytest.raises(ValueError):
        aggregate_decomposed(np.array([[0.6, 0.6]]), d)


def test_rank1_expand_matches_matrix_form():
    rng = np.random.default_rng(5)
    kernels = rng.standard_normal((4, 8, 8))
    d = residual_decompose(kernels)
    att = random_attention(rng, 1, 4)
    res_matrix = aggregate_decomposed(att, d)[0] - d.w0
    res_terms = rank1_expand(att[0], d)
    assert np.max(np.abs(res_terms - res_matrix)) < 1e-9


def test_rank1_expand_degenerate_cases():
    rng = np.random.default_rng(6)
    c = 6
    u, v = np.linalg.qr(rng.standard_normal((c, c)))[0], np.linalg.qr(rng.standard_normal((c, c)))[0]
    s = np.zeros(c)
    d = DecomposedResidual(w0=np.zeros((c, c)), u=u, s=s, v=v, k=1)
    assert np.max(np.abs(rank1_expand(np.array([1.0]), d))) == 0.0
    s2 = np.zeros(c)
    s2[0] = 2.5
    d2 = DecomposedResidual(w0=np.zeros((c, c)), u=u, s=s2, v=v, k=1)
    res = rank1_expand(np.array([1.0]), d2)
    sv = T.svd(res).s
    assert sv[0] > 1.0 and np.all(sv[1:] < 1e-10)


def test_mechanism_comparison_counts():
    _, rows = compare_aggregation_mechanisms(c=8, k=4, l=2, trials=4, seed=0)
    att, fusion = rows
    assert att.mechanism == "attention_over_kernels"
    assert (att.term_count, fusion.term_count) == (32, 4)
    assert att.rank <= att.rank_bound == 8
    assert fusion.rank <= fusion.rank_bound == 2

    _, rows = compare_aggregation_mechanisms(c=64, k=4, l=8, trials=2, seed=1)
    assert rows[0].static_params == 32768  # 2·K·C²
    assert rows[1].static_params == 1024  # 2·C·L

    _, rows = compare_aggregation_mechanisms(c=6, k=1, l=6, trials=2, seed=2)
    assert rows[0].rank_bound == rows[1].rank_bound == 6


@pytest.mark.parametrize("kwargs,message", [
    ({"c": 0, "k": 4, "l": 2}, "channel count must be >= 1, got 0"),
    ({"c": 8, "k": 0, "l": 2}, "kernel count must be >= 1, got 0"),
    ({"c": 8, "k": 4, "l": -1}, "latent size must be >= 1, got -1"),
    ({"c": 8, "k": 4, "l": 2, "trials": 0}, "trial count must be >= 1, got 0"),
], ids=["channels", "kernels", "latent", "trials"])
def test_mechanism_comparison_refuses_an_empty_measurement(kwargs, message):
    """Zero trials would return both rows with rank 0, which reads as a
    measured residual of rank 0 under its bound."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        compare_aggregation_mechanisms(**kwargs)


def test_numerical_rank():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 3))
    b = rng.standard_normal((3, 8))
    assert numerical_rank(a @ b) == 3
    assert numerical_rank(np.zeros((4, 4))) == 0


def test_gradients_agree_across_aggregation_paths():
    """With softmax attention inside each path, both rewrites compute the
    same function of the logits, so the logit gradients must agree.
    (As functions of unconstrained attention they agree only on the
    Σπ = 1 surface, where gradients can differ by the constraint normal.)"""
    rng = np.random.default_rng(8)
    c, k = 8, 4
    kernels = rng.standard_normal((k, c, c))
    d = residual_decompose(kernels)
    logits = ad.Parameter("logits", rng.standard_normal((1, k)))
    target = rng.standard_normal((c, c))

    # direct mixture path
    tape_a = ad.Tape()
    att_a = ad.softmax_rows(tape_a.leaf(logits.value, param=logits))
    flat = kernels.reshape(k, c * c)
    w_a = ad.reshape(ad.matmul(att_a, flat), (c, c))
    loss_a = ad.sum_all(ad.mul(w_a, target))

    # decomposed path: W0 + U·diag(repeat(att)·s)·Vᵀ
    tape_b = ad.Tape()
    att_b = ad.softmax_rows(tape_b.leaf(logits.value, param=logits))
    expand = np.zeros((k, k * c))
    for i in range(k * c):
        expand[i // c, i] = 1.0
    coeff = ad.mul(ad.matmul(att_b, expand), d.s[None, :])
    scaled_u = ad.mul(d.u, coeff)
    w_b = ad.add(d.w0, ad.matmul(scaled_u, np.ascontiguousarray(d.v.T)))
    loss_b = ad.sum_all(ad.mul(w_b, target))

    ga = ad.backward(loss_a, 1.0)[logits]
    gb = ad.backward(loss_b, 1.0)[logits]
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), 1e-8)
    assert np.max(np.abs(ga - gb) / denom) < 1e-8
