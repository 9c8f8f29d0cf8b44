"""Layer zoo: latent-dim rules, weight-generation identities, forward semantics."""

import numpy as np
import pytest

from dynconv import autodiff as ad
from dynconv import layers
from dynconv import tensor as T
from dynconv.gradcheck import finite_diff_check
from dynconv.layers import (
    BatchNorm2d,
    DcdConv,
    LatentDims,
    StaticConv,
    VanillaDynConv,
    center_one_hot,
    default_latent_dim,
    default_latent_dims_kxk,
    fan_in_uniform,
    latent_dim_pow2,
    validate_latent_dims,
)
from reference_kernels import (
    composed_depthwise_kernel,
    composed_latent_chain,
    composed_lowrank_kernel,
    composed_relu_linear,
    dcd_conv_reference,
)


# ---------------------------------------------------------------------------
# latent-dimension rules


@pytest.mark.parametrize(
    "c,expected",
    [(64, 8), (16, 4), (96, 6), (8, 2), (128, 8), (256, 16), (512, 16), (480, 15), (1280, 20), (1, 1)],
)
def test_default_latent_dim_halving(c, expected):
    assert default_latent_dim(c) == expected


def test_default_latent_dim_is_last_chain_value_at_most_sqrt():
    for c in range(1, 700):
        l = default_latent_dim(c)
        assert l <= np.sqrt(c)
        # the chain predecessor (2l or 2l+1 under floor division) must exceed √c
        assert l == c or 2 * l + 1 > np.sqrt(c)


@pytest.mark.parametrize("c,expected", [(64, 8), (96, 12), (128, 16), (256, 16), (512, 32), (1280, 40)])
def test_latent_dim_pow2(c, expected):
    assert latent_dim_pow2(c) == expected


def test_default_latent_dims_kxk():
    dims = default_latent_dims_kxk(64, 3)
    assert (dims.l, dims.l_k) == (4, 4)
    assert dims.l * dims.l * dims.l_k <= 64
    assert default_latent_dims_kxk(128, 3).l_k == 4  # ⌊9/2⌋
    with pytest.raises(ValueError):
        default_latent_dims_kxk(64, 1)
    with pytest.raises(ValueError):
        default_latent_dims_kxk(64, 4)
    with pytest.raises(ValueError):
        default_latent_dims_kxk(2, 3)


def test_validate_latent_dims_rules():
    validate_latent_dims(LatentDims(8, 1), c_in=64, c_out=64, k=1, variant="pointwise")
    # the l² ≤ C budget is the builders' policy; the structural rank rule holds
    validate_latent_dims(LatentDims(9, 1), c_in=64, c_out=64, k=1, variant="pointwise")
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(65, 1), c_in=64, c_out=64, k=1, variant="pointwise")
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(2, 1), c_in=8, c_out=8, k=1, variant="block_sparse", blocks=3)
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(1, 10), c_in=8, c_out=8, k=3, variant="depthwise")
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(2, 4), c_in=16, c_out=16, k=3, variant="channel_only_kxk")
    validate_latent_dims(LatentDims(2, 9), c_in=16, c_out=16, k=3, variant="full_kxk")


@pytest.mark.parametrize("dims,c_in,c_out,k,variant,blocks,message", [
    (LatentDims(0, 1), 8, 8, 1, "pointwise", 1, "latent dims must be ≥ 1, got LatentDims(l=0, l_k=1)"),
    (LatentDims(1, 0), 8, 8, 3, "depthwise", 1, "latent dims must be ≥ 1, got LatentDims(l=1, l_k=0)"),
    (LatentDims(9, 1), 8, 12, 1, "pointwise", 1, "latent channel count 9 exceeds min(C_in, C_out) = 8"),
    (LatentDims(9, 1), 8, 8, 1, "block_sparse", 1, "latent channel count 9 exceeds min(C_in, C_out) = 8"),
    (LatentDims(9, 1), 12, 8, 3, "channel_only_kxk", 1, "latent channel count 9 exceeds min(C_in, C_out) = 8"),
    (LatentDims(9, 4), 8, 12, 3, "full_kxk", 1, "latent channel count 9 exceeds min(C_in, C_out) = 8"),
    (LatentDims(2, 1), 8, 16, 1, "block_sparse", 2, "block-sparse residual requires C_in == C_out"),
    (LatentDims(2, 1), 8, 8, 1, "block_sparse", 3, "block count 3 does not divide channel count 8"),
    (LatentDims(1, 4), 8, 16, 3, "depthwise", 1, "depthwise form requires C_in == C_out"),
    (LatentDims(1, 10), 8, 8, 3, "depthwise", 1, "latent kernel elements 10 exceed k² = 9"),
    (LatentDims(1, 10), 8, 8, 3, "full_kxk", 1, "latent kernel elements 10 exceed k² = 9"),
    (LatentDims(2, 4), 16, 16, 3, "channel_only_kxk", 1, "channel-only form fixes l_k = 1"),
    (LatentDims(2, 1), 16, 16, 4, "channel_only_kxk", 1, "channel-only form needs odd k (no center element for k=4)"),
    (LatentDims(2, 1), 16, 16, 1, "mystery", 1, "unknown variant 'mystery'"),
])
def test_validate_latent_dims_structural_refusals(dims, c_in, c_out, k, variant, blocks, message):
    with pytest.raises(ValueError) as exc:
        validate_latent_dims(dims, c_in=c_in, c_out=c_out, k=k, variant=variant, blocks=blocks)
    assert str(exc.value) == message


def test_a_layer_past_the_paper_budget_builds_without_a_keyword():
    """ResNet-18's stage-4 channel-only 3×3 spends L = 32 at C = 512 (L² > C)
    by its builder's policy; the layer checks only that L fits."""
    layer = DcdConv("s4", 512, 512, k=3, variant="channel_only_kxk", dims=LatentDims(32), padding=1)
    assert (layer.dims.l, layer.dims.l_k) == (32, 1) and layer.dims.l ** 2 > layer.c_in
    out = layer.forward(np.random.default_rng(0).standard_normal((1, 512, 2, 2)))
    assert out.shape == (1, 512, 2, 2)


def test_center_one_hot():
    r = center_one_hot(3)
    assert r.shape == (9, 1)
    assert r[4, 0] == 1.0 and r.sum() == 1.0
    with pytest.raises(ValueError):
        center_one_hot(4)


# ---------------------------------------------------------------------------
# helpers


def randomize_branch(layer, rng, scale=0.5):
    """Give the (zero-initialized) branch head nonzero weights."""
    layer.branch.w2.value = rng.standard_normal(layer.branch.w2.value.shape) * scale
    layer.branch.b2.value = rng.standard_normal(layer.branch.b2.value.shape) * scale


def pooled_input(rng, n, c):
    return rng.standard_normal((n, c))


# ---------------------------------------------------------------------------
# vanilla dynamic convolution


def test_vanilla_single_kernel_is_static():
    rng = np.random.default_rng(0)
    layer = VanillaDynConv("v", 6, 6, kernels=1, rng=rng)
    pooled = pooled_input(rng, 3, 6)
    w = layer.weight_for(pooled)[..., 0, 0]
    att = layer.attention(pooled)
    assert np.allclose(att, 1.0, atol=1e-12)
    for i in range(3):
        assert np.max(np.abs(w[i] - layer.kernels.value[0])) < 1e-12


def test_vanilla_uniform_attention_gives_average_kernel():
    rng = np.random.default_rng(1)
    layer = VanillaDynConv("v", 6, 6, kernels=4, rng=rng)
    T.write_state(layer.branch.w2.value, 0.0)  # equal logits for every input
    pooled = pooled_input(rng, 2, 6)
    att = layer.attention(pooled)
    assert np.max(np.abs(att - 0.25)) < 1e-12
    w = layer.weight_for(pooled)[..., 0, 0]
    mean_kernel = layer.kernels.value.mean(axis=0)
    assert np.max(np.abs(w[0] - mean_kernel)) < 1e-12


def test_vanilla_softmax_rows_are_convex():
    rng = np.random.default_rng(2)
    layer = VanillaDynConv("v", 8, 8, kernels=4, tau=2.0, rng=rng)
    att = ad.value_of(layer.attention(pooled_input(rng, 5, 8)))
    assert np.max(np.abs(att.sum(axis=1) - 1.0)) < 1e-12
    assert att.min() >= 0.0 and att.max() <= 1.0


def test_vanilla_state_names_order_and_initial_draws():
    """The attention branch keeps the `.att_` names a checkpoint holds, in
    order, and its values are drawn kernels, W1, W2, as a checkpoint expects."""
    layer = VanillaDynConv("v", 8, 6, kernels=3, reduction=4, rng=np.random.default_rng(3))
    names = [p.name for p in layer.parameters()] + [name for name, _ in layer.buffers()]
    assert names == ["v.kernels", "v.att_w1", "v.att_b1", "v.att_w2", "v.att_b2",
                     "v.bn.gamma", "v.bn.beta", "v.bn.running_mean", "v.bn.running_var"]
    rng = np.random.default_rng(3)
    draws = [fan_in_uniform(rng, (3, 6, 8), 8), fan_in_uniform(rng, (8, 2), 8), fan_in_uniform(rng, (2, 3), 2)]
    for p, want in zip((layer.kernels, layer.branch.w1, layer.branch.w2), draws):
        assert np.array_equal(p.value, want), p.name
    assert not np.any(layer.branch.b1.value) and not np.any(layer.branch.b2.value)


# ---------------------------------------------------------------------------
# DCD weight generation


ALL_VARIANT_LAYERS = [
    ("pointwise", dict(c_in=16, c_out=16, k=1, variant="pointwise")),
    ("block_sparse", dict(c_in=16, c_out=16, k=1, variant="block_sparse", blocks=4, dims=LatentDims(2, 1))),
    ("depthwise", dict(c_in=8, c_out=8, k=3, variant="depthwise")),
    ("full_kxk", dict(c_in=16, c_out=16, k=3, variant="full_kxk")),
    ("channel_only_kxk", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk")),
]


@pytest.mark.parametrize("name,cfg", ALL_VARIANT_LAYERS)
def test_initialization_weight_equals_static_kernel(name, cfg):
    rng = np.random.default_rng(3)
    layer = DcdConv(name, rng=np.random.default_rng(42), **cfg)
    pooled = pooled_input(rng, 3, cfg["c_in"])
    w = ad.value_of(layer.weight_for(pooled))
    for i in range(3):
        assert np.array_equal(w[i], layer.static_kernel()), f"{name}: W(x) != W0 at init"


@pytest.mark.parametrize("name,cfg", ALL_VARIANT_LAYERS)
def test_weight_for_on_an_empty_batch(name, cfg):
    layer = DcdConv(name, rng=np.random.default_rng(42), **cfg)
    shape = (0,) + layer.static_kernel().shape
    pooled = np.zeros((0, cfg["c_in"]))
    assert layer.weight_for(pooled).shape == shape
    tape = ad.Tape()
    leaves = {id(p): tape.leaf(p.value, param=p) for p in layer.parameters()}
    w = layer.weight_for(tape.leaf(pooled), lambda p: leaves[id(p)])
    assert isinstance(w, ad.Node) and w.shape == shape
    grads = ad.backward(ad.sum_all(w))
    assert layer.w0 in grads
    for p, g in grads.items():
        assert g.shape == p.value.shape and not np.any(g), p.name


@pytest.mark.parametrize(
    "name,make",
    [(name, lambda cfg=cfg, name=name: DcdConv(name, rng=np.random.default_rng(42), **cfg))
     for name, cfg in ALL_VARIANT_LAYERS]
    + [("vanilla", lambda: VanillaDynConv("v", 16, 16, rng=np.random.default_rng(42)))],
)
def test_weight_for_batch_equals_stacked_single_samples(name, make):
    """Every assembly product has the sample as a stack axis, so a batch of
    kernels is the single-sample kernels bit for bit."""
    layer = make()
    rng = np.random.default_rng(43)
    if isinstance(layer, DcdConv):
        randomize_branch(layer, rng)
    pooled = pooled_input(rng, 5, layer.c_in)
    w = ad.value_of(layer.weight_for(pooled))
    assert w.shape == (5, layer.c_out, layer.c_in // layer.groups, layer.k, layer.k)
    assert np.array_equal(w, np.concatenate([layer.weight_for(pooled[i : i + 1]) for i in range(5)]))


def test_pointwise_rank1_sum_oracle_and_rank_bound():
    rng = np.random.default_rng(4)
    layer = DcdConv("pw", 16, 16, variant="pointwise", rng=np.random.default_rng(5))
    randomize_branch(layer, rng)
    l = layer.dims.l
    pooled = pooled_input(rng, 4, 16)
    w = ad.value_of(layer.weight_for(pooled))[..., 0, 0]
    lam, phi = layer.coefficients(pooled, lambda p: p.value)
    lam, phi = ad.value_of(lam), ad.value_of(phi)
    p_m, q_m = layer.p.value, layer.q.value
    for i in range(4):
        residual = w[i] - lam[i][:, None] * layer.w0.value
        # explicit L² rank-1 outer products
        oracle = np.zeros((16, 16))
        phi_m = phi[i].reshape(l, l)
        for a in range(l):
            for b in range(l):
                oracle += phi_m[a, b] * np.outer(p_m[:, a], q_m[:, b])
        assert np.max(np.abs(residual - oracle)) < 1e-10
        s = T.svd(residual).s
        assert np.all(s[l:] < 1e-10)


def test_pointwise_projection_free_case():
    rng = np.random.default_rng(6)
    layer = DcdConv("pw", 4, 4, variant="pointwise", dims=LatentDims(4, 1),
                    lambda_enabled=False, rng=np.random.default_rng(7))
    layer.p.value = np.eye(4)
    layer.q.value = np.eye(4)
    randomize_branch(layer, rng)
    pooled = pooled_input(rng, 2, 4)
    w = ad.value_of(layer.weight_for(pooled))[..., 0, 0]
    _, phi = layer.coefficients(pooled, lambda p: p.value)
    phi = ad.value_of(phi)
    for i in range(2):
        assert np.max(np.abs(w[i] - (layer.w0.value + phi[i].reshape(4, 4)))) < 1e-12


def test_block_sparse_reduces_to_pointwise_at_one_block():
    a = DcdConv("x", 16, 16, variant="pointwise", rng=np.random.default_rng(8))
    b = DcdConv("x", 16, 16, k=1, variant="block_sparse", blocks=1, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    randomize_branch(a, rng)
    b.branch.w2.value = a.branch.w2.value.copy()
    b.branch.b2.value = a.branch.b2.value.copy()
    pooled = pooled_input(rng, 3, 16)
    assert np.array_equal(ad.value_of(a.weight_for(pooled)), ad.value_of(b.weight_for(pooled)))


def test_block_sparse_zero_pattern_and_diagonal_limit():
    rng = np.random.default_rng(10)
    layer = DcdConv("bs", 8, 8, variant="block_sparse", blocks=2, dims=LatentDims(2, 1),
                    rng=np.random.default_rng(11))
    randomize_branch(layer, rng)
    pooled = pooled_input(rng, 2, 8)
    w = ad.value_of(layer.weight_for(pooled))[..., 0, 0]
    lam, _ = layer.coefficients(pooled, lambda p: p.value)
    lam = ad.value_of(lam)
    cb = 4
    for i in range(2):
        residual = w[i] - lam[i][:, None] * layer.w0.value
        for r in range(8):
            for c in range(8):
                if r // cb != c // cb:
                    assert residual[r, c] == 0.0

    # fully sparse limit: B = C with 1-d latents gives a diagonal residual
    diag_layer = DcdConv("d", 8, 8, variant="block_sparse", blocks=8, dims=LatentDims(1, 1),
                         rng=np.random.default_rng(12))
    randomize_branch(diag_layer, rng)
    w = ad.value_of(diag_layer.weight_for(pooled))[..., 0, 0]
    lam, phi = diag_layer.coefficients(pooled, lambda p: p.value)
    lam, phi = ad.value_of(lam), ad.value_of(phi)
    for i in range(2):
        residual = w[i] - lam[i][:, None] * diag_layer.w0.value
        assert np.max(np.abs(residual - np.diag(np.diag(residual)))) == 0.0
        for b in range(8):
            expected = diag_layer.p.value[b][0] * phi[i, b] * diag_layer.q.value[b][0]
            assert abs(residual[b, b] - expected) < 1e-12


def test_block_sparse_initial_values_are_drawn_p0_q0_p1_q1():
    layer = DcdConv("bs", 8, 8, variant="block_sparse", blocks=2, dims=LatentDims(2, 1),
                    rng=np.random.default_rng(25))
    rng = np.random.default_rng(25)
    assert np.array_equal(layer.w0.value, fan_in_uniform(rng, (8, 8), 8))
    ps, qs = [], []
    for _ in range(2):
        ps.append(fan_in_uniform(rng, (4, 2), 2))
        qs.append(fan_in_uniform(rng, (4, 2), 4))
    assert np.array_equal(layer.p.value, np.concatenate(ps))
    assert np.array_equal(layer.q.value, np.concatenate(qs))


def test_block_sparse_requires_divisible_blocks():
    with pytest.raises(ValueError):
        DcdConv("bad", 8, 8, variant="block_sparse", blocks=3)


def test_depthwise_residual_lies_in_column_space_of_r():
    rng = np.random.default_rng(13)
    layer = DcdConv("dw", 8, 8, k=3, variant="depthwise", rng=np.random.default_rng(14))
    randomize_branch(layer, rng)
    pooled = pooled_input(rng, 3, 8)
    w = ad.value_of(layer.weight_for(pooled)).reshape(3, 8, 9)
    lam, _ = layer.coefficients(pooled, lambda p: p.value)
    lam = ad.value_of(lam)
    # orthogonal projector onto the complement of col(R), via the library SVD
    f = T.svd(layer.r_mat.value)
    u = f.u[:, f.s > 1e-12]
    perp = np.eye(9) - u @ u.T
    for i in range(3):
        residual = w[i] - lam[i][:, None] * layer.w0.value
        assert np.max(np.abs(residual @ perp)) < 1e-10


def test_full_kxk_triple_sum_oracle():
    rng = np.random.default_rng(15)
    layer = DcdConv("kk", 16, 16, k=3, variant="full_kxk", rng=np.random.default_rng(16))
    randomize_branch(layer, rng)
    l, l_k = layer.dims.l, layer.dims.l_k
    pooled = pooled_input(rng, 2, 16)
    w = ad.value_of(layer.weight_for(pooled)).reshape(2, 16, 16, 9)
    lam, phi = layer.coefficients(pooled, lambda p: p.value)
    lam, phi = ad.value_of(lam), ad.value_of(phi)
    q_m, p_m, r_m = layer.q.value, layer.p.value, layer.r_mat.value
    w0 = layer.static_kernel().reshape(16, 16, 9)
    for i in range(2):
        residual = w[i] - lam[i][:, None, None] * w0
        phi_t = phi[i].reshape(l, l, l_k)
        oracle = np.zeros((16, 16, 9))  # conv layout: output, input, kernel element
        for a in range(l):
            for b in range(l):
                for e in range(l_k):
                    oracle += phi_t[a, b, e] * (
                        p_m[:, b][:, None, None] * q_m[:, a][None, :, None] * r_m[:, e][None, None, :]
                    )
        assert np.max(np.abs(residual - oracle)) < 1e-9


def test_full_kxk_projection_free_case():
    rng = np.random.default_rng(17)
    layer = DcdConv("kk", 4, 4, k=3, variant="full_kxk", dims=LatentDims(4, 9),
                    lambda_enabled=False, rng=np.random.default_rng(18))
    layer.p.value = np.eye(4)
    layer.q.value = np.eye(4)
    layer.r_mat.value = np.eye(9)
    randomize_branch(layer, rng)
    pooled = pooled_input(rng, 2, 4)
    w = ad.value_of(layer.weight_for(pooled)).reshape(2, 4, 4, 9)
    _, phi = layer.coefficients(pooled, lambda p: p.value)
    phi = ad.value_of(phi)
    w0 = layer.static_kernel().reshape(4, 4, 9)
    for i in range(2):  # Φ's modes are input, output, kernel element
        assert np.max(np.abs(w[i] - (w0 + phi[i].reshape(4, 4, 9).transpose(1, 0, 2)))) < 1e-12


def test_channel_only_center_slice_structure():
    rng = np.random.default_rng(19)
    layer = DcdConv("co", 16, 16, k=3, variant="channel_only_kxk", rng=np.random.default_rng(20))
    randomize_branch(layer, rng)
    pooled = pooled_input(rng, 3, 16)
    w = ad.value_of(layer.weight_for(pooled)).reshape(3, 16, 16, 9)
    lam, phi = layer.coefficients(pooled, lambda p: p.value)
    lam, phi = ad.value_of(lam), ad.value_of(phi)
    l = layer.dims.l
    center = 4
    w0 = layer.static_kernel().reshape(16, 16, 9)
    for i in range(3):
        static_part = lam[i][:, None, None] * w0
        # off-center slices carry no residual at all (bit-exact)
        for e in range(9):
            if e != center:
                assert np.array_equal(w[i][:, :, e], static_part[:, :, e])
        # center slice equals the pointwise-form residual with the same P, Φ, Q
        qt = np.ascontiguousarray(layer.q.value.T)
        res = T.matmul(layer.p.value, T.matmul(phi[i].reshape(l, l), qt))
        assert np.max(np.abs((w[i][:, :, center] - static_part[:, :, center]) - res)) < 1e-12


def test_channel_only_layer_splits_into_static_plus_pointwise_conv():
    rng = np.random.default_rng(21)
    layer = DcdConv("co", 8, 8, k=3, variant="channel_only_kxk", padding=1,
                    with_bn=False, activation=None, rng=np.random.default_rng(22))
    randomize_branch(layer, rng)
    x = rng.standard_normal((2, 8, 6, 6))
    out = ad.value_of(layer.forward(x))
    pooled = ad.global_avg_pool(x)
    lam, phi = layer.coefficients(pooled, lambda p: p.value)
    lam, phi = ad.value_of(lam), ad.value_of(phi)
    l = layer.dims.l
    qt = np.ascontiguousarray(layer.q.value.T)
    for i in range(2):
        static_kernel = lam[i][:, None, None, None] * layer.w0.value
        res = T.matmul(layer.p.value, T.matmul(phi[i].reshape(l, l), qt)).reshape(8, 8, 1, 1)
        xi = x[i : i + 1]
        split = T.conv2d(xi, static_kernel, padding=1) + T.conv2d(xi, res, padding=0)
        assert np.max(np.abs(out[i] - split[0])) < 1e-10


# ---------------------------------------------------------------------------
# full layer forward


@pytest.mark.parametrize("name,cfg", ALL_VARIANT_LAYERS)
def test_layer_forward_matches_static_at_init(name, cfg):
    rng = np.random.default_rng(23)
    pad = 1 if cfg["k"] == 3 else 0
    layer = DcdConv(name, padding=pad, rng=np.random.default_rng(24), **cfg)
    static = layer.static_equivalent()
    x = rng.standard_normal((2, cfg["c_in"], 6, 6))
    for train in (False, True):
        out_dyn = ad.value_of(layer.forward(x, train=train))
        out_static = ad.value_of(static.forward(x, train=train))
        assert np.array_equal(out_dyn, out_static), f"{name}: init forward differs (train={train})"


# ---------------------------------------------------------------------------
# factored execution against the materialised reference


FACTORED_LAYERS = [
    ("pointwise", dict(c_in=16, c_out=12, variant="pointwise")),
    ("pointwise-no-lambda-bias-s2", dict(c_in=16, c_out=16, variant="pointwise", lambda_enabled=False,
                                         bias=True, stride=2)),
    ("block_sparse-B1", dict(c_in=16, c_out=16, variant="block_sparse", blocks=1)),
    ("block_sparse-B2-s2", dict(c_in=16, c_out=16, variant="block_sparse", blocks=2, dims=LatentDims(2, 1),
                                stride=2)),
    ("block_sparse-B4-no-lambda-bias", dict(c_in=16, c_out=16, variant="block_sparse", blocks=4,
                                            dims=LatentDims(2, 1), lambda_enabled=False, bias=True)),
    ("depthwise", dict(c_in=8, c_out=8, k=3, variant="depthwise", padding=1)),
    ("depthwise-no-lambda-s2", dict(c_in=8, c_out=8, k=3, variant="depthwise", padding=1, stride=2,
                                    lambda_enabled=False)),
    ("full_kxk-bias", dict(c_in=16, c_out=12, k=3, variant="full_kxk", padding=1, bias=True, dims=LatentDims(3, 4))),
    ("full_kxk-no-lambda-s2", dict(c_in=16, c_out=16, k=3, variant="full_kxk", stride=2, lambda_enabled=False)),
    ("full_kxk-square-R", dict(c_in=8, c_out=8, k=3, variant="full_kxk", padding=1, dims=LatentDims(1, 9))),
    ("channel_only-pad0", dict(c_in=16, c_out=12, k=3, variant="channel_only_kxk")),  # d = -1
    ("channel_only-pad1-s2", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk", padding=1, stride=2)),
    ("channel_only-pad2-no-lambda-bias", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk", padding=2,
                                              lambda_enabled=False, bias=True)),  # d = 1
    ("channel_only-k5-pad1-s2", dict(c_in=16, c_out=16, k=5, variant="channel_only_kxk", padding=1, stride=2)),
]


def _factored_layer(cfg, seed):
    layer = DcdConv("f", with_bn=False, activation=None, rng=np.random.default_rng(seed), **cfg)
    randomize_branch(layer, np.random.default_rng(seed + 1))
    return layer


def _materialised(layer, x, lift):
    """conv2d(x, weight_for(pooled)): one full kernel per sample."""
    kernels = layer.weight_for(ad.global_avg_pool(x), lift)
    out = ad.conv2d(x, kernels, stride=layer.stride, padding=layer.padding, groups=layer.groups)
    return out if layer.bias is None else ad.add(out, ad.reshape(lift(layer.bias), (1, layer.c_out, 1, 1)))


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def _on_plan(monkeypatch, materialised):
    """Make every pointwise layer run the given plan, whatever its input size."""
    monkeypatch.setattr(layers, "materialises", lambda layer, h, w: layer.variant == "depthwise"
                        or materialised and layer.variant == "pointwise")


def _plan_grads(layer, x, target):
    """Every parameter and input gradient of Σ forward(x)·target, by name."""
    tape = ad.Tape()
    x_param = ad.Parameter("x", x)
    g = ad.backward(ad.sum_all(ad.mul(layer.forward(tape.leaf(x, param=x_param)), target)))
    return {p.name: g.get(p, np.zeros_like(p.value)) for p in layer.parameters() + [x_param]}


@pytest.mark.parametrize("name,cfg", FACTORED_LAYERS, ids=[n for n, _ in FACTORED_LAYERS])
def test_factored_forward_matches_materialised_kernels(name, cfg, monkeypatch):
    """Λ⊙(W0∗x) + P·Φ·(Qᵀx) equals the per-sample kernel path, in value and,
    on a tape, in every parameter and input gradient; batch 4 equals the
    stacked batch-1 outputs bit for bit.  Pointwise layers are held on the
    factored plan, which they leave at this size; depthwise has no other."""
    _on_plan(monkeypatch, False)
    layer = _factored_layer(cfg, 40)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((4, cfg["c_in"], 7, 7))
    ref = _materialised(layer, x, lambda p: p.value)
    out = layer.forward(x)
    assert out.shape == ref.shape and _rel_err(out, ref) <= 1e-10
    assert np.array_equal(out, np.concatenate([layer.forward(x[i : i + 1]) for i in range(4)]))
    target = rng.standard_normal(out.shape)
    grads = []
    for factored in (True, False):
        tape = ad.Tape()
        x_param = ad.Parameter("x", x)
        xn = tape.leaf(x, param=x_param)
        if factored:
            y = layer.forward(xn)
        else:
            leaves = {id(p): tape.leaf(p.value, param=p) for p in layer.parameters()}
            y = _materialised(layer, xn, lambda p: leaves[id(p)])
        assert _rel_err(ad.value_of(y), ref) <= 1e-10
        g = ad.backward(ad.sum_all(ad.mul(y, target)))
        grads.append({p.name: g.get(p, np.zeros_like(p.value)) for p in layer.parameters() + [x_param]})
    for pname, g in grads[0].items():
        assert _rel_err(g, grads[1][pname]) <= 1e-10, f"{name}: gradient of {pname}"


POINTWISE_PLANS = [  # (name, cfg, input size, whether the forward materialises W(x) there)
    (name, cfg, h, h == 7) for (name, cfg), factored_h in zip(FACTORED_LAYERS[:2], (2, 3)) for h in (factored_h, 7)
]


@pytest.mark.parametrize("name,cfg,h,materialised", POINTWISE_PLANS,
                         ids=[f"{name}-{h}x{h}" for name, _, h, _ in POINTWISE_PLANS])
def test_a_pointwise_layer_runs_the_plan_that_counts_fewer_madds(name, cfg, h, materialised, monkeypatch):
    """On each side of the rule the forward runs the plan `materialises`
    picks: one conv with W(x), which `_kernel` assembles, or the four of
    the factored chain (W0, Qᵀ, Φ, P) and no `_kernel`.  The other
    plan, forced, gives the same outputs and every parameter and input
    gradient to 1e-10 relative, and under either plan batch 4 equals the
    stacked batch-1 outputs bit for bit."""
    layer = _factored_layer(cfg, 40)
    rng = np.random.default_rng(41)
    x = rng.standard_normal((4, cfg["c_in"], h, h))
    target = rng.standard_normal((4, cfg["c_out"]) + (layer.out_size(h),) * 2)
    a, b = layers.plan_madds(layer, h, h)
    assert layers.materialises(layer, h, h) == materialised == (b < a)
    calls, conv2d, kernel = [], T.conv2d, DcdConv._kernel
    monkeypatch.setattr(T, "conv2d", lambda *args, **kw: calls.append("conv") or conv2d(*args, **kw))
    monkeypatch.setattr(DcdConv, "_kernel", lambda *args: calls.append("kernel") or kernel(*args))
    runs = []
    for plan in (materialised, not materialised):  # the forward's own choice first, then the other one
        if plan != materialised:
            _on_plan(monkeypatch, plan)
        calls.clear()
        out = layer.forward(x)
        assert calls == (["kernel", "conv"] if plan else ["conv"] * 4)
        assert np.array_equal(out, np.concatenate([layer.forward(x[i : i + 1]) for i in range(4)]))
        runs.append((out, _plan_grads(layer, x, target)))
    (out, grads), (ref, ref_grads) = runs
    assert _rel_err(out, ref) <= 1e-10
    for pname, g in grads.items():
        assert _rel_err(g, ref_grads[pname]) <= 1e-10, f"{name}: gradient of {pname}"


CHAIN_LAYERS = [  # (name, cfg, map sizes): the variants whose factored chain is three 1×1 convs
    ("pointwise", dict(c_in=16, c_out=12, variant="pointwise"), (2, 5)),
    ("pointwise-no-lambda", dict(c_in=12, c_out=16, variant="pointwise", lambda_enabled=False), (2, 5)),
    ("block_sparse-B2", dict(c_in=16, c_out=16, variant="block_sparse", blocks=2, dims=LatentDims(2, 1)), (2, 5)),
    ("channel_only-pad1", dict(c_in=16, c_out=12, k=3, variant="channel_only_kxk", padding=1), (2, 5)),
    ("channel_only-pad0", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk"), (3, 5)),  # d = -1
    ("channel_only-pad2-no-lambda", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk", padding=2,
                                         lambda_enabled=False), (2, 5)),  # d = 1
]


@pytest.mark.parametrize("materialised", [False, True], ids=["factored", "materialised"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("name,cfg,sizes", CHAIN_LAYERS, ids=[name for name, *_ in CHAIN_LAYERS])
def test_dcd_conv_keeps_the_bits_of_its_op_per_step_form(name, cfg, sizes, stride, materialised, monkeypatch):
    """Each plan, forced, equals `dcd_conv_reference` (the branch, Λ and Qᵀ
    one op per step, the factored chain as three 1×1 convs) bit for bit at
    batch 1 and 8, on maps where stride 2 leaves one output position and
    where it leaves several, on the forward that keeps Qᵀ and on one that
    reads it kept."""
    monkeypatch.setattr(layers, "materialises", lambda layer, h, w: materialised)
    layer = DcdConv("f", with_bn=False, activation=None, stride=stride, rng=np.random.default_rng(70), **cfg)
    randomize_branch(layer, np.random.default_rng(71))
    rng = np.random.default_rng(72)
    for h in sizes:
        x = rng.standard_normal((8, cfg["c_in"], h, h))
        for batch in (x[:1], x):
            want = dcd_conv_reference(layer, batch, materialised)
            for _ in range(2):
                out = layer.forward(batch)
                assert out.shape == want.shape and np.array_equal(out, want) and out.tobytes() == want.tobytes()


DEPTHWISE_LAYERS = [  # (name, cfg, bit-equal): P·(Φ·Rᵀ) at C > k² as before, (P·Φ)·Rᵀ at C ≤ k²
    ("depthwise-C16", dict(c_in=16, c_out=16, k=3, variant="depthwise", padding=1), True),
    ("depthwise-C16-no-lambda", dict(c_in=16, c_out=16, k=3, variant="depthwise", padding=1,
                                     lambda_enabled=False), True),
    ("depthwise-C8", dict(c_in=8, c_out=8, k=3, variant="depthwise", padding=1), False),
]
FUSED_CASES = [pytest.param(name, cfg, sizes, stride, plan, True,
                            id=f"{name}-{stride}-{'materialised' if plan else 'factored'}")
               for name, cfg, sizes in CHAIN_LAYERS for stride in (1, 2) for plan in (False, True)]
FUSED_CASES += [pytest.param(name, cfg, (2, 5), stride, True, exact, id=f"{name}-{stride}-materialised")
                for name, cfg, exact in DEPTHWISE_LAYERS for stride in (1, 2)]


@pytest.mark.parametrize("name,cfg,sizes,stride,materialised,exact", FUSED_CASES)
def test_the_fused_ops_keep_the_bits_of_the_ops_they_replace(name, cfg, sizes, stride, materialised, exact,
                                                             monkeypatch):
    """`relu_linear`, `lowrank_kernel` and `latent_chain` give the bytes of
    the ops they replace (`reference_kernels.composed_*`): eager outputs at
    batch 1 and 8, and for eval and train-mode taped forwards the outputs,
    every parameter and input gradient, and the batch-norm buffers.  A
    depthwise kernel equals the composed one it replaced bit for bit at
    C > k², where both run P·(Φ·Rᵀ), and to 1e-12 relative at C ≤ k², where
    `lowrank_kernel` runs the cheaper (P·Φ)·Rᵀ."""
    monkeypatch.setattr(layers, "materialises", lambda layer, h, w: materialised)

    def run():
        layer = DcdConv("f", stride=stride, rng=np.random.default_rng(80), **cfg)
        randomize_branch(layer, np.random.default_rng(81))
        rng = np.random.default_rng(82)
        values = []
        for h in sizes:
            x = rng.standard_normal((8, cfg["c_in"], h, h))
            for batch in (x[:1], x):
                values.append(layer.forward(batch))
                for train in (False, True):
                    tape = ad.Tape()
                    x_param = ad.Parameter("x", batch)
                    y = layer.forward(tape.leaf(batch, param=x_param), train=train)
                    grads = ad.backward(ad.sum_all(ad.mul(y, rng.standard_normal(y.shape))))
                    values += [y.value] + [grads.get(p, np.zeros(0)) for p in layer.parameters() + [x_param]]
                    values += [buffer for _, buffer in layer.buffers()]
        return values

    fused = run()
    for op, composed in (("relu_linear", composed_relu_linear), ("lowrank_kernel", composed_lowrank_kernel),
                         ("latent_chain", composed_latent_chain)):
        monkeypatch.setattr(ad, op, composed)
    if cfg["variant"] == "depthwise":
        monkeypatch.setattr(DcdConv, "_kernel", composed_depthwise_kernel)
    replaced = run()
    assert len(fused) == len(replaced) and all(f.shape == r.shape for f, r in zip(fused, replaced))
    if exact:
        assert all(f.tobytes() == r.tobytes() for f, r in zip(fused, replaced))
    else:
        assert any(f.tobytes() != r.tobytes() for f, r in zip(fused, replaced))
        assert all(_rel_err(f, r) <= 1e-12 for f, r in zip(fused, replaced) if r.size)


def _bn_layer(cfg, seed):
    """A DCD layer with batch norm, seeded branches and non-trivial BN state."""
    layer = DcdConv("f", rng=np.random.default_rng(seed), **cfg)
    rng = np.random.default_rng(seed + 1)
    randomize_branch(layer, rng)
    bn = layer.bn
    T.write_state(bn.gamma.value, rng.uniform(0.5, 1.5, bn.channels))
    T.write_state(bn.beta.value, rng.standard_normal(bn.channels))
    T.write_state(bn.running_mean, rng.standard_normal(bn.channels))
    T.write_state(bn.running_var, rng.uniform(0.5, 2.0, bn.channels))
    return layer


@pytest.mark.parametrize("cfg", [
    dict(c_in=8, c_out=8, k=3, variant="depthwise", padding=1),
    dict(c_in=8, c_out=8, k=3, variant="depthwise", padding=1, stride=2, lambda_enabled=False, bias=True),
    dict(c_in=8, c_out=8, variant="pointwise"),
    dict(c_in=8, c_out=16, variant="pointwise", stride=2, lambda_enabled=False, bias=True),
], ids=["depthwise", "depthwise-no-lambda-bias-s2", "pointwise", "pointwise-no-lambda-bias-s2"])
def test_a_materialised_forward_is_one_conv_with_the_weight_for_kernel(cfg):
    """A layer on the materialised plan (depthwise always, pointwise at 7×7)
    runs conv2d(x, weight_for(pooled)) and the head, bit for bit."""
    layer = _bn_layer(cfg, 44)
    assert layers.materialises(layer, 7, 7)
    x = np.random.default_rng(45).standard_normal((3, 8, 7, 7))
    kernels = layer.weight_for(ad.global_avg_pool(x))
    conv = ad.conv2d(x, kernels, stride=layer.stride, padding=layer.padding, groups=layer.groups)
    assert np.array_equal(layer.forward(x), layer._head(conv, False, lambda p: p.value))


def test_eval_batchnorm_is_one_scale_and_shift():
    bn = _bn_layer(dict(c_in=6, c_out=6), 50).bn
    x = np.random.default_rng(52).standard_normal((3, 6, 4, 4))
    inv = 1.0 / np.sqrt(bn.running_var + ad.BN_EPS)
    w = (bn.gamma.value * inv).reshape(1, 6, 1, 1)
    b = (bn.beta.value - bn.running_mean * bn.gamma.value * inv).reshape(1, 6, 1, 1)
    assert np.array_equal(bn.forward(x, False, lambda p: p.value), x * w + b)


@pytest.mark.parametrize("name,cfg", FACTORED_LAYERS, ids=[n for n, _ in FACTORED_LAYERS])
def test_fused_tails_equal_mul_then_add(name, cfg, monkeypatch):
    """The DCD tail Λ⊙(W0∗x) + residual and eval batch norm, each one
    `affine`, give the bits of the `mul`-then-`add` composition: eval
    outputs, and gradients of eval and train-mode taped forwards."""
    x = np.random.default_rng(53).standard_normal((3, cfg["c_in"], 6, 6))

    def run():
        out = [_bn_layer(cfg, 51).forward(x)]
        for train in (False, True):
            layer = _bn_layer(cfg, 51)
            tape = ad.Tape()
            x_param = ad.Parameter("x", x)
            y = layer.forward(tape.leaf(x, param=x_param), train=train)
            grads = ad.backward(ad.sum_all(ad.mul(y, np.random.default_rng(54).standard_normal(y.shape))))
            out += [ad.value_of(y)] + [grads[p] for p in layer.parameters() + [x_param] if p in grads]
        return out

    fused = run()
    monkeypatch.setattr(ad, "affine", lambda a, w, b: ad.add(ad.mul(a, w), b))
    unfused = run()
    assert len(fused) == len(unfused) and all(np.array_equal(f, u) for f, u in zip(fused, unfused))


def test_coefficients_are_one_branch_forward_split_into_lambda_plus_one_and_phi():
    """Λ is the branch output's first C_out entries plus 1 and Φ the rest,
    each a contiguous array of its own, from one branch forward."""
    layer = DcdConv("o", 16, 12, k=3, variant="full_kxk", padding=1, rng=np.random.default_rng(44))
    randomize_branch(layer, np.random.default_rng(45))
    pooled = np.random.default_rng(46).standard_normal((3, 16))
    raw = layer.branch.forward(pooled, lambda p: p.value)
    runs, branch_forward = [], layer.branch.forward
    layer.branch.forward = lambda *a: runs.append(1) or branch_forward(*a)
    lam, phi = layer.coefficients(pooled, lambda p: p.value)
    assert len(runs) == 1
    assert lam.tobytes() == (np.ascontiguousarray(raw[:, :12]) + 1.0).tobytes() and lam.shape == (3, 12)
    assert phi.tobytes() == np.ascontiguousarray(raw[:, 12:]).tobytes() and phi.shape == (3, layer.phi_len)
    assert lam.flags.c_contiguous and phi.flags.c_contiguous and not np.shares_memory(lam, phi)


def test_identical_samples_get_identical_outputs():
    rng = np.random.default_rng(25)
    layer = DcdConv("pw", 8, 8, variant="pointwise", rng=np.random.default_rng(26))
    randomize_branch(layer, rng)
    one = rng.standard_normal((1, 8, 5, 5))
    x = np.concatenate([one, one], axis=0)
    out = ad.value_of(layer.forward(x, train=False))
    assert np.array_equal(out[0], out[1])


def test_eval_mode_has_no_cross_sample_leakage():
    rng = np.random.default_rng(27)
    layer = DcdConv("pw", 8, 8, variant="pointwise", rng=np.random.default_rng(28))
    randomize_branch(layer, rng)
    x = rng.standard_normal((2, 8, 5, 5))
    batched = ad.value_of(layer.forward(x, train=False))
    singles = np.concatenate(
        [ad.value_of(layer.forward(x[i : i + 1], train=False)) for i in range(2)], axis=0
    )
    assert np.max(np.abs(batched - singles)) <= 1e-12


def test_pointwise_param_count_formula():
    c, r = 64, 16.0
    layer = DcdConv("pw", c, c, variant="pointwise", r=r, rng=np.random.default_rng(29))
    l = layer.dims.l
    squeeze = int(c / r)
    countable = sum(p.value.size for p in layer.parameters()) - sum(
        p.value.size for p in layer.bn.parameters()
    )
    biases = squeeze + c + l * l
    assert countable == c * c + 2 * c * l + (2 * c + l * l) * squeeze + biases


def test_branch_split_layout():
    layer = DcdConv("pw", 8, 8, variant="pointwise", rng=np.random.default_rng(30))
    assert layer.branch.d_out == 8 + layer.dims.l ** 2
    no_lam = DcdConv("pw2", 8, 8, variant="pointwise", lambda_enabled=False,
                     rng=np.random.default_rng(31))
    assert no_lam.branch.d_out == no_lam.dims.l ** 2


def test_depthwise_layer_gradcheck():
    rng = np.random.default_rng(32)
    layer = DcdConv("dw", 4, 4, k=3, variant="depthwise", padding=1, r=2.0,
                    rng=np.random.default_rng(33))
    randomize_branch(layer, rng, scale=0.3)
    x_param = ad.Parameter("x", rng.standard_normal((2, 4, 5, 5)))
    target = rng.standard_normal((2, 4, 5, 5))

    def loss():
        tape = ad.Tape()
        x_node = tape.leaf(x_param.value, param=x_param)
        out = layer.forward(x_node, train=True)
        return ad.sum_all(ad.mul(out, target))

    params = [p for p in layer.parameters()] + [x_param]
    report = finite_diff_check(loss, params, tol=1e-6)
    assert report.passed, report


def test_taped_dcd_conv_calls_tensor_kernels_through_the_module(monkeypatch):
    """Ops look tensor kernels up at call time, so wrapping the module
    attributes (as the benchmark tracer does) sees every call."""
    calls = {}
    for kernel in ("conv2d", "matmul", "im2col"):
        def counted(*args, _kernel=kernel, _original=getattr(T, kernel), **kwargs):
            calls[_kernel] = calls.get(_kernel, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(T, kernel, counted)
    layer = DcdConv("kxk", 4, 4, k=3, variant="channel_only_kxk", padding=1, r=2.0,
                    rng=np.random.default_rng(35))
    tape = ad.Tape()
    out = layer.forward(tape.leaf(np.random.default_rng(36).standard_normal((2, 4, 5, 5))), train=True)
    forward_calls = dict(calls)
    ad.backward(ad.sum_all(out))
    assert set(forward_calls) == {"conv2d", "matmul", "im2col"}
    assert calls["matmul"] > forward_calls["matmul"] and calls["im2col"] > forward_calls["im2col"]


def test_static_conv_forward_shapes_and_bias():
    rng = np.random.default_rng(34)
    layer = StaticConv("s", 3, 5, k=3, stride=2, padding=1, bias=True,
                       with_bn=False, activation=None, rng=rng)
    x = rng.standard_normal((2, 3, 9, 9))
    out = ad.value_of(layer.forward(x))
    assert out.shape == (2, 5, 5, 5)
    ref = T.conv2d(x, layer.weight.value, stride=2, padding=1) + layer.bias.value.reshape(1, 5, 1, 1)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize(
    "name,make",
    [(name, lambda cfg=cfg, name=name: DcdConv(name, padding=cfg["k"] // 2, rng=np.random.default_rng(35), **cfg))
     for name, cfg in ALL_VARIANT_LAYERS]
    + [("vanilla", lambda: VanillaDynConv("v", 16, 16, rng=np.random.default_rng(35)))],
)
def test_dynamic_layers_accept_an_empty_batch(name, make):
    layer = make()
    x = np.zeros((0, layer.c_in, 6, 6))
    shape = (0, layer.c_out, layer.out_size(6), layer.out_size(6))
    assert ad.value_of(layer.forward(x)).shape == shape
    tape = ad.Tape()
    assert ad.value_of(layer.forward(tape.leaf(x))).shape == shape


def test_train_mode_batchnorm_rejects_an_empty_batch_and_keeps_running_stats():
    layer = StaticConv("s", 4, 4, k=3, padding=1)
    layer.forward(np.random.default_rng(36).standard_normal((2, 4, 6, 6)), train=True)
    mean, var = layer.bn.running_mean.copy(), layer.bn.running_var.copy()
    x = np.zeros((0, 4, 6, 6))
    for tape in (None, ad.Tape()):
        with pytest.raises(ValueError, match=r"^s\.bn: .*empty batch"):
            layer.forward(x if tape is None else tape.leaf(x), train=True)
    assert np.array_equal(layer.bn.running_mean, mean)
    assert np.array_equal(layer.bn.running_var, var)
    assert ad.value_of(layer.forward(x, train=False)).shape == (0, 4, 6, 6)


# ---------------------------------------------------------------------------
# finite checks at the layer boundary: each sits before an op that could hide
# a non-finite value, since no op checks its own result


def test_pre_activation_is_checked_before_the_relu_hides_minus_inf():
    layer = StaticConv("s", 2, 2)
    T.write_state(layer.bn.beta.value, -np.inf, 0)  # the eval shift drives channel 0 to -inf; ReLU would give 0
    with pytest.raises(T.NonFiniteError, match="^non-finite values in pre-activation$"):
        layer.forward(np.ones((1, 2, 3, 3)))


def test_nan_input_to_train_mode_batchnorm_leaves_running_stats_untouched():
    layer = StaticConv("s", 2, 2)
    x = np.ones((2, 2, 3, 3))
    x[1, 0, 1, 1] = np.nan
    with pytest.raises(T.NonFiniteError, match="^non-finite values in batch-norm statistics$"):
        layer.forward(x, train=True)
    assert np.array_equal(layer.bn.running_mean, np.zeros(2))
    assert np.array_equal(layer.bn.running_var, np.ones(2))


def test_batchnorm_statistics_that_overflow_leave_running_stats_untouched():
    """A finite input of ±1e200 has an infinite batch variance; written into
    `running_var`, it would collapse every later eval output to beta.  The
    overflow raises the layer's error, not a RuntimeWarning, under the
    suite's warning filter."""
    layer = StaticConv("s", 2, 2)
    x = np.full((2, 2, 3, 3), 1e200)
    x[1] = -1e200
    with pytest.raises(T.NonFiniteError, match="^non-finite values in batch-norm statistics$"):
        layer.forward(x, train=True)
    assert np.array_equal(layer.bn.running_mean, np.zeros(2))
    assert np.array_equal(layer.bn.running_var, np.ones(2))


@pytest.mark.parametrize("taped", [False, True], ids=["eager", "taped"])
def test_batchnorm_mean_that_overflows_is_caught_eager_and_taped(taped):
    """An input of 1e308 everywhere has an infinite batch mean, so the
    normalised output and x̂ are inf·0; neither may warn before the check."""
    layer = StaticConv("s", 2, 2)
    x = np.full((2, 2, 3, 3), 1e308)
    with pytest.raises(T.NonFiniteError, match="^non-finite values in batch-norm statistics$"):
        layer.forward(ad.Tape().leaf(x) if taped else x, train=True)
    assert np.array_equal(layer.bn.running_mean, np.zeros(2))
    assert np.array_equal(layer.bn.running_var, np.ones(2))


@pytest.mark.parametrize("mode", ["softmax", "sigmoid"])
def test_attention_logits_are_checked_before_they_saturate(mode):
    layer = VanillaDynConv("v", 4, 4, mode=mode, rng=np.random.default_rng(37))
    T.write_state(layer.branch.b2.value, -np.inf, 0)  # kernel 0 would get attention weight 0 and the output stay finite
    with pytest.raises(T.NonFiniteError, match="^non-finite values in attention logits$"):
        layer.forward(np.random.default_rng(38).standard_normal((2, 4, 3, 3)))


@pytest.mark.parametrize("make", [
    lambda: DcdConv("d", 8, 8, rng=np.random.default_rng(39)),
    lambda: VanillaDynConv("v", 8, 8, rng=np.random.default_rng(39)),
], ids=["dcd", "vanilla"])
def test_branch_hidden_layer_is_checked_before_its_relu(make):
    layer = make()
    T.write_state(layer.branch.b1.value, -np.inf, 0)  # ReLU would turn the hidden unit into 0
    with pytest.raises(T.NonFiniteError, match="^non-finite values in branch hidden layer$"):
        layer.forward(np.random.default_rng(40).standard_normal((2, 8, 3, 3)))


@pytest.mark.parametrize("make", [
    lambda: DcdConv("d", 8, 8, rng=np.random.default_rng(41)),
    lambda: VanillaDynConv("v", 8, 8, rng=np.random.default_rng(41)),
], ids=["dcd", "vanilla"])
def test_a_non_finite_kernel_is_caught_at_the_pre_activation(make):
    """Every kernel entry feeds its output channel, so a NaN in W0 or in one
    of the K kernels reaches the pre-activation check."""
    layer = make()
    T.write_state((layer.w0 if isinstance(layer, DcdConv) else layer.kernels).value.reshape(-1), np.nan, 0)
    with pytest.raises(T.NonFiniteError, match="^non-finite values in pre-activation$"):
        layer.forward(np.random.default_rng(42).standard_normal((2, 8, 3, 3)))


def test_a_parameter_gradient_that_overflows_raises_in_backward_naming_its_layer():
    """A zero input and kernel keep the output and the loss at 0, but the
    bias gradient sums 100 positions of 1e307."""
    layer = StaticConv("s", 1, 1, bias=True, with_bn=False, activation=None)
    T.write_state(layer.weight.value, 0.0)
    out = layer.forward(ad.Tape().leaf(np.zeros((1, 1, 10, 10))), train=True)
    loss = ad.sum_all(ad.mul(out, 1e307))
    assert ad.value_of(loss) == 0.0
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError) as info:
        ad.backward(loss)
    assert str(info.value) == "non-finite values in gradient of s.bias" and info.value.layer == "s"


@pytest.mark.parametrize("make,method", [
    (lambda: DcdConv("d", 8, 8, rng=np.random.default_rng(44)), "weight_for"),
    (lambda: VanillaDynConv("v", 8, 8, rng=np.random.default_rng(44)), "weight_for"),
    (lambda: VanillaDynConv("v", 8, 8, rng=np.random.default_rng(44)), "attention"),
], ids=["dcd-weight_for", "vanilla-weight_for", "vanilla-attention"])
def test_taped_pooled_input_without_lift_puts_the_parameters_on_its_tape(make, method):
    """Called without `lift`, `weight_for` and `attention` give the gradients
    of an explicit lift onto the pooled input's tape, not an empty dict."""
    layer = make()
    randomize_branch(layer, np.random.default_rng(45))
    pooled = pooled_input(np.random.default_rng(46), 3, 8)
    tape = ad.Tape()
    leaves = {id(p): tape.leaf(p.value, param=p) for p in layer.parameters()}
    want = ad.backward(ad.sum_all(getattr(layer, method)(tape.leaf(pooled), lambda p: leaves[id(p)])))
    got = ad.backward(ad.sum_all(getattr(layer, method)(ad.Tape().leaf(pooled))))
    assert want and layer.branch.w2 in want
    assert [p.name for p in got] == [p.name for p in want]
    for p, g in want.items():
        assert np.array_equal(got[p], g), p.name
