"""Layer zoo: latent-dim rules, weight-generation identities, forward semantics."""

import numpy as np
import pytest

from dynconv import autodiff as ad
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
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(9, 1), c_in=64, c_out=64, k=1, variant="pointwise")
    # budget rule may be relaxed; structural rank rule may not
    validate_latent_dims(LatentDims(9, 1), c_in=64, c_out=64, k=1, variant="pointwise", enforce_budget=False)
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(65, 1), c_in=64, c_out=64, k=1, variant="pointwise", enforce_budget=False)
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(2, 1), c_in=8, c_out=8, k=1, variant="block_sparse", blocks=3)
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(1, 10), c_in=8, c_out=8, k=3, variant="depthwise")
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(2, 4), c_in=16, c_out=16, k=3, variant="channel_only_kxk")
    with pytest.raises(ValueError):
        validate_latent_dims(LatentDims(2, 9), c_in=16, c_out=16, k=3, variant="full_kxk")
    validate_latent_dims(LatentDims(2, 9), c_in=16, c_out=16, k=3, variant="full_kxk", enforce_budget=False)


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
    layer.w2.value[:] = 0.0  # equal logits for every input
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
                    lambda_enabled=False, enforce_budget=False, rng=np.random.default_rng(7))
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
                    lambda_enabled=False, enforce_budget=False, rng=np.random.default_rng(18))
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
    ("channel_only-pad0", dict(c_in=16, c_out=12, k=3, variant="channel_only_kxk")),  # d = -1
    ("channel_only-pad1-s2", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk", padding=1, stride=2)),
    ("channel_only-pad2-no-lambda-bias", dict(c_in=16, c_out=16, k=3, variant="channel_only_kxk", padding=2,
                                              lambda_enabled=False, bias=True)),  # d = 1
    ("channel_only-k5-pad1-s2", dict(c_in=16, c_out=16, k=5, variant="channel_only_kxk", padding=1, stride=2)),
]


def _factored_layer(cfg, seed):
    layer = DcdConv("f", with_bn=False, activation=None, enforce_budget=False,
                    rng=np.random.default_rng(seed), **cfg)
    randomize_branch(layer, np.random.default_rng(seed + 1))
    return layer


def _materialised(layer, x, lift):
    """conv2d(x, weight_for(pooled)): one full kernel per sample."""
    kernels = layer.weight_for(ad.global_avg_pool(x), lift)
    out = ad.conv2d(x, kernels, stride=layer.stride, padding=layer.padding, groups=layer.groups)
    return out if layer.bias is None else ad.add(out, ad.reshape(lift(layer.bias), (1, layer.c_out, 1, 1)))


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("name,cfg", FACTORED_LAYERS, ids=[n for n, _ in FACTORED_LAYERS])
def test_factored_forward_matches_materialised_kernels(name, cfg):
    """Λ⊙(W0∗x) + P·Φ·(Qᵀx) equals the per-sample kernel path, in value and,
    on a tape, in every parameter and input gradient; batch 4 equals the
    stacked batch-1 outputs bit for bit."""
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


def _bn_layer(cfg, seed):
    """A DCD layer with batch norm, seeded branches and non-trivial BN state."""
    layer = DcdConv("f", enforce_budget=False, rng=np.random.default_rng(seed), **cfg)
    rng = np.random.default_rng(seed + 1)
    randomize_branch(layer, rng)
    bn = layer.bn
    bn.gamma.value[...] = rng.uniform(0.5, 1.5, bn.channels)
    bn.beta.value[...] = rng.standard_normal(bn.channels)
    bn.running_mean[...] = rng.standard_normal(bn.channels)
    bn.running_var[...] = rng.uniform(0.5, 2.0, bn.channels)
    return layer


def test_eval_batchnorm_is_one_scale_and_shift():
    bn = _bn_layer(dict(c_in=6, c_out=6), 50).bn
    x = np.random.default_rng(52).standard_normal((3, 6, 4, 4))
    inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
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


def test_observer_sees_the_forward_coefficients_without_changing_outputs():
    layer = DcdConv("o", 16, 16, k=3, variant="full_kxk", padding=1, rng=np.random.default_rng(44))
    randomize_branch(layer, np.random.default_rng(45))
    x = np.random.default_rng(46).standard_normal((3, 16, 6, 6))
    plain = layer.forward(x)
    seen, branch_runs, branch_forward = [], [], layer.branch.forward
    layer.branch.forward = lambda *a: branch_runs.append(1) or branch_forward(*a)
    layer.observer = lambda lay, pooled, lam, phi: seen.append((pooled, lam, phi))
    observed = layer.forward(x)
    layer.observer = None
    del layer.branch.forward
    assert np.array_equal(observed, plain)
    assert len(seen) == 1 and len(branch_runs) == 1
    lam, phi = layer.coefficients(ad.global_avg_pool(x), lambda p: p.value)
    assert np.array_equal(seen[0][1], lam) and np.array_equal(seen[0][2], phi)


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
