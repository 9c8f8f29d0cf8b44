"""The reference kernels that `dynconv.tensor`'s BLAS kernels are tested
against: a matmul and a shared-kernel conv2d whose sums run left to right
over the contraction axis, so naive loop oracles reproduce them bit for bit.
Also the op-per-step forms of the 1×1 conv and of a DCD layer's conv, which
the fused paths must equal bit for bit, the DCD layer's three fused
autodiff ops as the ops they replace, and the depthwise DCD kernel as the
layer composed it."""

import numpy as np

from dynconv import autodiff as ad
from dynconv.tensor import BLOCK_ELEMENTS, _conv_shapes, as_tensor, conv2d, im2col, matmul, stacked_matmul


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) @ (k,n) with a fixed left-to-right sum over k.

    Each output entry accumulates a[i,0]*b[0,j], then a[i,1]*b[1,j], ...
    exactly as a scalar triple loop would, so an oracle using that order
    reproduces the result bit-for-bit.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[1]):
        out += a[:, i : i + 1] * b[i : i + 1, :]
    return out


def conv2d_reference(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """conv2d with a shared kernel, as `matmul_reference` over the patch rows.

    Per group, the contraction over (c_in, dy, dx) runs in that row-major
    order, left to right, so a scalar loop oracle matches exactly.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if weight.ndim != 4:
        raise ValueError(f"conv2d_reference takes a shared (C_out, C_in/groups, kh, kw) kernel, got {weight.shape}")
    n, c_out, c_in_g, kh, kw, ho, wo = _conv_shapes(x, weight, stride, padding, groups)
    cols = im2col(x, kh, kw, stride, padding).transpose(1, 0, 2).reshape(-1, n * ho * wo)
    og, kg = c_out // groups, c_in_g * kh * kw
    flat = np.concatenate([
        matmul_reference(weight[g * og : (g + 1) * og].reshape(og, kg), cols[g * kg : (g + 1) * kg])
        for g in range(groups)
    ])
    return np.ascontiguousarray(flat.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3))


def conv1x1_reference(x: np.ndarray, weight: np.ndarray, stride: int = 1, padding: int = 0,
                      groups: int = 1) -> np.ndarray:
    """A 1×1 conv as `tensor.conv2d` ran every one before its 1×1 path: the
    im2col patch matrices, then one product per sample and group."""
    n, c_out, c_in_g, _, _, ho, wo = _conv_shapes(x, weight, stride, padding, groups)
    cols = im2col(x, 1, 1, stride, padding).reshape(n, groups, c_in_g, ho * wo)
    wmat = weight.reshape(weight.shape[:-4] + (groups, c_out // groups, c_in_g))
    out = np.matmul(wmat, cols) if n < 2 and wmat.size <= BLOCK_ELEMENTS else stacked_matmul(wmat, cols, n)
    return out.reshape(n, c_out, ho, wo)


def dcd_conv_reference(layer, x: np.ndarray, materialised: bool) -> np.ndarray:
    """The conv part of an eager `DcdConv` forward (pointwise, block_sparse
    or channel_only_kxk) as the layer computed it with one op per step: the
    branch FCs as a matmul, then a bias add; Λ as a sliced copy of the branch
    output, then + 1; Qᵀ transposed afresh from the stored Q; and the
    factored chain Qᵀx → Φ·z → P·z as three grouped 1×1 convs.  On the
    materialised plan, W(x) = Λ ⊙ W0 + P·Φ·Qᵀ as stacked products, then one
    conv with it."""
    n, c, h, w = x.shape
    br = layer.branch
    pooled = x.reshape(n, c, h * w).sum(axis=2) / float(h * w)
    hidden = np.maximum(matmul(pooled, br.w1.value) + br.b1.value, 0.0)
    raw = matmul(hidden, br.w2.value) + br.b2.value
    lam = np.ascontiguousarray(raw[:, :layer.c_out]) + 1.0 if layer.lambda_enabled else None
    phi = np.ascontiguousarray(raw[:, raw.shape[1] - layer.phi_len:])
    g, l, k, s = layer.blocks, layer.dims.l, layer.k, layer.stride
    co, ci = layer.c_out // g, layer.c_in // g
    qt = np.ascontiguousarray(layer.q.value.reshape(g, ci, l).transpose(0, 2, 1))
    w0 = layer.w0.value.reshape(layer.c_out, layer.c_in, k, k)
    conv = conv1x1_reference if k == 1 else conv2d
    if materialised:
        p, phi = layer.p.value.reshape(g, co, l), phi.reshape(n, g, l, l)
        res = np.matmul(np.matmul(p, phi), qt) if co <= ci else np.matmul(p, np.matmul(phi, qt))
        if g > 1:
            res = res.reshape(n, g, co, 1, ci) * np.eye(g).reshape(g, 1, g, 1)
        if layer.variant == "channel_only_kxk":
            res = res.reshape(n, layer.c_out, layer.c_in, 1) * layer.center.reshape(k * k)
        res = res.reshape((n,) + w0.shape)
        if lam is None:
            return conv(x, w0 + res, s, layer.padding)
        kernel = w0 * lam.reshape(n, layer.c_out, 1, 1, 1)
        kernel += res
        return conv(x, kernel, s, layer.padding)
    out = conv(x, w0, s, layer.padding)
    padding = layer.padding
    if layer.variant == "channel_only_kxk":  # the centre tap, a 1×1 conv offset by d
        d = padding - (k - 1) // 2
        if d < 0:
            x = np.ascontiguousarray(x[:, :, -d:h + d, -d:w + d])
        padding = max(d, 0)
    z = conv1x1_reference(x, qt.reshape(g * l, ci, 1, 1), s, padding, g)
    z = conv1x1_reference(z, phi.reshape(n, g * l, l, 1, 1), groups=g)
    res = conv1x1_reference(z, layer.p.value.reshape(layer.c_out, l, 1, 1), groups=g)
    if lam is None:
        return out + res
    out = out * lam.reshape(n, layer.c_out, 1, 1)
    out += res
    return out


# ---------------------------------------------------------------------------
# the DCD layer's fused autodiff ops, as the ops they replace


def composed_relu_linear(a, w, b, split=None):
    """`autodiff.relu_linear` as relu, then linear, then (with `split`) Λ and
    Φ as two narrows of its output, Λ's plus 1."""
    out = ad.linear(ad.relu(a), w, b)
    if split is None:
        return out
    return ad.narrow(out, 1, 0, split, plus=1.0), ad.narrow(out, 1, split, ad.value_of(out).shape[1])


def composed_lowrank_kernel(w0, lam, p, phi, qt, shape, taps=None):
    """`autodiff.lowrank_kernel` as reshapes, two stacked products, a masking
    product, and `affine` (or `add` without Λ)."""
    b, l, ci = ad.value_of(qt).shape
    n, c_out = ad.value_of(phi).shape[0], ad.value_of(p).shape[0]
    co = c_out // b
    mm = ad.stacked_matmul
    p3, phi4 = ad.reshape(p, (b, co, l)), ad.reshape(phi, (n, b, l, l))
    res = mm(mm(p3, phi4), qt) if co <= ci else mm(p3, mm(phi4, qt))
    if b > 1:
        res = ad.mul(ad.reshape(res, (n, b, co, 1, ci)), np.eye(b).reshape(b, 1, b, 1))
    if taps is not None:
        res = ad.mul(ad.reshape(res, (n, c_out, b * ci, 1)), taps)
    w0k, res = ad.reshape(w0, shape), ad.reshape(res, (n,) + shape)
    return ad.add(w0k, res) if lam is None else ad.affine(w0k, ad.reshape(lam, (n, c_out, 1, 1, 1)), res)


def composed_depthwise_kernel(layer, lam, phi, lift):
    """A depthwise `DcdConv._kernel` as the layer composed it before
    `autodiff.lowrank_kernel` took it: P·(Φ·Rᵀ) as two stacked products
    with a transposed Rᵀ at every channel count, then reshapes and `affine`
    (or `add` without Λ)."""
    n, l_k = ad.value_of(phi).shape[0], layer.dims.l_k
    mm = ad.stacked_matmul
    res = mm(lift(layer.p), mm(ad.reshape(phi, (n, l_k, l_k)), ad.transpose_axes(lift(layer.r_mat), (1, 0))))
    w0 = layer._w0_kernel(lift)
    res = ad.reshape(res, (n,) + ad.value_of(w0).shape)
    return ad.add(w0, res) if lam is None else ad.affine(w0, ad.reshape(lam, (n, layer.c_out, 1, 1, 1)), res)


def composed_latent_chain(x, qt, phi, p, stride=1, padding=0):
    """`autodiff.latent_chain` as two narrows for a negative padding, then
    three grouped 1×1 convs with reshaped weights."""
    b, l, ci = ad.value_of(qt).shape
    n, _, h, w = ad.value_of(x).shape
    if padding < 0:
        x = ad.narrow(ad.narrow(x, 2, -padding, h + padding), 3, -padding, w + padding)
    z = ad.conv2d(x, ad.reshape(qt, (b * l, ci, 1, 1)), stride, max(padding, 0), b)
    z = ad.conv2d(z, ad.reshape(phi, (n, b * l, l, 1, 1)), groups=b)
    return ad.conv2d(z, ad.reshape(p, (ad.value_of(p).shape[0], l, 1, 1)), groups=b)
