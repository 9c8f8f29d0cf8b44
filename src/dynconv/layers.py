"""Dynamic-convolution layers.

Every layer here conditions its kernel W(x) on a pooled view of its input,
convolves, then applies batch norm and ReLU.  Two families are provided:

* ``VanillaDynConv`` — K static kernels mixed by an attention branch
  (softmax with temperature, or sigmoid gates).

* ``DcdConv`` — a static kernel W0 modulated by a channel-wise scale
  Λ(x) plus a low-rank dynamic residual built from latent-space
  projections.  Variants:

  - ``pointwise``:        W(x) = diag(Λ)·W0 + P·Φ(x)·Qᵀ        (1×1 kernels)
  - ``block_sparse``:     residual restricted to B diagonal channel blocks
  - ``depthwise``:        per-channel k×k kernels, W(x) = diag(Λ)·W0 + P·Φ(x)·Rᵀ
  - ``full_kxk``:         kernel tensor W(x) = W0 ×₂ Λ + Φ(x) ×₁ Q ×₂ P ×₃ R
  - ``channel_only_kxk``: k×k kernel whose dynamic residual occupies only
                          the center kernel element (a 1×1 residual inside
                          a k×k static kernel)

The dynamic branch is pool → FC → ReLU → FC with the second FC
zero-initialized, so W(x) = W0 exactly at initialization and every DCD
layer starts bit-identical to its static counterpart.

``DcdConv.forward`` never builds W(x).  It runs the decomposition as
Λ(x) ⊙ (W0 ∗ x) + P·Φ(x)·(Qᵀx): the static conv its twin runs, one scale,
and a residual of convs through the L-channel latent space (for
``depthwise``, one C×k² kernel per sample).  ``weight_for`` materialises
W(x) in conv layout (N, C_out, C_in/groups, k, k), the reference the
factored path is tested against, as Λ ⊙ W0 plus the residual's matrix
products stacked over the samples.

``pointwise`` and ``block_sparse`` store P (C_out × L) and Q (C_in × L) in
one layout: B stacked row blocks (B = 1 for pointwise), run as grouped convs.

All math goes through ``dynconv.autodiff`` ops, which run eagerly on
plain arrays and record adjoints when handed tape nodes.  No forward takes
a tape: when its input is a tape node, a layer puts its parameters on that
node's tape as leaves; otherwise it runs eagerly on raw values.  The same
code path serves inference, analysis, and training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import Parameter

VARIANTS = ("pointwise", "block_sparse", "depthwise", "full_kxk", "channel_only_kxk")


# ---------------------------------------------------------------------------
# latent-dimension rules


def default_latent_dim(c: int) -> int:
    """Largest value in the halving chain c, c//2, c//4, ... that is ≤ √c."""
    if c < 1:
        raise ValueError(f"channel count must be ≥ 1, got {c}")
    l = c
    while l > math.sqrt(c):
        l //= 2
    return max(l, 1)


def latent_dim_pow2(c: int) -> int:
    """⌊c / 2^⌊log₂√c⌋⌋ — power-of-two reduction variant of the latent rule.

    Agrees with `default_latent_dim` at perfect squares (64 → 8) but stays
    coarser in between (96 → 12, 512 → 32); used by the resnet builder
    policy in `dynconv.models`.
    """
    if c < 1:
        raise ValueError(f"channel count must be ≥ 1, got {c}")
    if c == 1:
        return 1
    shift = int(math.floor(math.log2(math.sqrt(c))))
    return max(c >> shift, 1)


@dataclass(frozen=True)
class LatentDims:
    """Latent sizes: `l` mixes channels, `l_k` mixes kernel elements."""

    l: int = 1
    l_k: int = 1


def default_latent_dims_kxk(c: int, k: int) -> LatentDims:
    """Joint k×k defaults: l_k = ⌊k²/2⌋, l from the halving rule on c/l_k."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"joint k×k form needs odd k ≥ 3, got {k} (use the pointwise form for k=1)")
    l_k = (k * k) // 2
    if c < l_k:
        raise ValueError(f"channel count {c} too small for k={k} (needs ≥ {l_k})")
    dims = LatentDims(l=default_latent_dim(c // l_k), l_k=l_k)
    validate_latent_dims(dims, c_in=c, c_out=c, k=k, variant="full_kxk")
    return dims


def validate_latent_dims(
    dims: LatentDims,
    c_in: int,
    c_out: int,
    k: int,
    variant: str,
    blocks: int = 1,
    enforce_budget: bool = True,
) -> None:
    """Check structural latent-size constraints for one layer.

    `enforce_budget=True` additionally applies the squared-latent budget
    rules (l² ≤ C family); model builders may relax the budget rule for
    documented policies while structural rules always hold.
    """
    c_min = min(c_in, c_out)
    c_max = max(c_in, c_out)
    if dims.l < 1 or dims.l_k < 1:
        raise ValueError(f"latent dims must be ≥ 1, got {dims}")
    if variant in ("pointwise", "block_sparse", "channel_only_kxk", "full_kxk") and dims.l > c_min:
        raise ValueError(f"latent channel count {dims.l} exceeds min(C_in, C_out) = {c_min}")
    if variant == "block_sparse":
        if c_in != c_out:
            raise ValueError("block-sparse residual requires C_in == C_out")
        if c_in % blocks:
            raise ValueError(f"block count {blocks} does not divide channel count {c_in}")
        if enforce_budget and blocks * dims.l * dims.l > c_in:
            raise ValueError(f"block latent budget B·l² = {blocks * dims.l ** 2} exceeds C = {c_in}")
    elif variant == "pointwise":
        if enforce_budget and dims.l * dims.l > c_max:
            raise ValueError(f"latent budget l² = {dims.l ** 2} exceeds C = {c_max}")
    elif variant == "depthwise":
        if c_in != c_out:
            raise ValueError("depthwise form requires C_in == C_out")
        if dims.l_k > k * k:
            raise ValueError(f"latent kernel elements {dims.l_k} exceed k² = {k * k}")
    elif variant == "full_kxk":
        if dims.l_k > k * k:
            raise ValueError(f"latent kernel elements {dims.l_k} exceed k² = {k * k}")
        if enforce_budget and dims.l_k >= k * k:
            raise ValueError(f"joint form requires l_k < k², got l_k={dims.l_k}, k²={k * k}")
        if enforce_budget and dims.l * dims.l * dims.l_k > c_max:
            raise ValueError(f"joint latent budget l²·l_k = {dims.l ** 2 * dims.l_k} exceeds C = {c_max}")
    elif variant == "channel_only_kxk":
        if dims.l_k != 1:
            raise ValueError("channel-only form fixes l_k = 1")
        if k % 2 == 0:
            raise ValueError(f"channel-only form needs odd k (no center element for k={k})")
        if enforce_budget and dims.l * dims.l > c_max:
            raise ValueError(f"latent budget l² = {dims.l ** 2} exceeds C = {c_max}")
    elif variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


def center_one_hot(k: int) -> np.ndarray:
    """(k², 1) selector of the center kernel element (odd k)."""
    if k % 2 == 0:
        raise ValueError(f"no center element for even k={k}")
    r = np.zeros((k * k, 1))
    r[(k * k) // 2, 0] = 1.0
    return r


# ---------------------------------------------------------------------------
# initialization helpers


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# building blocks


class BatchNorm2d:
    """Per-channel batch norm with learnable affine and running stats."""

    def __init__(self, name: str, channels: int, eps: float = T.BN_EPS, momentum: float = T.BN_MOMENTUM):
        self.name = name
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{self.name}.running_mean", self.running_mean), (f"{self.name}.running_var", self.running_var)]

    def forward(self, x, train: bool, lift):
        if train:
            shape = ad.value_of(x).shape
            if shape[0] * shape[2] * shape[3] == 0:
                raise ValueError(f"{self.name}: train-mode batch norm has no statistics for an empty batch {shape}")
            out, mean, var = ad.batchnorm_train(x, lift(self.gamma), lift(self.beta), eps=self.eps)
            m = self.momentum
            self.running_mean[...] = m * self.running_mean + (1.0 - m) * mean
            self.running_var[...] = m * self.running_var + (1.0 - m) * var
            return out
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        w = (self.gamma.value * inv).reshape(1, self.channels, 1, 1)
        b = (self.beta.value - self.running_mean * self.gamma.value * inv).reshape(1, self.channels, 1, 1)
        return ad.affine(x, w, b)


class DynamicBranch:
    """pool → FC(C→squeeze) → ReLU → FC(squeeze→d_out), second FC zero-initialized."""

    def __init__(self, name: str, c_in: int, d_out: int, squeeze: int, rng: np.random.Generator):
        if squeeze < 1:
            raise ValueError(f"branch squeeze width must be ≥ 1, got {squeeze}")
        self.name = name
        self.c_in = c_in
        self.d_out = d_out
        self.squeeze = squeeze
        self.w1 = Parameter(f"{name}.w1", fan_in_uniform(rng, (c_in, squeeze), c_in))
        self.b1 = Parameter(f"{name}.b1", np.zeros(squeeze))
        self.w2 = Parameter(f"{name}.w2", np.zeros((squeeze, d_out)))
        self.b2 = Parameter(f"{name}.b2", np.zeros(d_out))

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, pooled, lift):
        hidden = ad.relu(ad.add(ad.matmul(pooled, lift(self.w1)), lift(self.b1)))
        return ad.add(ad.matmul(hidden, lift(self.w2)), lift(self.b2))


def _lifter(x, layer):
    """Map each of the layer's Parameters to a leaf on x's tape, or to its raw value when x is untaped."""
    if not isinstance(x, ad.Node):
        return lambda p: p.value
    nodes = {id(p): x.tape.leaf(p.value, param=p) for p in layer.parameters()}
    return lambda p: nodes[id(p)]


class _ConvLayer:
    """What the three conv layers share: parameters, batch-norm buffers,
    output size, and the bias → batch norm → activation head."""

    def parameters(self) -> list[Parameter]:
        own = [p for p in self._own_parameters() if p is not None]
        return own + (self.bn.parameters() if self.bn is not None else [])

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return self.bn.buffers() if self.bn is not None else []

    def out_size(self, h: int) -> int:
        return T.conv_out_size(h, self.k, self.stride, self.padding)

    def _head(self, out, train: bool, lift):
        if self.bias is not None:
            out = ad.add(out, ad.reshape(lift(self.bias), (1, self.c_out, 1, 1)))
        if self.bn is not None:
            out = self.bn.forward(out, train, lift)
        return ad.relu(out) if self.activation == "relu" else out


# ---------------------------------------------------------------------------
# the decomposed dynamic layer


class DcdConv(_ConvLayer):
    """Convolution with a statically-anchored, input-conditioned kernel.

    Parameters
    ----------
    variant: one of VARIANTS.
    dims: latent sizes; variant-appropriate defaults when omitted.
    blocks: diagonal block count for `block_sparse` (1 elsewhere).
    r: branch reduction ratio; squeeze width defaults to ⌊c_in / r⌋.
    squeeze: explicit squeeze width overriding the ratio rule.
    lambda_enabled: when False the channel-wise scale is fixed at 1.
    enforce_budget: apply the squared-latent budget rules to `dims`.
    bias / with_bn / activation: output head configuration (a classifier
    head uses bias=True, with_bn=False, activation=None).
    """

    def __init__(
        self,
        name: str,
        c_in: int,
        c_out: int,
        k: int = 1,
        variant: str = "pointwise",
        dims: LatentDims | None = None,
        blocks: int = 1,
        r: float = 16.0,
        squeeze: int | None = None,
        lambda_enabled: bool = True,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        with_bn: bool = True,
        activation: str | None = "relu",
        rng: np.random.Generator | None = None,
        enforce_budget: bool = True,
    ):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant == "pointwise" and k != 1:
            raise ValueError("pointwise variant requires k=1")
        if variant == "block_sparse" and k != 1:
            raise ValueError("block-sparse variant requires k=1")
        if variant in ("depthwise", "full_kxk", "channel_only_kxk") and k < 3:
            raise ValueError(f"{variant} requires k ≥ 3")
        rng = rng if rng is not None else np.random.default_rng(0)

        if dims is None:
            if variant in ("pointwise", "channel_only_kxk"):
                dims = LatentDims(l=default_latent_dim(min(c_in, c_out)), l_k=1)
            elif variant == "block_sparse":
                dims = LatentDims(l=default_latent_dim(c_in // blocks), l_k=1)
            elif variant == "depthwise":
                dims = LatentDims(l=1, l_k=(k * k) // 2)
            else:  # full_kxk
                dims = default_latent_dims_kxk(min(c_in, c_out), k)
        validate_latent_dims(dims, c_in=c_in, c_out=c_out, k=k, variant=variant,
                             blocks=blocks, enforce_budget=enforce_budget)
        if variant != "block_sparse" and blocks != 1:
            raise ValueError(f"blocks > 1 only applies to block_sparse, got {blocks} for {variant}")

        self.name = name
        self.c_in = c_in
        self.c_out = c_out
        self.k = k
        self.variant = variant
        self.dims = dims
        self.blocks = blocks
        self.stride = stride
        self.padding = padding
        self.lambda_enabled = lambda_enabled
        self.activation = activation
        self.groups = c_in if variant == "depthwise" else 1

        l, l_k = dims.l, dims.l_k
        kk = k * k
        if variant in ("pointwise", "block_sparse"):
            self.w0 = Parameter(f"{name}.w0", fan_in_uniform(rng, (c_out, c_in), c_in))
        elif variant == "depthwise":
            self.w0 = Parameter(f"{name}.w0", fan_in_uniform(rng, (c_in, kk), kk))
        else:  # k×k tensors: stored in conv layout (C_out, C_in, k, k), drawn in (C_in, C_out, k²) order
            w0 = fan_in_uniform(rng, (c_in, c_out, kk), c_in * kk).transpose(1, 0, 2)
            self.w0 = Parameter(f"{name}.w0", np.ascontiguousarray(w0).reshape(c_out, c_in, k, k))
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out)) if bias else None

        self.q = self.r_mat = None
        if variant == "depthwise":
            self.p = Parameter(f"{name}.p", fan_in_uniform(rng, (c_in, l_k), l_k))
            self.r_mat = Parameter(f"{name}.r", fan_in_uniform(rng, (kk, l_k), l_k))
            phi_len = l_k * l_k
        else:  # P, Q as B stacked row blocks (B = 1 outside block_sparse), drawn p0, q0, p1, q1, ...
            ps, qs = [], []
            for _ in range(blocks):
                ps.append(fan_in_uniform(rng, (c_out // blocks, l), l))
                qs.append(fan_in_uniform(rng, (c_in // blocks, l), c_in // blocks))
            self.p = Parameter(f"{name}.p", np.concatenate(ps))
            self.q = Parameter(f"{name}.q", np.concatenate(qs))
            phi_len = blocks * l * l
        if variant == "full_kxk":
            self.r_mat = Parameter(f"{name}.r", fan_in_uniform(rng, (kk, l_k), l_k))
            phi_len = l * l * l_k
        elif variant == "channel_only_kxk":  # fixed center selector, not learnable
            self.center = center_one_hot(k)

        self.phi_len = phi_len
        d_out = (c_out if lambda_enabled else 0) + phi_len
        if squeeze is None:
            squeeze = max(int(c_in / r), 1)
        self.squeeze = squeeze
        self.branch = DynamicBranch(f"{name}.branch", c_in, d_out, squeeze, rng)
        self.bn = BatchNorm2d(f"{name}.bn", c_out) if with_bn else None
        # optional callback(layer, pooled, lam, phi) fed plain arrays on every
        # forward pass; used by coefficient-statistics analyses
        self.observer = None

    # -- bookkeeping ---------------------------------------------------

    def _own_parameters(self) -> list:
        return [self.w0, self.bias, self.p, self.q, self.r_mat, *self.branch.parameters()]

    # -- dynamic coefficients -------------------------------------------

    def coefficients(self, pooled, lift):
        """(Λ, Φ-raw) from the branch; Λ is None when disabled (implicit 1)."""
        raw = self.branch.forward(pooled, lift)
        if self.lambda_enabled:
            lam = ad.add(ad.narrow(raw, 1, 0, self.c_out), 1.0)
            phi = ad.narrow(raw, 1, self.c_out, self.c_out + self.phi_len)
        else:
            lam = None
            phi = raw
        return lam, phi

    # -- per-variant weight generation ----------------------------------

    def weight_for(self, pooled, lift=None):
        """Materialised reference: per-sample conv kernels W(x) = Λ ⊙ W0 + residual,
        (N, C_out, C_in/groups, k, k), from pooled features (N×C_in); `forward`
        never calls this.  Every residual product has the sample as a stack
        axis, so batch N gives the stacked batch-1 kernels bit for bit."""
        lift = lift or (lambda p: p.value)
        n = ad.value_of(pooled).shape[0]
        lam, phi = self.coefficients(pooled, lift)
        l, l_k, kk, g = self.dims.l, self.dims.l_k, self.k * self.k, self.blocks
        mm = ad.stacked_matmul

        def t(p):
            return ad.transpose_axes(lift(p), (1, 0))

        if self.variant == "depthwise":  # P·Φ·Rᵀ
            res = mm(mm(lift(self.p), ad.reshape(phi, (n, l_k, l_k))), t(self.r_mat))
        elif self.variant == "full_kxk":  # Φ ×₁ Q ×₃ R ×₂ P: (n, C_in, l·l_k), (n, C_in·l, k²), (n, C_out, C_in·k²)
            res = mm(lift(self.q), ad.reshape(phi, (n, l, l * l_k)))
            res = mm(ad.reshape(res, (n, self.c_in * l, l_k)), t(self.r_mat))
            res = ad.transpose_axes(ad.reshape(res, (n, self.c_in, l, kk)), (0, 2, 1, 3))
            res = mm(lift(self.p), ad.reshape(res, (n, l, self.c_in * kk)))
        else:  # P_b·Φ_b·Q_bᵀ per diagonal block (B = 1 outside block_sparse)
            co, ci = self.c_out // g, self.c_in // g
            qt = ad.transpose_axes(ad.reshape(lift(self.q), (g, ci, l)), (0, 2, 1))
            res = mm(mm(ad.reshape(lift(self.p), (g, co, l)), ad.reshape(phi, (n, g, l, l))), qt)
            if g > 1:  # (n, B, C_out/B, C_in/B) onto the block diagonal of (n, C_out, C_in)
                res = ad.mul(ad.reshape(res, (n, g, co, 1, ci)), np.eye(g).reshape(g, 1, g, 1))
            if self.variant == "channel_only_kxk":  # at the centre kernel element only
                res = ad.mul(ad.reshape(res, (n, self.c_out, self.c_in, 1)), self.center.reshape(kk))
        w0 = self._w0_kernel(lift)
        res = ad.reshape(res, (n,) + ad.value_of(w0).shape)
        return ad.add(w0, res) if lam is None else ad.affine(w0, ad.reshape(lam, (n, self.c_out, 1, 1, 1)), res)

    # -- full layer ------------------------------------------------------

    def forward(self, x, train: bool = False):
        lift = _lifter(x, self)
        n = ad.value_of(x).shape[0]
        pooled = ad.global_avg_pool(x)
        lam, phi = self.coefficients(pooled, lift)
        if self.observer is not None:
            self.observer(self, ad.value_of(pooled),
                          None if lam is None else ad.value_of(lam), ad.value_of(phi))
        out = ad.conv2d(x, self._w0_kernel(lift), stride=self.stride, padding=self.padding, groups=self.groups)
        res = self._residual(x, phi, lift)
        out = ad.add(out, res) if lam is None else ad.affine(out, ad.reshape(lam, (n, self.c_out, 1, 1)), res)
        return self._head(out, train, lift)

    def _w0_kernel(self, lift):
        """W0 in conv layout (C_out, C_in/groups, k, k): a view of the stored W0."""
        return ad.reshape(lift(self.w0), (self.c_out, self.c_in // self.groups, self.k, self.k))

    def _residual(self, x, phi, lift):
        """Dynamic part of the output, P·Φ(x)·(Qᵀx), as a chain of small convs."""
        n = ad.value_of(x).shape[0]
        l, l_k, k, s = self.dims.l, self.dims.l_k, self.k, self.stride

        def t(p):
            return ad.transpose_axes(lift(p), (1, 0))

        if self.variant == "depthwise":  # per-sample kernels P·Φ_i·Rᵀ, built one stacked row at a time
            m = ad.reshape(ad.matmul(ad.reshape(phi, (n * l_k, l_k)), t(self.r_mat)), (n, l_k, k * k))
            m = ad.reshape(ad.transpose_axes(m, (0, 2, 1)), (n * k * k, l_k))
            res = ad.transpose_axes(ad.reshape(ad.matmul(m, t(self.p)), (n, k * k, self.c_in)), (0, 2, 1))
            return ad.conv2d(x, ad.reshape(res, (n, self.c_in, 1, k, k)), s, self.padding, self.c_in)
        g, ci = self.blocks, self.c_in // self.blocks  # the B diagonal blocks run as grouped convs
        qt = ad.reshape(ad.transpose_axes(ad.reshape(lift(self.q), (g, ci, l)), (0, 2, 1)), (g * l, ci, 1, 1))
        if self.variant == "full_kxk":  # Qᵀ, then the per-sample k×k kernel Φ_i ×₃ R on L channels
            z = ad.conv2d(x, qt)
            phi_r = ad.reshape(ad.matmul(ad.reshape(phi, (n * l * l, l_k)), t(self.r_mat)), (n, l, l, k, k))
            z = ad.conv2d(z, ad.transpose_axes(phi_r, (0, 2, 1, 3, 4)), s, self.padding)
        else:
            padding = self.padding
            if self.variant == "channel_only_kxk":  # the centre tap is a 1×1 conv offset by d
                d = self.padding - (k - 1) // 2
                if d < 0:
                    h, w = ad.value_of(x).shape[2:]
                    x = ad.narrow(ad.narrow(x, 2, -d, h + d), 3, -d, w + d)
                padding = max(d, 0)
            z = ad.conv2d(x, qt, s, padding, g)
            z = ad.conv2d(z, ad.reshape(phi, (n, g * l, l, 1, 1)), groups=g)
        return ad.conv2d(z, ad.reshape(lift(self.p), (self.c_out, l, 1, 1)), groups=g)

    def static_equivalent(self) -> "StaticConv":
        """Static layer sharing this layer's W0 / bias / batch-norm state."""
        static = StaticConv.__new__(StaticConv)
        static.name = f"{self.name}.static"
        static.c_in, static.c_out, static.k = self.c_in, self.c_out, self.k
        static.stride, static.padding, static.groups = self.stride, self.padding, self.groups
        static.activation = self.activation
        static.weight = Parameter(f"{static.name}.weight", self.static_kernel())
        static.bias = self.bias
        static.bn = self.bn
        return static

    def static_kernel(self) -> np.ndarray:
        """W0 in conv layout (C_out, C_in/groups, k, k)."""
        return self._w0_kernel(lambda p: p.value)


class StaticConv(_ConvLayer):
    """Plain conv → (bias) → batch norm → activation, same head options as DcdConv."""

    def __init__(
        self,
        name: str,
        c_in: int,
        c_out: int,
        k: int = 1,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = False,
        with_bn: bool = True,
        activation: str | None = "relu",
        rng: np.random.Generator | None = None,
    ):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.padding, self.groups = stride, padding, groups
        self.activation = activation
        fan_in = (c_in // groups) * k * k
        self.weight = Parameter(f"{name}.weight", fan_in_uniform(rng, (c_out, c_in // groups, k, k), fan_in))
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out)) if bias else None
        self.bn = BatchNorm2d(f"{name}.bn", c_out) if with_bn else None

    def _own_parameters(self) -> list:
        return [self.weight, self.bias]

    def forward(self, x, train: bool = False):
        lift = _lifter(x, self)
        out = ad.conv2d(x, lift(self.weight), stride=self.stride, padding=self.padding, groups=self.groups)
        return self._head(out, train, lift)


class VanillaDynConv(_ConvLayer):
    """K static 1×1 kernels mixed per sample by attention scores.

    The attention branch is pool → FC(C→C/reduction) → ReLU → FC(→K),
    followed by softmax (with temperature) or sigmoid gates.
    """

    def __init__(
        self,
        name: str,
        c_in: int,
        c_out: int,
        kernels: int = 4,
        mode: str = "softmax",
        tau: float = 1.0,
        reduction: int = 4,
        stride: int = 1,
        with_bn: bool = True,
        activation: str | None = "relu",
        rng: np.random.Generator | None = None,
    ):
        if mode not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown attention mode {mode!r}")
        if tau <= 0:
            raise ValueError("softmax temperature must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.name = name
        self.c_in, self.c_out = c_in, c_out
        self.k_kernels = kernels
        self.mode, self.tau = mode, tau
        self.k, self.stride, self.padding, self.groups = 1, stride, 0, 1
        self.activation = activation
        self.bias = None
        self.kernels = Parameter(f"{name}.kernels", fan_in_uniform(rng, (kernels, c_out, c_in), c_in))
        hidden = max(c_in // reduction, 1)
        self.w1 = Parameter(f"{name}.att_w1", fan_in_uniform(rng, (c_in, hidden), c_in))
        self.b1 = Parameter(f"{name}.att_b1", np.zeros(hidden))
        self.w2 = Parameter(f"{name}.att_w2", fan_in_uniform(rng, (hidden, kernels), hidden))
        self.b2 = Parameter(f"{name}.att_b2", np.zeros(kernels))
        self.bn = BatchNorm2d(f"{name}.bn", c_out) if with_bn else None

    def _own_parameters(self) -> list:
        return [self.kernels, self.w1, self.b1, self.w2, self.b2]

    def attention(self, pooled, lift=None):
        lift = lift or (lambda p: p.value)
        hidden = ad.relu(ad.add(ad.matmul(pooled, lift(self.w1)), lift(self.b1)))
        logits = ad.add(ad.matmul(hidden, lift(self.w2)), lift(self.b2))
        return ad.attention_activation(logits, self.mode, self.tau)

    def weight_for(self, pooled, lift=None):
        """Per-sample mixed conv kernels, (N, C_out, C_in, 1, 1)."""
        lift = lift or (lambda p: p.value)
        att = self.attention(pooled, lift)
        n = ad.value_of(att).shape[0]
        flat = ad.reshape(lift(self.kernels), (self.k_kernels, self.c_out * self.c_in))
        mixed = ad.matmul(att, flat)
        return ad.reshape(mixed, (n, self.c_out, self.c_in, 1, 1))

    def forward(self, x, train: bool = False):
        lift = _lifter(x, self)
        weights = self.weight_for(ad.global_avg_pool(x), lift)
        out = ad.conv2d(x, weights, stride=self.stride)
        return self._head(out, train, lift)
