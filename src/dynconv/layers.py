"""Dynamic-convolution layers.

Every conv layer conditions its kernel W(x) on a pooled view of its input
and convolves in its own ``_conv(x, lift)``; the one ``forward`` they share
(``_ConvLayer``) then applies bias, batch norm and activation.  Two families:

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

One ``DynamicBranch``, FC → ReLU → FC on globally pooled features, gives
both DCD's coefficients and vanilla's attention logits.  In DCD its second
FC is zero-initialized, so W(x) = W0 exactly at initialization and every
DCD layer starts bit-identical to its static counterpart.

``DcdConv._conv`` runs one of two plans, whichever `materialises` picks
from the layer's shape and input size (once per layer and size).  The
factored plan is Λ(x) ⊙ (W0 ∗ x) + P·Φ(x)·(Qᵀx): the static conv its twin
runs, one scale, and a residual of convs through the L-channel latent
space.  For ``pointwise``, ``block_sparse`` and ``channel_only_kxk`` (whose
residual is a 1×1 conv at the centre tap) the residual Qᵀx → Φ·z → P·z is
one op, `autodiff.latent_chain`, three 1×1 convs, each one at stride 1
without padding a bare product on the (N, C, H·W) view of its input
(`tensor.conv2d`).  The materialised plan assembles W(x) = Λ ⊙ W0 +
residual with ``weight_for``'s stacked products, in conv layout (N, C_out,
C_in/groups, k, k), and runs one conv with it; for those three variants
and ``depthwise`` (Rᵀ in Qᵀ's place) the assembly is one op,
`autodiff.lowrank_kernel`.  ``depthwise`` always materialises; ``pointwise``
materialises where that counts fewer MAdds (`plan_madds`), which at 1×1
comes down to H'·W'·(C_in + C_out) > C_in·C_out; the other variants stay
factored.  Either plan gives the other's outputs and gradients to 1e-10
relative.

``pointwise`` and ``block_sparse`` store P (C_out × L) and Q (C_in × L) in
one layout: B stacked row blocks (B = 1 for pointwise), run as grouped convs.
Both plans read Qᵀ in blocks, (B, L, C_in/B), a transposed copy of Q kept
until the next state write (`autodiff.transpose_axes` keeps the transpose of
any parameter value, Rᵀ too).  The branch is two ops: the first FC, matmul
and bias (`autodiff.linear`), and after the hidden layer's check its tail,
ReLU, the second FC and, in DCD, Λ and Φ as one copy each of the FC's
output, Λ's + 1 included (`autodiff.relu_linear`).  A pointwise DCD layer
on the materialised plan thus runs eight ops: the pooling, the two branch
ops, Qᵀ, the kernel, its conv, eval batch norm and the ReLU.

All math goes through ``dynconv.autodiff`` ops, which run eagerly on
plain arrays and record adjoints when handed tape nodes.  No forward takes
a tape: when its input is a tape node, a layer puts its parameters on that
node's tape as leaves; otherwise it runs eagerly on raw values, and so do
``weight_for`` and ``attention`` given a pooled input and no ``lift``.  The
same code path serves inference, analysis, and training.

Each parameter value and batch-norm running buffer is read-only model state
(`dynconv.tensor.lock_state`), written in place only through
`tensor.write_state`: train-mode batch norm's running buffers and the
vanilla branch's second FC at construction here.  What a forward derives
from state alone is kept until the next write: eval batch norm's scale and
shift, Qᵀ, and the window conv's live window of W0, which a DCD layer and
its static twin share (see `dynconv.tensor`).

No op checks its result for NaN or ±inf; each layer checks its values at
fixed points, each before an op that could hide a non-finite value: the
pre-activation (a ReLU turns -inf into 0), the branch hidden layer before
its ReLU, the attention logits before softmax or sigmoid saturate them,
and, in train mode, the batch statistics before they reach the running
buffers.  A value that feeds a later check point is not checked on its
own: a non-finite batch-norm input makes the batch mean non-finite, and
every entry of a kernel feeds its output channel's pre-activation.  An
eval forward of a static layer runs one check, of a DCD layer two, and of
a vanilla one three.  Each parameter leaf a taped forward lifts carries
the layer's name, so `dynconv.autodiff.backward` names the layer of a
non-finite parameter gradient.
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
    return LatentDims(l=default_latent_dim(c // l_k), l_k=l_k)


def validate_latent_dims(
    dims: LatentDims,
    c_in: int,
    c_out: int,
    k: int,
    variant: str,
    blocks: int = 1,
) -> None:
    """Check the structural latent-size rules a layer needs in order to run.

    How far to reduce the latent space (the l² ≤ C budget of the paper's
    defaults) is each model builder's policy, not a rule of the layer.
    """
    c_min = min(c_in, c_out)
    if dims.l < 1 or dims.l_k < 1:
        raise ValueError(f"latent dims must be ≥ 1, got {dims}")
    if variant in ("pointwise", "block_sparse", "channel_only_kxk", "full_kxk") and dims.l > c_min:
        raise ValueError(f"latent channel count {dims.l} exceeds min(C_in, C_out) = {c_min}")
    if variant == "block_sparse":
        if c_in != c_out:
            raise ValueError("block-sparse residual requires C_in == C_out")
        if c_in % blocks:
            raise ValueError(f"block count {blocks} does not divide channel count {c_in}")
    elif variant == "depthwise" and c_in != c_out:
        raise ValueError("depthwise form requires C_in == C_out")
    elif variant == "channel_only_kxk":
        if dims.l_k != 1:
            raise ValueError("channel-only form fixes l_k = 1")
        if k % 2 == 0:
            raise ValueError(f"channel-only form needs odd k (no center element for k={k})")
    elif variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant in ("depthwise", "full_kxk") and dims.l_k > k * k:
        raise ValueError(f"latent kernel elements {dims.l_k} exceed k² = {k * k}")


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


BN_MOMENTUM = 0.9


class BatchNorm2d:
    """Per-channel batch norm with learnable affine and running stats, which
    keep `BN_MOMENTUM` of their value at each train-mode forward.  The
    running stats are read-only state like a `Parameter`'s value, and the
    eval forward's scale and shift are kept until the next state write."""

    def __init__(self, name: str, channels: int):
        self.name = name
        self.channels = channels
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels))
        self.beta = Parameter(f"{name}.beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._eval_affine = (None, None, None)  # (state epoch, scale, shift)

    def __setattr__(self, name, value):
        if name in ("running_mean", "running_var"):
            value = T.lock_state(value)
        object.__setattr__(self, name, value)

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [(f"{self.name}.running_mean", self.running_mean), (f"{self.name}.running_var", self.running_var)]

    def forward(self, x, train: bool, lift):
        if train:
            xv = ad.value_of(x)
            if xv.shape[0] * xv.shape[2] * xv.shape[3] == 0:
                raise ValueError(f"{self.name}: train-mode batch norm has no statistics for an empty batch {xv.shape}")
            out, mean, var = ad.batchnorm_train(x, lift(self.gamma), lift(self.beta))
            for stat in (mean, var):  # non-finite for a non-finite input or an overflow; the buffers must not take it
                T.check_finite(stat, "batch-norm statistics")
            m = BN_MOMENTUM
            T.write_state(self.running_mean, m * self.running_mean + (1.0 - m) * mean)
            T.write_state(self.running_var, m * self.running_var + (1.0 - m) * var)
            return out
        epoch, w, b = self._eval_affine
        if epoch != T.state_epoch():
            inv = 1.0 / np.sqrt(self.running_var + ad.BN_EPS)
            w = (self.gamma.value * inv).reshape(1, self.channels, 1, 1)
            b = (self.beta.value - self.running_mean * self.gamma.value * inv).reshape(1, self.channels, 1, 1)
            w.flags.writeable = b.flags.writeable = False
            self._eval_affine = (T.state_epoch(), w, b)
        return ad.affine(x, w, b)


class DynamicBranch:
    """FC(C→squeeze) → ReLU → FC(squeeze→d_out) on pooled features, second FC
    zero-initialized: DCD's coefficients and vanilla's attention logits.
    Parameter names start with `prefix`."""

    def __init__(self, prefix: str, c_in: int, d_out: int, squeeze: int, rng: np.random.Generator):
        if squeeze < 1:
            raise ValueError(f"branch squeeze width must be ≥ 1, got {squeeze}")
        self.d_out = d_out
        self.squeeze = squeeze
        self.w1 = Parameter(f"{prefix}w1", fan_in_uniform(rng, (c_in, squeeze), c_in))
        self.b1 = Parameter(f"{prefix}b1", np.zeros(squeeze))
        self.w2 = Parameter(f"{prefix}w2", np.zeros((squeeze, d_out)))
        self.b2 = Parameter(f"{prefix}b2", np.zeros(d_out))

    def parameters(self) -> list[Parameter]:
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self, pooled, lift, split: int | None = None):
        """ReLU(pooled·W1 + b1)·W2 + b2, or with `split` its columns ``:split``
        plus 1 and ``split:`` (`autodiff.relu_linear`); the hidden layer is
        checked before the ReLU, which would turn -inf into 0."""
        pre = ad.linear(pooled, lift(self.w1), lift(self.b1))
        T.check_finite(ad.value_of(pre), "branch hidden layer")
        return ad.relu_linear(pre, lift(self.w2), lift(self.b2), split)


def _lifter(x, layer):
    """Map each of the layer's Parameters to a leaf on x's tape that names
    the layer, or to its raw value when x is untaped."""
    if type(x) is not ad.Node:
        return lambda p: p.value
    nodes = {}
    for p in layer.parameters():
        nodes[id(p)] = leaf = x.tape.leaf(p.value, param=p)
        leaf.layer = layer.name
    return lambda p: nodes[id(p)]


class _ConvLayer:
    """What the three conv layers share: the shape and head fields, the bias
    and batch norm, the parameter list, output size, and the one `forward`:
    the subclass's `_conv(x, lift)`, then bias → batch norm → activation.
    A subclass builds its kernel parameters and defines `_own_parameters`
    and `_conv`; bias and batch norm draw nothing from the rng."""

    def __init__(self, name: str, c_in: int, c_out: int, k: int, stride: int, padding: int, groups: int,
                 activation: str | None, bias: bool, with_bn: bool):
        self.name = name
        self.c_in, self.c_out, self.k = c_in, c_out, k
        self.stride, self.padding, self.groups = stride, padding, groups
        self.activation = activation
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out)) if bias else None
        self.bn = BatchNorm2d(f"{name}.bn", c_out) if with_bn else None

    def forward(self, x, train: bool = False):
        lift = _lifter(x, self)
        return self._head(self._conv(x, lift), train, lift)

    def parameters(self) -> list[Parameter]:
        own = [p for p in self._own_parameters() if p is not None]
        return own + (self.bn.parameters() if self.bn is not None else [])

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return self.bn.buffers() if self.bn is not None else []

    def out_size(self, h: int) -> int:
        return T.conv_out_size(h, self.k, self.stride, self.padding)

    def _head(self, out, train: bool, lift):
        """Bias, batch norm and activation; the pre-activation is the layer's
        one finite check in an eval forward, before a ReLU could hide -inf."""
        if self.bias is not None:
            out = ad.add(out, ad.reshape(lift(self.bias), (1, self.c_out, 1, 1)))
        if self.bn is not None:
            out = self.bn.forward(out, train, lift)
        T.check_finite(ad.value_of(out), "pre-activation")
        return ad.relu(out) if self.activation == "relu" else out


# ---------------------------------------------------------------------------
# the decomposed dynamic layer


class DcdConv(_ConvLayer):
    """Convolution with a statically-anchored, input-conditioned kernel;
    its `_conv` runs the factored or the materialised plan (see the module
    docstring).

    Parameters
    ----------
    variant: one of VARIANTS.
    dims: latent sizes; variant-appropriate defaults when omitted.  Only
    their structure is checked (`validate_latent_dims`); the l² ≤ C budget
    is the model builders' policy.
    blocks: diagonal block count for `block_sparse` (1 elsewhere).
    r: branch reduction ratio; squeeze width defaults to ⌊c_in / r⌋.
    squeeze: explicit squeeze width overriding the ratio rule.
    lambda_enabled: when False the channel-wise scale is fixed at 1.
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
        validate_latent_dims(dims, c_in=c_in, c_out=c_out, k=k, variant=variant, blocks=blocks)
        if variant != "block_sparse" and blocks != 1:
            raise ValueError(f"blocks > 1 only applies to block_sparse, got {blocks} for {variant}")

        super().__init__(name, c_in, c_out, k, stride, padding, c_in if variant == "depthwise" else 1,
                         activation, bias, with_bn)
        self.variant, self.dims, self.blocks, self.lambda_enabled = variant, dims, blocks, lambda_enabled

        l, l_k = dims.l, dims.l_k
        kk = k * k
        if variant in ("pointwise", "block_sparse"):
            self.w0 = Parameter(f"{name}.w0", fan_in_uniform(rng, (c_out, c_in), c_in))
        elif variant == "depthwise":
            self.w0 = Parameter(f"{name}.w0", fan_in_uniform(rng, (c_in, kk), kk))
        else:  # k×k tensors: stored in conv layout (C_out, C_in, k, k), drawn in (C_in, C_out, k²) order
            w0 = fan_in_uniform(rng, (c_in, c_out, kk), c_in * kk).transpose(1, 0, 2)
            self.w0 = Parameter(f"{name}.w0", np.ascontiguousarray(w0).reshape(c_out, c_in, k, k))

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
        self.branch = DynamicBranch(f"{name}.branch.", c_in, d_out, squeeze, rng)
        self._plans: dict[tuple[int, int], bool] = {}  # a pointwise layer's `materialises`, by input size

    # -- bookkeeping ---------------------------------------------------

    def _own_parameters(self) -> list:
        return [self.w0, self.bias, self.p, self.q, self.r_mat, *self.branch.parameters()]

    # -- dynamic coefficients -------------------------------------------

    def coefficients(self, pooled, lift):
        """(Λ, Φ-raw) from the branch; Λ is None when disabled (implicit 1)."""
        if not self.lambda_enabled:
            return None, self.branch.forward(pooled, lift)
        return self.branch.forward(pooled, lift, self.c_out)

    # -- per-variant weight generation ----------------------------------

    def weight_for(self, pooled, lift=None):
        """Per-sample conv kernels W(x) = Λ ⊙ W0 + residual, (N, C_out,
        C_in/groups, k, k), from pooled features (N×C_in): the kernel the
        materialised plan convolves with."""
        lift = lift or _lifter(pooled, self)
        return self._kernel(*self.coefficients(pooled, lift), lift)

    def _kernel(self, lam, phi, lift):
        """W(x) from the coefficients, the residual in the association order
        that `_assembly_madds` counts: one `autodiff.lowrank_kernel` for
        the P·Φ·Qᵀ variants and depthwise's P·Φ·Rᵀ, the mode products for
        full k×k.  Every residual product has the sample as a stack axis, so
        batch N gives the stacked batch-1 kernels bit for bit."""
        if self.variant != "full_kxk":
            taps = self.center.reshape(-1) if self.variant == "channel_only_kxk" else None
            shape = (self.c_out, self.c_in // self.groups, self.k, self.k)
            return ad.lowrank_kernel(lift(self.w0), lam, lift(self.p), phi, self._qt(lift), shape, taps)
        n = ad.value_of(phi).shape[0]
        l, l_k, kk = self.dims.l, self.dims.l_k, self.k * self.k
        mm = ad.stacked_matmul
        # Φ ×₁ Q ×₃ R ×₂ P: (n, C_in, l·l_k), (n, C_in·l, k²), (n, C_out, C_in·k²)
        res = mm(lift(self.q), ad.reshape(phi, (n, l, l * l_k)))
        res = mm(ad.reshape(res, (n, self.c_in * l, l_k)), ad.transpose_axes(lift(self.r_mat), (1, 0)))
        res = ad.transpose_axes(ad.reshape(res, (n, self.c_in, l, kk)), (0, 2, 1, 3))
        res = mm(lift(self.p), ad.reshape(res, (n, l, self.c_in * kk)))
        w0 = self._w0_kernel(lift)
        res = ad.reshape(res, (n,) + ad.value_of(w0).shape)
        return ad.add(w0, res) if lam is None else ad.affine(w0, ad.reshape(lam, (n, self.c_out, 1, 1, 1)), res)

    # -- full layer ------------------------------------------------------

    def _conv(self, x, lift):
        """W(x) ∗ x on the plan `materialises` picks for x's size: one conv
        with the per-sample kernel, or the factored chain."""
        n, _, h, w = ad.value_of(x).shape
        lam, phi = self.coefficients(ad.global_avg_pool(x), lift)
        if materialises(self, h, w):
            return ad.conv2d(x, self._kernel(lam, phi, lift), self.stride, self.padding, self.groups)
        out = ad.conv2d(x, self._w0_kernel(lift), stride=self.stride, padding=self.padding)
        res = self._residual(x, phi, lift)
        return ad.add(out, res) if lam is None else ad.affine(out, ad.reshape(lam, (n, self.c_out, 1, 1)), res)

    def _w0_kernel(self, lift):
        """W0 in conv layout (C_out, C_in/groups, k, k): a view of the stored W0."""
        return ad.reshape(lift(self.w0), (self.c_out, self.c_in // self.groups, self.k, self.k))

    def _qt(self, lift):
        """Qᵀ as B blocks (B, L, C_in/B), the layout its products read, and
        for depthwise Rᵀ as one block (1, L_k, k²); a copy of the stored Q
        or R, kept until the next state write."""
        if self.variant == "depthwise":
            return ad.transpose_axes(lift(self.r_mat), (0, 2, 1), (1, self.k * self.k, self.dims.l_k))
        g = self.blocks
        return ad.transpose_axes(lift(self.q), (0, 2, 1), (g, self.c_in // g, self.dims.l))

    def _residual(self, x, phi, lift):
        """Dynamic part of the factored plan's output, P·Φ(x)·(Qᵀx) (every
        variant but depthwise): one `autodiff.latent_chain` of 1×1 convs, at
        the centre tap for ``channel_only_kxk``, offset by d = padding - (k -
        1)/2; for ``full_kxk``, Qᵀ, then a per-sample k×k conv on L channels."""
        if self.variant != "full_kxk":
            d = self.padding - (self.k - 1) // 2
            return ad.latent_chain(x, self._qt(lift), phi, lift(self.p), self.stride, d)
        n = ad.value_of(x).shape[0]
        l, l_k, k = self.dims.l, self.dims.l_k, self.k
        qt = ad.reshape(self._qt(lift), (l, self.c_in, 1, 1))
        z = ad.conv2d(x, qt)
        phi_r = ad.matmul(ad.reshape(phi, (n * l * l, l_k)), ad.transpose_axes(lift(self.r_mat), (1, 0)))
        phi_r = ad.transpose_axes(ad.reshape(phi_r, (n, l, l, k, k)), (0, 2, 1, 3, 4))
        z = ad.conv2d(z, phi_r, self.stride, self.padding)
        return ad.conv2d(z, ad.reshape(lift(self.p), (self.c_out, l, 1, 1)))

    def static_equivalent(self) -> "StaticConv":
        """Static layer sharing this layer's W0 / bias / batch-norm state."""
        static = StaticConv.__new__(StaticConv)
        _ConvLayer.__init__(static, f"{self.name}.static", self.c_in, self.c_out, self.k, self.stride,
                            self.padding, self.groups, self.activation, bias=False, with_bn=False)
        static.weight = Parameter(f"{static.name}.weight", self.static_kernel())
        static.bias, static.bn = self.bias, self.bn
        return static

    def static_kernel(self) -> np.ndarray:
        """W0 in conv layout (C_out, C_in/groups, k, k)."""
        return self._w0_kernel(lambda p: p.value)


# ---------------------------------------------------------------------------
# execution plan


def _assembly_madds(layer: DcdConv) -> int:
    """MAdds per sample that assemble the low-rank residual of W(x): the
    cheaper association order of P·Φ·Qᵀ per diagonal block (B = 1 outside
    block_sparse), and of depthwise's P·Φ·Rᵀ, Rᵀ in Qᵀ's place; the
    mode-product chain ×₁Q, ×₂P, ×₃R for full k×k (which runs ×₁Q, ×₃R,
    ×₂P when it materialises)."""
    l, l_k, g = layer.dims.l, layer.dims.l_k, layer.blocks
    kk = layer.k * layer.k
    if layer.variant == "full_kxk":
        return layer.c_in * l * l * l_k + layer.c_out * layer.c_in * l * l_k + layer.c_in * layer.c_out * l_k * kk
    if layer.variant == "depthwise":
        l, ci, co = l_k, kk, layer.c_out
    else:
        ci, co = layer.c_in // g, layer.c_out // g
    return g * (min(l * l * ci, co * l * l) + co * l * ci)


def plan_madds(layer: DcdConv, h: int, w: int) -> tuple[int | None, int]:
    """(factored, materialised): MAdds per sample that each plan spends on an
    h×w input beyond the branch and the one conv both make, with W0 or W(x).

    Factored: Qᵀx, Φ and P as convs at the output size (full k×k takes Qᵀx
    at the input size, and Φ's k×k kernels from one Φ·Rᵀ per sample, whose
    conv runs the taps `tensor.conv_taps` counts), then Λ on the output.
    Materialised: `_assembly_madds`, then Λ on the kernel.  Depthwise has
    no factored chain (None).
    """
    hw = layer.out_size(h) * T.conv_out_size(w, layer.k, layer.stride, layer.padding)
    l, l_k, kk = layer.dims.l, layer.dims.l_k, layer.k * layer.k
    lam = layer.lambda_enabled
    materialised = _assembly_madds(layer) + (layer.c_out * (layer.c_in // layer.groups) * kk if lam else 0)
    if layer.variant == "depthwise":
        return None, materialised
    if layer.variant == "full_kxk":
        phi_taps = T.conv_taps(h, w, l, l, 1, layer.k, layer.stride, layer.padding)  # the k×k Φ conv's
        chain = h * w * layer.c_in * l + l * l * l_k * kk + hw * (l * l * phi_taps + l * layer.c_out)
    else:
        chain = hw * (layer.c_in * l + layer.blocks * l * l + l * layer.c_out)
    return chain + (hw * layer.c_out if lam else 0), materialised


def materialises(layer: DcdConv, h: int, w: int) -> bool:
    """Whether `DcdConv._conv` convolves an h×w input with W(x) itself:
    always for depthwise, for pointwise where `plan_madds` counts fewer
    MAdds that way, and never for the other variants.  Decided once per
    layer and input size."""
    if layer.variant != "pointwise":
        return layer.variant == "depthwise"
    plan = layer._plans.get((h, w))
    if plan is None:
        factored, materialised = plan_madds(layer, h, w)
        plan = layer._plans[(h, w)] = materialised < factored
    return plan


class StaticConv(_ConvLayer):
    """`_conv` is one plain conv with a static kernel; same head options as DcdConv."""

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
        super().__init__(name, c_in, c_out, k, stride, padding, groups, activation, bias, with_bn)
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = (c_in // groups) * k * k
        self.weight = Parameter(f"{name}.weight", fan_in_uniform(rng, (c_out, c_in // groups, k, k), fan_in))

    def _own_parameters(self) -> list:
        return [self.weight, self.bias]

    def _conv(self, x, lift):
        return ad.conv2d(x, lift(self.weight), stride=self.stride, padding=self.padding, groups=self.groups)


class VanillaDynConv(_ConvLayer):
    """K static 1×1 kernels mixed per sample by attention scores; `_conv`
    convolves with `weight_for`'s mixed kernel.

    The attention branch is a `DynamicBranch` (C → C/reduction → K, its
    second FC drawn at random) followed by softmax (with temperature) or
    sigmoid gates.
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
        with_bn: bool = True,
        activation: str | None = "relu",
        rng: np.random.Generator | None = None,
    ):
        if mode not in ("softmax", "sigmoid"):
            raise ValueError(f"unknown attention mode {mode!r}")
        if tau <= 0:
            raise ValueError("softmax temperature must be positive")
        super().__init__(name, c_in, c_out, 1, 1, 0, 1, activation, bias=False, with_bn=with_bn)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.k_kernels, self.mode, self.tau = kernels, mode, tau
        self.kernels = Parameter(f"{name}.kernels", fan_in_uniform(rng, (kernels, c_out, c_in), c_in))
        hidden = max(c_in // reduction, 1)
        self.branch = DynamicBranch(f"{name}.att_", c_in, kernels, hidden, rng)
        T.write_state(self.branch.w2.value, fan_in_uniform(rng, (hidden, kernels), hidden))  # drawn after W1

    def _own_parameters(self) -> list:
        return [self.kernels, *self.branch.parameters()]

    def attention(self, pooled, lift=None):
        """Attention scores (N, K): a softmax of the branch logits over τ, rows
        summing to 1, or independent sigmoid gates, which ignore τ."""
        lift = lift or _lifter(pooled, self)
        logits = self.branch.forward(pooled, lift)
        T.check_finite(ad.value_of(logits), "attention logits")  # softmax and sigmoid saturate ±inf
        if self.mode == "sigmoid":
            return ad.sigmoid(logits)
        return ad.softmax_rows(ad.mul(logits, 1.0 / float(self.tau)) if self.tau != 1.0 else logits)

    def weight_for(self, pooled, lift=None):
        """Per-sample mixed conv kernels, (N, C_out, C_in, 1, 1)."""
        lift = lift or _lifter(pooled, self)
        att = self.attention(pooled, lift)
        n = ad.value_of(att).shape[0]
        flat = ad.reshape(lift(self.kernels), (self.k_kernels, self.c_out * self.c_in))
        return ad.reshape(ad.matmul(att, flat), (n, self.c_out, self.c_in, 1, 1))

    def _conv(self, x, lift):
        return ad.conv2d(x, self.weight_for(ad.global_avg_pool(x), lift))
