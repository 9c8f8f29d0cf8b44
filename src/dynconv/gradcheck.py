"""Finite-difference gradient checks for every dynamic-convolution mechanism.

Each named variant builds one small layer (8 channels, 5×5 inputs, batch 2),
randomizes the dynamic branch's output stage (zero-initialized by default,
which would make the dynamic path vanish from the gradients), and checks
analytic gradients of a fixed linear functional of the output against
central differences — for every learnable tensor and for the input itself.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .layers import DcdConv, VanillaDynConv

VARIANTS = (
    "vanilla_softmax",
    "vanilla_sigmoid",
    "dcd_pointwise",
    "dcd_block_sparse",
    "dcd_depthwise",
    "dcd_full_kxk",
    "dcd_channel_only_kxk",
)

_C, _H, _N = 8, 5, 2


def _build(variant: str, rng: np.random.Generator):
    common = dict(with_bn=False, activation=None, rng=rng)
    if variant == "vanilla_softmax":
        return VanillaDynConv("v", _C, _C, kernels=3, mode="softmax", tau=1.0, **common)
    if variant == "vanilla_sigmoid":
        return VanillaDynConv("v", _C, _C, kernels=3, mode="sigmoid", **common)
    if variant == "dcd_pointwise":
        return DcdConv("d", _C, _C, variant="pointwise", bias=True, **common)
    if variant == "dcd_block_sparse":
        return DcdConv("d", _C, _C, variant="block_sparse", blocks=2, **common)
    if variant == "dcd_depthwise":
        return DcdConv("d", _C, _C, k=3, variant="depthwise", padding=1, **common)
    if variant == "dcd_full_kxk":
        return DcdConv("d", _C, _C, k=3, variant="full_kxk", padding=1, **common)
    if variant == "dcd_channel_only_kxk":
        return DcdConv("d", _C, _C, k=3, variant="channel_only_kxk", padding=1, **common)
    raise ValueError(f"unknown gradcheck variant {variant!r}; known: {VARIANTS}")


def variant_gradcheck(
    variant: str,
    seed: int = 0,
    tol: float = 1e-6,
    step: float = 1e-5,
    max_coords: int = 96,
) -> ad.GradCheckReport:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    layer = _build(variant, rng)
    # wake the dynamic path: the branch output stage initializes to zero
    branch = getattr(layer, "branch", None)
    if branch is not None:
        branch.w2.value[...] = rng.normal(size=branch.w2.value.shape) * 0.3
        branch.b2.value[...] = rng.normal(size=branch.b2.value.shape) * 0.1
    else:
        layer.b2.value[...] = rng.normal(size=layer.b2.value.shape) * 0.5

    x_param = ad.Parameter("input", rng.normal(size=(_N, _C, _H, _H)))
    out_shape = ad.value_of(layer.forward(x_param.value)).shape
    weights = rng.normal(size=out_shape)

    def loss_fn():
        tape = ad.Tape()
        xn = tape.leaf(x_param.value, param=x_param)
        out = layer.forward(xn, train=False)
        return ad.sum_all(ad.mul(out, weights))

    params = [x_param] + layer.parameters()
    return ad.finite_diff_check(loss_fn, params, step=step, tol=tol, max_coords=max_coords)

