"""Finite-difference gradient checks: the central-difference checker of
`autodiff.backward`, and a fixture for every dynamic-convolution mechanism.

Each named variant builds one small layer (8 channels, 5×5 inputs, batch 2),
randomizes the dynamic branch's output stage (zero-initialized by default,
which would make the dynamic path vanish from the gradients), and checks
analytic gradients of a fixed linear functional of the output against
central differences — for every learnable tensor and for the input itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import tensor as T
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


@dataclass
class GradCheckEntry:
    name: str
    checked: int
    max_rel_err: float
    failures: list = field(default_factory=list)  # (flat_index, analytic, numeric, rel_err)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class GradCheckReport:
    tol: float
    step: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def coord_sample(size: int, max_coords: int = 256) -> list[int]:
    """Deterministic stride subsample of flat indices."""
    if size <= max_coords:
        return list(range(size))
    stride = math.ceil(size / max_coords)
    return list(range(0, size, stride))[:max_coords]


def finite_diff_check(
    loss_fn: Callable[[], ad.Node],
    params: list[ad.Parameter],
    step: float = 1e-5,
    tol: float = 1e-6,
    max_coords: int = 256,
) -> GradCheckReport:
    """Central-difference check of `backward` against `loss_fn`.

    `loss_fn` must rebuild its tape on every call and read parameter
    values at call time, so in-place perturbation is visible.  `step` and
    `tol` must be finite and positive: no coordinate fails a NaN or infinite
    tolerance, and every coordinate fails a zero one.
    """
    for name, value in (("step", step), ("tol", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    node = loss_fn()
    if node.value.shape not in ((), (1,)):
        raise ValueError("gradcheck target must be scalar")
    analytic = ad.backward(node, 1.0)
    report = GradCheckReport(tol=tol, step=step)
    for p in params:
        a = analytic.get(p)
        if a is None:
            a = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        aflat = a.reshape(-1)
        entry = GradCheckEntry(name=p.name, checked=0, max_rel_err=0.0)
        for idx in coord_sample(flat.size, max_coords):
            orig = flat[idx]
            T.write_state(flat, orig + step, idx)
            lp = loss_fn().value.item()
            T.write_state(flat, orig - step, idx)
            lm = loss_fn().value.item()
            T.write_state(flat, orig, idx)
            numeric = (lp - lm) / (2.0 * step)
            rel = abs(aflat[idx] - numeric) / max(abs(aflat[idx]), abs(numeric), 1e-8)
            entry.checked += 1
            entry.max_rel_err = max(entry.max_rel_err, rel)
            if rel > tol:
                entry.failures.append((idx, float(aflat[idx]), numeric, rel))
        report.entries.append(entry)
    return report


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
) -> GradCheckReport:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    layer = _build(variant, rng)
    # wake the dynamic path: a DCD branch's output stage initializes to zero
    branch = layer.branch
    if isinstance(layer, DcdConv):
        T.write_state(branch.w2.value, rng.normal(size=branch.w2.value.shape) * 0.3)
        T.write_state(branch.b2.value, rng.normal(size=branch.b2.value.shape) * 0.1)
    else:
        T.write_state(branch.b2.value, rng.normal(size=branch.b2.value.shape) * 0.5)

    x_param = ad.Parameter("input", rng.normal(size=(_N, _C, _H, _H)))
    out_shape = ad.value_of(layer.forward(x_param.value)).shape
    weights = rng.normal(size=out_shape)

    def loss_fn():
        tape = ad.Tape()
        xn = tape.leaf(x_param.value, param=x_param)
        out = layer.forward(xn, train=False)
        return ad.sum_all(ad.mul(out, weights))

    params = [x_param] + layer.parameters()
    return finite_diff_check(loss_fn, params, step=step, tol=tol, max_coords=max_coords)

