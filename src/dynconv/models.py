"""Model zoo: MobileNetV2- and ResNet-style graphs with static or dynamic
convolutions sharing one architecture.

A `ModelGraph` is an ordered list of `Block`s.  A block runs its layers in
order, then optionally adds a skip (the input itself, or a downsample
layer applied to it) and a ReLU: a plain layer chain, a MobileNetV2
inverted residual and a ResNet residual block differ only in those flags.
A graph runs a forward pass (taped when its input is a tape leaf, eager
otherwise), enumerates its layers with the spatial size each one sees (for
accounting), rebuilds itself from a flat config mapping, and derives a
*static twin* whose plain convolutions share the dynamic model's base
kernels — at initialization the two produce bit-identical outputs.

Latent/squeeze policies for the dynamic variants.  A layer checks only the
structure of its latent sizes; how far to reduce the latent space is each
builder's policy, fixed here so parameter budgets are reproducible:

* MobileNetV2 pointwise: L = default_latent_dim(max(C_in, C_out)) inside
  inverted residuals; the feature-head expansion (→1280) uses
  default_latent_dim(C_in) since its 8× fan-out makes the larger-endpoint
  rule disproportionate; the classifier uses latent_dim_pow2(C_in).  The
  branch bottleneck is ⌊√(C_in·C_out)/8⌋ below width 1.0 and
  ⌊max(C_in, C_out)/16⌋ at width ≥ 1.0 (reduction r defaults to 8 and 16
  respectively); the classifier keeps the plain ⌊C_in/r⌋ default.
  Depthwise layers use the default kernel-space latent.
* ResNet channel-wise 3×3: L = latent_dim_pow2(C_out) and bottleneck
  ⌊k²·C_in/16⌋.  Stage-4 layers use L = 32 at C = 512, i.e. L² > C, which
  is the intended spend.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .autodiff import value_of
from .config import keyword_args, keyword_config
from .counting import count_model
from .layers import (
    DcdConv,
    LatentDims,
    StaticConv,
    VanillaDynConv,
    default_latent_dim,
    latent_dim_pow2,
)

PLACEMENTS = ("dw", "pw", "cls")


# ---------------------------------------------------------------------------
# graph modules


class MaxPool2d:
    def __init__(self, name: str, k: int, stride: int, padding: int = 0):
        self.name, self.k, self.stride, self.padding = name, k, stride, padding

    def forward(self, x, train: bool = False):
        return ad.max_pool2d(x, self.k, self.stride, self.padding)

    def out_size(self, h: int) -> int:
        return T.conv_out_size(h, self.k, self.stride, self.padding)

    def parameters(self):
        return []

    def buffers(self):
        return []


class GlobalPool:
    """Spatial mean, reshaped to (N, C, 1, 1) so 1×1 heads can follow."""

    def __init__(self, name: str, channels: int):
        self.name, self.channels = name, channels

    def forward(self, x, train: bool = False):
        n = value_of(x).shape[0]
        return ad.reshape(ad.global_avg_pool(x), (n, self.channels, 1, 1))

    def out_size(self, h: int) -> int:
        return 1

    def parameters(self):
        return []

    def buffers(self):
        return []


def _rename(layer_name: str, exc: T.NonFiniteError):
    """Re-raise `exc` under `layer_name`, as ``mix: non-finite values in pre-activation``."""
    raise T.NonFiniteError(f"{layer_name}: {exc}", layer=layer_name) from exc


_layer_hook = None  # set by `layer_hook`


@contextlib.contextmanager
def layer_hook(hook):
    """Within the block, each layer call of a forward is ``hook(layer, x,
    run)``, in forward order (the downsample and the classifier included):
    ``run()`` runs the layer's forward on its input `x` and returns the
    output, which the hook returns.  The hook that was set before is set
    again on exit, an exception's too."""
    global _layer_hook
    outer, _layer_hook = _layer_hook, hook
    try:
        yield
    finally:
        _layer_hook = outer


def _run(layer, x, train: bool):
    """`layer.forward`, through `layer_hook`'s hook when one is set, under
    the layer's name.  No op checks its result; the layer checks its values
    at fixed points (see `dynconv.layers`), so an error names the layer and
    the check point."""
    try:
        if _layer_hook is None:
            return layer.forward(x, train=train)
        return _layer_hook(layer, x, functools.partial(layer.forward, x, train=train))
    except T.NonFiniteError as exc:
        _rename(layer.name, exc)


class Block:
    """Steps run in order; `skip` then adds `downsample(x)`, or `x` itself
    when there is no downsample, and checks the sum under the last step's
    name, and `relu` ends the block with a ReLU."""

    def __init__(self, steps: list[tuple[object, str]], skip: bool = False, downsample=None, relu: bool = False):
        self.steps, self.skip, self.downsample, self.relu = steps, skip, downsample, relu

    def forward(self, x, train: bool = False):
        h = x
        for layer, _ in self.steps:
            h = _run(layer, h, train)
        if self.skip:
            h = ad.add(h, x if self.downsample is None else _run(self.downsample, x, train))
            try:  # the sum can overflow, and a ReLU would hide -inf
                T.check_finite(value_of(h), "skip sum")
            except T.NonFiniteError as exc:
                _rename(self.steps[-1][0].name, exc)
        return ad.relu(h) if self.relu else h

    def walk(self, h: int):
        rows, cur = [], h
        for layer, role in self.steps:
            nxt = layer.out_size(cur)
            rows.append((layer, role, cur, nxt))
            cur = nxt
        if self.downsample is not None:
            rows.append((self.downsample, "downsample", h, cur))
        return rows, cur

    def map_layers(self, fn):
        down = fn(self.downsample) if self.downsample is not None else None
        return Block([(fn(layer), role) for layer, role in self.steps], self.skip, down, self.relu)

    def _layers(self) -> list:
        return [layer for layer, _ in self.steps] + ([self.downsample] if self.downsample is not None else [])

    def parameters(self):
        return [p for layer in self._layers() for p in layer.parameters()]

    def buffers(self):
        return [b for layer in self._layers() for b in layer.buffers()]


class ModelGraph:
    def __init__(self, name: str, modules: list, input_channels: int, num_classes: int,
                 resolution: int, config: dict[str, str]):
        self.name = name
        self.modules = modules
        self.input_channels = input_channels
        self.num_classes = num_classes
        self.resolution = resolution
        self.config = config

    def forward(self, x, train: bool = False):
        """Logits; taped when `x` is a tape leaf (`graph.forward(tape.leaf(x), train=True)`)."""
        xv = value_of(x)
        if xv.ndim != 4 or xv.shape[1] != self.input_channels or 0 in xv.shape[2:]:
            raise ValueError(f"{self.name} expects (N,{self.input_channels},H,W) with H, W >= 1, got {xv.shape}")
        h = x
        for module in self.modules:
            h = module.forward(h, train=train)
        return ad.reshape(h, (xv.shape[0], self.num_classes))

    def iter_layers(self, resolution: int | None = None):
        h = self.resolution if resolution is None else resolution
        for module in self.modules:
            rows, h = module.walk(h)
            yield from rows

    def parameters(self):
        seen, out = set(), []
        for module in self.modules:
            for p in module.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        return out

    def buffers(self):
        return [b for module in self.modules for b in module.buffers()]

    def state_items(self) -> list[tuple[str, np.ndarray]]:
        """Every persistent tensor: learnable parameters plus running stats."""
        return [(p.name, p.value) for p in self.parameters()] + list(self.buffers())

    def static_twin(self) -> "ModelGraph":
        """Same graph with every dynamic convolution replaced by its static
        equivalent (sharing the base kernel, bias, and batch-norm state)."""

        def swap(layer):
            return layer.static_equivalent() if isinstance(layer, DcdConv) else layer

        cfg = dict(self.config)
        cfg["model.twin"] = "static"
        return ModelGraph(f"{self.name}-static-twin", [m.map_layers(swap) for m in self.modules],
                          self.input_channels, self.num_classes, self.resolution, cfg)

    def to_config(self) -> dict[str, str]:
        return dict(self.config)


# ---------------------------------------------------------------------------
# shared builder helpers


def _layer_rngs(seed: int, start: int) -> Callable[[], np.random.Generator]:
    """One generator per call, for the layers in build order: streams
    `start`, `start + 1`, … of `seed`."""
    index = itertools.count(start)
    return lambda: np.random.default_rng(np.random.SeedSequence((seed, next(index))))


def _scaled_latent(base: int, multiplier: float) -> int:
    return max(1, round(base * multiplier))


# ---------------------------------------------------------------------------
# MobileNetV2

MOBILENET_SETTINGS = ((1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
                      (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1))


def make_divisible(v: float, divisor: int = 8, min_value: int | None = None) -> int:
    if min_value is None:
        min_value = divisor
    out = max(min_value, int(v + divisor / 2) // divisor * divisor)
    if out < 0.9 * v:
        out += divisor
    return int(out)


def build_mobilenetv2(width: float = 1.0, placement=(), r: float | None = None,
                      num_classes: int = 1000, resolution: int = 224, seed: int = 0,
                      l_multiplier: float = 1.0) -> ModelGraph:
    placement = frozenset(placement)
    unknown = placement - set(PLACEMENTS)
    if unknown:
        raise ValueError(f"unknown placement(s) {sorted(unknown)}; choose from {PLACEMENTS}")
    if r is None:
        r = 8.0 if width < 1.0 else 16.0

    rng = _layer_rngs(seed, 1)

    def pw_squeeze(c_in: int, c_out: int) -> int:
        if width < 1.0:
            return max(1, math.isqrt(c_in * c_out) // 8)
        return max(1, max(c_in, c_out) // 16)

    def pointwise(name: str, c_in: int, c_out: int, activation: str | None, base_latent: int | None = None):
        if "pw" in placement:
            if base_latent is None:
                base_latent = default_latent_dim(max(c_in, c_out))
            dims = LatentDims(l=_scaled_latent(base_latent, l_multiplier))
            return DcdConv(name, c_in, c_out, k=1, variant="pointwise", dims=dims,
                           squeeze=pw_squeeze(c_in, c_out), activation=activation, rng=rng())
        return StaticConv(name, c_in, c_out, k=1, activation=activation, rng=rng())

    def depthwise(name: str, c: int, stride: int):
        if "dw" in placement:
            return DcdConv(name, c, c, k=3, variant="depthwise", r=r, stride=stride, padding=1,
                           activation="relu", rng=rng())
        return StaticConv(name, c, c, k=3, stride=stride, padding=1, groups=c,
                          activation="relu", rng=rng())

    c_stem = make_divisible(32 * width)
    c_last = make_divisible(1280 * max(1.0, width))
    modules: list = [Block([(StaticConv("stem", 3, c_stem, k=3, stride=2, padding=1,
                                        activation="relu", rng=rng()), "stem")])]

    c_prev = c_stem
    block_idx = 0
    for t, c, n, s in MOBILENET_SETTINGS:
        c_out = make_divisible(c * width)
        for j in range(n):
            stride = s if j == 0 else 1
            prefix = f"b{block_idx}"
            steps: list[tuple[object, str]] = []
            c_mid = c_prev * t
            if t != 1:
                steps.append((pointwise(f"{prefix}.expand", c_prev, c_mid, "relu"), "pw"))
            steps.append((depthwise(f"{prefix}.dw", c_mid, stride), "dw"))
            steps.append((pointwise(f"{prefix}.project", c_mid, c_out, None), "pw"))
            modules.append(Block(steps, skip=(stride == 1 and c_prev == c_out)))
            c_prev = c_out
            block_idx += 1

    head = pointwise("head", c_prev, c_last, "relu", base_latent=default_latent_dim(c_prev))
    if "cls" in placement:
        cls_base = min(latent_dim_pow2(c_last), num_classes)
        cls_dims = LatentDims(l=_scaled_latent(cls_base, l_multiplier))
        cls = DcdConv("cls", c_last, num_classes, k=1, variant="pointwise", dims=cls_dims, r=r,
                      bias=True, with_bn=False, activation=None, rng=rng())
    else:
        cls = StaticConv("cls", c_last, num_classes, k=1, bias=True, with_bn=False,
                         activation=None, rng=rng())
    modules.append(Block([(head, "pw"), (GlobalPool("pool", c_last), "global_pool"), (cls, "classifier")]))

    config = {"model.family": "mobilenetv2"} | keyword_config(build_mobilenetv2, "model", locals())
    tag = "+".join(sorted(placement)) if placement else "static"
    return ModelGraph(f"mobilenetv2_x{width:g}/{tag}", modules, 3, num_classes, resolution, config)


# ---------------------------------------------------------------------------
# ResNet

RESNET_LAYOUTS = {10: ("basic", (1, 2, 1, 1)), 18: ("basic", (2, 2, 2, 2)),
                  50: ("bottleneck", (3, 4, 6, 3))}
RESNET_DCD_MODES = ("off", "channel_only_3x3")


def build_resnet(depth: int = 18, dcd: str = "off", num_classes: int = 1000,
                 resolution: int = 224, seed: int = 0, l_multiplier: float = 1.0) -> ModelGraph:
    if depth not in RESNET_LAYOUTS:
        raise ValueError(f"unsupported depth {depth}; choose from {sorted(RESNET_LAYOUTS)}")
    if dcd not in RESNET_DCD_MODES:
        raise ValueError(f"unknown dcd mode {dcd!r}; choose from {RESNET_DCD_MODES}")
    block_kind, layout = RESNET_LAYOUTS[depth]
    dynamic = dcd != "off"

    rng = _layer_rngs(seed, 1)

    def latent(c_out: int) -> LatentDims:
        return LatentDims(l=_scaled_latent(latent_dim_pow2(c_out), l_multiplier))

    def conv(name: str, c_in: int, c_out: int, k: int, stride: int, activation: str | None):
        padding = (k - 1) // 2
        if dynamic:
            variant = "channel_only_kxk" if k == 3 else "pointwise"
            return DcdConv(name, c_in, c_out, k=k, variant=variant, dims=latent(c_out),
                           squeeze=max(1, (k * k * c_in) // 16), stride=stride, padding=padding,
                           activation=activation, rng=rng())
        return StaticConv(name, c_in, c_out, k=k, stride=stride, padding=padding,
                          activation=activation, rng=rng())

    modules: list = [Block([
        (StaticConv("stem", 3, 64, k=7, stride=2, padding=3, activation="relu", rng=rng()), "stem"),
        (MaxPool2d("maxpool", 3, 2, 1), "max_pool"),
    ])]

    expansion = 1 if block_kind == "basic" else 4
    c_prev = 64
    for stage, (c_mid, blocks) in enumerate(zip((64, 128, 256, 512), layout)):
        stage_stride = 1 if stage == 0 else 2
        c_out = c_mid * expansion
        for j in range(blocks):
            stride = stage_stride if j == 0 else 1
            prefix = f"s{stage + 1}b{j}"
            if block_kind == "basic":
                convs = [
                    (conv(f"{prefix}.conv1", c_prev, c_mid, 3, stride, "relu"), "conv3x3"),
                    (conv(f"{prefix}.conv2", c_mid, c_out, 3, 1, None), "conv3x3"),
                ]
            else:
                convs = [
                    (conv(f"{prefix}.conv1", c_prev, c_mid, 1, 1, "relu"), "conv1x1"),
                    (conv(f"{prefix}.conv2", c_mid, c_mid, 3, stride, "relu"), "conv3x3"),
                    (conv(f"{prefix}.conv3", c_mid, c_out, 1, 1, None), "conv1x1"),
                ]
            down = None
            if stride != 1 or c_prev != c_out:
                down = StaticConv(f"{prefix}.down", c_prev, c_out, k=1, stride=stride,
                                  activation=None, rng=rng())
            modules.append(Block(convs, skip=True, downsample=down, relu=True))
            c_prev = c_out

    fc = StaticConv("fc", c_prev, num_classes, k=1, bias=True, with_bn=False, activation=None, rng=rng())
    modules.append(Block([(GlobalPool("pool", c_prev), "global_pool"), (fc, "classifier")]))

    config = {"model.family": "resnet"} | keyword_config(build_resnet, "model", locals())
    tag = "static" if not dynamic else "dcd"
    return ModelGraph(f"resnet{depth}/{tag}", modules, 3, num_classes, resolution, config)


# ---------------------------------------------------------------------------
# config round-trip


def build_from_config(cfg: dict) -> ModelGraph:
    """The graph that ``model.family`` names, its builder's keywords read from
    the other ``model.*`` keys; ``model.twin = static`` returns its twin."""
    from .task import build_task_model  # task.py builds on this module

    builders = {"mobilenetv2": build_mobilenetv2, "resnet": build_resnet, "task": build_task_model}
    family = cfg.get("model.family")
    if family not in builders:
        raise ValueError(f"unknown model family {family!r}; known: {sorted(builders)}")
    twin = cfg.get("model.twin")
    if twin not in (None, "static"):
        raise ValueError(f"unknown model.twin {twin!r}; known: 'static'")
    kwargs = keyword_args(builders[family], cfg, "model", f"model.family = {family}",
                          {"model.family": None, "model.twin": None})
    graph = builders[family](**kwargs)
    return graph.static_twin() if twin == "static" else graph


# ---------------------------------------------------------------------------
# reference budgets


# every golden row is counted at 224×224, and a MAdds target holds to ±2 %
GOLDEN_RESOLUTION = 224
GOLDEN_MADDS_REL_TOL = 0.02


@dataclass
class GoldenRow:
    row_id: str
    build: Callable[[], ModelGraph]
    params_target: int
    params_tol: int
    madds_target: int | None
    include_classifier: bool

    def check(self) -> GoldenResult:
        report = count_model(self.build(), GOLDEN_RESOLUTION)
        if self.include_classifier:
            params, madds = report.total_params, report.total_madds
        else:
            params, madds = report.params_excluding_classifier(), report.madds_excluding_classifier()
        p_lo, p_hi = self.params_target - self.params_tol, self.params_target + self.params_tol
        if self.madds_target is None:
            madds_val, madds_window, madds_ok = None, None, True
        else:
            m_lo = round(self.madds_target * (1 - GOLDEN_MADDS_REL_TOL))
            m_hi = round(self.madds_target * (1 + GOLDEN_MADDS_REL_TOL))
            madds_val, madds_window, madds_ok = madds, (m_lo, m_hi), m_lo <= madds <= m_hi
        return GoldenResult(self.row_id, params, (p_lo, p_hi), p_lo <= params <= p_hi,
                            madds_val, madds_window, madds_ok)


def golden_rows() -> list[GoldenRow]:
    """The six reference budgets of acceptance criterion 5."""
    return [
        GoldenRow("mobilenetv2_x0.5/static", lambda: build_mobilenetv2(width=0.5),
                  2_000_000, 50_000, 97_000_000, True),
        GoldenRow("mobilenetv2_x0.5/dcd", lambda: build_mobilenetv2(width=0.5, placement=("pw", "cls")),
                  3_100_000, 100_000, 104_800_000, True),
        GoldenRow("mobilenetv2_x1.0/dcd", lambda: build_mobilenetv2(width=1.0, placement=("pw", "cls")),
                  5_500_000, 150_000, None, True),
        GoldenRow("resnet18/static", lambda: build_resnet(depth=18),
                  11_100_000, 100_000, 1_810_000_000, False),
        GoldenRow("resnet18/dcd", lambda: build_resnet(depth=18, dcd="channel_only_3x3"),
                  14_000_000, 200_000, 1_830_000_000, False),
        GoldenRow("resnet10/dcd", lambda: build_resnet(depth=10, dcd="channel_only_3x3"),
                  6_500_000, 150_000, None, False),
    ]


# the reference parameter count of the width-1.0 static MobileNetV2, which
# `dynconv count --golden` checks after the six budget rows
STATIC_ROW = GoldenRow("mobilenetv2_x1.0/static", lambda: build_mobilenetv2(width=1.0),
                       3_500_000, 50_000, None, True)


@dataclass
class GoldenResult:
    row_id: str
    params: int
    params_window: tuple[int, int]
    params_ok: bool
    madds: int | None
    madds_window: tuple[int, int] | None
    madds_ok: bool

    @property
    def ok(self) -> bool:
        return self.params_ok and self.madds_ok

    def line(self) -> str:
        state = "ok" if self.ok else "FAIL"
        parts = [f"{self.row_id}: params={self.params} in [{self.params_window[0]}, {self.params_window[1]}]"]
        if self.madds is not None:
            parts.append(f"madds={self.madds} in [{self.madds_window[0]}, {self.madds_window[1]}]")
        return f"[{state}] " + "  ".join(parts)


def check_golden() -> list[GoldenResult]:
    return [row.check() for row in golden_rows()]
