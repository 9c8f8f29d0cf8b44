"""Desk-scale classification tasks and the small model that runs them.

Generators:

* ``make_linear_control`` — classes are Gaussian blobs around fixed channel
  means, linearly separable after global average pooling.  Any static model
  with a pooled linear readout can fit it; it calibrates the training loop.

* ``make_context_gated`` — each sample carries one of ``contexts`` hidden
  context cues (a unit channel direction added to every pixel), and the label
  is computed by a teacher that first mixes channels with a context-specific
  orthogonal matrix before pooling and reading out.  No single fixed channel
  mixing reproduces all contexts at once, so input-dependent kernels have a
  structural advantage over static ones.

* ``load_image_folder`` — real-data smoke tests: labeled 32×32 binary netpbm
  images read from class subdirectories, split deterministically.

``build_task_model`` assembles the matching network: a square channel-mixing
layer whose mechanism is the experimental knob (static, dynamic-decomposed,
or vanilla multi-kernel) applied directly to the input, pooling, and a linear
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import keyword_args, keyword_config
from .layers import DcdConv, LatentDims, StaticConv, VanillaDynConv
from .models import Block, GlobalPool, ModelGraph, _layer_rngs, _scaled_latent


@dataclass
class Dataset:
    inputs: np.ndarray  # (N, C, H, W) float64
    labels: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def batches(self, batch_size: int, order: np.ndarray | None = None):
        idx = np.arange(len(self)) if order is None else order
        for start in range(0, len(idx), batch_size):
            sel = idx[start : start + batch_size]
            yield self.inputs[sel], self.labels[sel]


# distinct salts keep the two generators' streams independent at equal seeds
_LINEAR_SALT = 101
_CONTEXT_SALT = 202


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def make_linear_control(
    n_train: int = 256,
    n_val: int = 128,
    channels: int = 8,
    size: int = 16,
    num_classes: int = 4,
    noise: float = 0.5,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, _LINEAR_SALT)))
    means = _orthogonal(rng, channels)[:num_classes] * 2.0  # (classes, C)

    def draw(n: int) -> Dataset:
        labels = rng.integers(0, num_classes, size=n)
        x = rng.normal(scale=noise, size=(n, channels, size, size))
        x += means[labels][:, :, None, None]
        return Dataset(x, labels.astype(np.int64))

    return draw(n_train), draw(n_val)


def make_context_gated(
    n_train: int = 512,
    n_val: int = 256,
    contexts: int = 4,
    channels: int = 8,
    size: int = 16,
    num_classes: int = 4,
    cue_strength: float = 1.5,
    content_strength: float = 1.0,
    pixel_noise: float = 0.25,
    seed: int = 0,
) -> tuple[Dataset, Dataset]:
    """Each sample is a per-sample channel vector broadcast over all pixels
    (plus small iid pixel noise): an additive context cue along one of
    ``contexts`` orthonormal channel directions, and content drawn from the
    orthogonal complement so it never masks the cue.  The label applies a
    context-specific orthogonal channel mixing followed by ReLU and a shared
    linear readout, so recovering it requires switching the channel mixing by
    context — content survives pooling, and no single static mixing matches
    every context.  Readout scores are centered per class on a held
    calibration draw to keep the classes roughly balanced.
    """
    if not 0 < contexts < channels:
        raise ValueError(f"contexts must be in [1, channels), got {contexts}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, _CONTEXT_SALT)))
    basis = _orthogonal(rng, channels)
    cues = basis[:contexts]  # (M, C) orthonormal rows
    content_basis = basis[contexts:]  # (C - M, C); complement of the cues
    mixes = np.stack([_orthogonal(rng, channels) for _ in range(contexts)])  # (M, C, C)
    readout = rng.normal(size=(num_classes, channels))

    def scores(ctx: np.ndarray, z: np.ndarray) -> np.ndarray:
        mixed = np.einsum("ncd,nd->nc", mixes[ctx], z)
        return np.maximum(mixed, 0.0) @ readout.T

    def draw_z(n: int) -> tuple[np.ndarray, np.ndarray]:
        ctx = rng.integers(0, contexts, size=n)
        alpha = rng.normal(scale=content_strength, size=(n, channels - contexts))
        z = cue_strength * cues[ctx] + alpha @ content_basis
        return ctx, z

    calib_ctx, calib_z = draw_z(2048)
    offsets = scores(calib_ctx, calib_z).mean(axis=0)

    def draw(n: int) -> Dataset:
        ctx, z = draw_z(n)
        labels = np.argmax(scores(ctx, z) - offsets, axis=1)
        x = z[:, :, None, None] + rng.normal(
            scale=pixel_noise, size=(n, channels, size, size)
        )
        return Dataset(x, labels.astype(np.int64))

    return draw(n_train), draw(n_val)


def _read_netpbm(path: Path) -> np.ndarray:
    """Binary netpbm raster (P5 gray / P6 RGB, maxval ≤ 255) → (C,H,W) in [0,1]."""
    blob = path.read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos : pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated netpbm header")
        return blob[start:pos]

    magic = token()
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"{path}: unsupported raster format {magic!r} (binary P5/P6 required)")
    header = [token() for _ in range(3)]
    for field, raw in zip(("width", "height", "maxval"), header):
        if not raw.isdigit():
            raise ValueError(f"{path}: netpbm {field} {raw!r} is not a decimal number")
    width, height, maxval = map(int, header)
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (expected 1..255)")
    pos += 1  # exactly one whitespace byte separates the header from the raster
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    raster = blob[pos : pos + need]
    if len(raster) != need:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {need}")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / maxval
    return arr.reshape(height, width, channels).transpose(2, 0, 1)


def load_image_folder(
    root: str | Path,
    val_every: int = 5,
) -> tuple[Dataset, Dataset]:
    """Labeled 32×32 images from ``<root>/<class-name>/*.pgm|*.ppm``.

    Classes are the sorted subdirectory names.  Within each class, files are
    sorted and every ``val_every``-th one goes to validation, so the split is
    a pure function of the directory contents.  All images must be 32×32
    and share one channel count.
    """
    root = Path(root)
    classes = sorted(d.name for d in root.iterdir() if d.is_dir()) if root.is_dir() else []
    if not classes:
        raise ValueError(f"{root}: expected subdirectories of labeled images")
    if val_every < 2:
        raise ValueError("val_every must be >= 2 (1 would leave no training files)")
    train_xy: tuple[list, list] = ([], [])
    val_xy: tuple[list, list] = ([], [])
    for label, cname in enumerate(classes):
        files = sorted(p for p in (root / cname).iterdir() if p.suffix in (".pgm", ".ppm"))
        if not files:
            raise ValueError(f"{root / cname}: no .pgm/.ppm files")
        for i, f in enumerate(files):
            img = _read_netpbm(f)
            if img.shape[1:] != (32, 32):
                raise ValueError(f"{f}: images must be 32×32, got {img.shape[2]}×{img.shape[1]}")
            xs, ys = val_xy if i % val_every == val_every - 1 else train_xy
            xs.append(img)
            ys.append(label)
    depths = {img.shape[0] for xs, _ in (train_xy, val_xy) for img in xs}
    if len(depths) > 1:
        raise ValueError(f"{root}: mixed grayscale and color images (channel counts {sorted(depths)})")

    def pack(xs: list, ys: list, part: str) -> Dataset:
        if not xs:
            raise ValueError(f"{root}: split produced an empty {part} set")
        return Dataset(np.stack(xs), np.asarray(ys, dtype=np.int64))

    return pack(*train_xy, "training"), pack(*val_xy, "validation")


TASK_GENERATORS = {
    "linear_control": make_linear_control,
    "context_gated": make_context_gated,
    "image_folder": load_image_folder,
}


def make_task(kind: str, **kwargs) -> tuple[Dataset, Dataset]:
    if kind not in TASK_GENERATORS:
        raise ValueError(f"unknown task {kind!r}; known: {sorted(TASK_GENERATORS)}")
    return TASK_GENERATORS[kind](**kwargs)


TASK_MODEL_KINDS = ("static", "dcd", "vanilla")


def build_task_model(
    kind: str = "dcd",
    channels: int = 8,
    num_classes: int = 4,
    resolution: int = 16,
    tau: float = 30.0,
    kernels: int = 4,
    sparse_blocks: int = 1,
    l_multiplier: float = 1.0,
    r: float = 2.0,
    seed: int = 0,
) -> ModelGraph:
    """Square channel-mixing layer (the experimental knob) -> pool -> linear.

    The mixing layer sits directly on the input so its pooled features — the
    signal the coefficient branch reads — carry the task's context cue, and it
    is square so the block-sparse ablation divides evenly.  All three kinds
    share the mixing kernel initialization (same per-layer stream), so they
    start from the same static function and differ only in adaptivity.
    """
    if kind not in TASK_MODEL_KINDS:
        raise ValueError(f"unknown task model kind {kind!r}; known: {TASK_MODEL_KINDS}")
    rng = _layer_rngs(seed, 0)
    if kind == "static":
        mix = StaticConv("mix", channels, channels, rng=rng())
    elif kind == "vanilla":
        mix = VanillaDynConv("mix", channels, channels, kernels=kernels, tau=tau,
                             reduction=2, rng=rng())
    else:
        variant = "block_sparse" if sparse_blocks > 1 else "pointwise"
        base = channels // sparse_blocks
        dims = LatentDims(l=_scaled_latent(base, l_multiplier))
        mix = DcdConv(
            "mix", channels, channels, variant=variant, dims=dims, blocks=sparse_blocks,
            r=r, enforce_budget=False, rng=rng(),
        )
    fc = StaticConv(
        "fc", channels, num_classes, bias=True, with_bn=False, activation=None, rng=rng()
    )
    modules = [Block([(mix, "mix"), (GlobalPool("pool", channels), "global_pool"), (fc, "classifier")])]
    config = {"model.family": "task"} | keyword_config(build_task_model, "model", locals())
    return ModelGraph(
        name=f"task/{kind}",
        modules=modules,
        input_channels=channels,
        num_classes=num_classes,
        resolution=resolution,
        config=config,
    )


def make_task_from_config(cfg: dict) -> tuple[Dataset, Dataset]:
    """Datasets from the ``task.*`` keys of `cfg`: each names a parameter of the
    chosen generator, typed like its default, and any other is a `ConfigError`.
    ``image_folder`` takes its root from ``task.dir`` and ignores ``task.seed``,
    which `dynconv train` sets on every run."""
    kind = cfg.get("task.kind", "context_gated")
    if kind not in TASK_GENERATORS:
        raise ValueError(f"unknown task {kind!r}; known: {sorted(TASK_GENERATORS)}")
    aliases = {"task.kind": None}
    if kind == "image_folder":
        if "task.dir" not in cfg:
            raise ValueError("task.kind = image_folder requires task.dir")
        aliases |= {"task.dir": "root", "task.seed": None}
    return make_task(kind, **keyword_args(TASK_GENERATORS[kind], cfg, "task", f"task.kind = {kind}", aliases))
