"""Statistics of the dynamic coefficients across a batch of inputs.

For every dynamic-decomposed layer, run the model once over a sample batch
and measure how much the generated coefficient matrix actually varies from
input to input:

* ``sigma_raw`` — for each coefficient entry, the population standard
  deviation across samples (two-pass: mean first, then squared deviations),
  averaged over all entries of the coefficient vector.
* ``sigma_normalized`` — ``sigma_raw`` divided by the variability of the
  layer's own pooled input features (per-channel population std across
  samples, averaged over channels), making depths comparable.  When the
  pooled inputs do not vary at all the normalized value is reported as 0.

Rows are ordered by layer depth (forward order).  A single-sample batch has
zero variation by definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .layers import DcdConv

METADATA = {
    "pooling": "global-average",
    "spread": "population std across samples (two-pass), averaged over entries",
    "normalizer": "mean per-channel population std of the layer's pooled inputs",
}


def two_pass_std(mat: np.ndarray) -> np.ndarray:
    """Per-column population standard deviation of a (samples, features) matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    mean = mat.sum(axis=0) / mat.shape[0]
    sq = ((mat - mean) ** 2).sum(axis=0) / mat.shape[0]
    return np.sqrt(sq)


@dataclass
class PhiRow:
    layer: str
    depth: int
    entries: int
    sigma_raw: float
    sigma_normalized: float


@dataclass
class PhiReport:
    rows: list[PhiRow] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=lambda: dict(METADATA))

    def csv_lines(self) -> list[str]:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append("layer,depth,entries,sigma_raw,sigma_normalized")
        for r in self.rows:
            lines.append(
                f"{r.layer},{r.depth},{r.entries},{r.sigma_raw:.10g},{r.sigma_normalized:.10g}"
            )
        return lines


def phi_statistics(graph, x: np.ndarray) -> PhiReport:
    """Coefficient-variation report for every dynamic layer in `graph`.

    `x` is a (N, C, H, W) batch; the model runs once in inference mode, and
    a `models.layer_hook` pools each DCD layer's input, from which the
    layer's coefficients are then computed as its forward computes them.
    Training state is untouched.
    """
    if len(x) == 0:
        raise ValueError("phi statistics need at least one sample, got an empty batch")
    dcd_layers = [layer for layer, *_ in graph.iter_layers() if isinstance(layer, DcdConv)]
    if not dcd_layers:
        raise ValueError(f"{graph.name} has no dynamic-decomposed layers to analyze")
    pooled: dict[int, np.ndarray] = {}

    def record(layer, h, run):
        if isinstance(layer, DcdConv):
            pooled[id(layer)] = ad.global_avg_pool(h)
        return run()

    with models.layer_hook(record):
        graph.forward(np.asarray(x, dtype=np.float64), train=False)

    report = PhiReport()
    for depth, layer in enumerate(dcd_layers):
        _, phi = layer.coefficients(pooled[id(layer)], lambda p: p.value)
        sigma_raw = float(two_pass_std(phi).mean())
        normalizer = float(two_pass_std(pooled[id(layer)]).mean())
        sigma_norm = sigma_raw / normalizer if normalizer > 0.0 else 0.0
        report.rows.append(
            PhiRow(
                layer=layer.name,
                depth=depth,
                entries=phi.shape[1],
                sigma_raw=sigma_raw,
                sigma_normalized=sigma_norm,
            )
        )
    return report
