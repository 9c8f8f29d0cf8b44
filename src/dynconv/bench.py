"""Wall-clock comparison of a dynamic model against its static twin.

Times eval forwards at given batch sizes and input resolutions, in rounds
that alternate the models, excluding warmup rounds.  `BenchReport.row` gives
each side's median, quartiles and 95th percentile and the dynamic/static
ratio of medians; `environment` gives what the timings ran with: numpy and
its BLAS, the BLAS thread count, the contraction worker count, the CPU count
and a source hash.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import tensor as T


def environment() -> dict:
    """What a timing ran with: numpy and its BLAS, the BLAS thread count,
    the contraction worker count, the CPUs the process may use, and a SHA-256
    prefix of the package's ``*.py`` files, hashed as `perfbench` hashes
    them.  The hash names the source even in an uncommitted tree, where a git
    revision would name the parent."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config and returns None
        blas_name = "unknown"
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"numpy": np.__version__, "blas": blas_name, "blas_threads": T.blas_threads(),
            "contraction_workers": T.contraction_workers(), "cpus": T.usable_cpus(),
            "src_sha256": digest.hexdigest()[:16]}


def _summary(times: list[float]) -> dict[str, float]:
    """Median, quartiles and p95 in seconds."""
    q25, median, q75, p95 = np.percentile(times, [25, 50, 75, 95])
    return {"median_s": float(median), "q25_s": float(q25), "q75_s": float(q75), "p95_s": float(p95)}


@dataclass
class BenchReport:
    model: str
    resolution: int
    batch: int
    dyn: list[float] = field(default_factory=list)
    twin: list[float] = field(default_factory=list)

    def row(self) -> dict:
        """One JSON row: the model, its input, the repeat count, each side's
        median, quartiles and p95, and the dynamic/static ratio of medians."""
        dyn, twin = _summary(self.dyn), _summary(self.twin)
        return {
            "model": self.model, "resolution": self.resolution, "batch": self.batch,
            "repeats": len(self.dyn), "dyn": dyn, "twin": twin,
            "dyn_over_twin_median": dyn["median_s"] / twin["median_s"],
        }


def _second_forward_s(graph, x: np.ndarray) -> float:
    """Seconds of the second of two eval forwards of `graph` on `x`; the
    first refills the caches that the other cases emptied."""
    ad.value_of(graph.forward(x, train=False))
    start = time.perf_counter()
    ad.value_of(graph.forward(x, train=False))
    return time.perf_counter() - start


def bench_pairs(cases, repeats: int = 20, warmup: int = 3, seed: int = 0) -> list[BenchReport]:
    """Time each ``(graph, batch, resolution)`` case against its static twin
    on one random input per case (``resolution`` None: the graph's own).

    Each warmup and each repeat is a round over the cases: case by case, the
    graph, then its twin, each timed on its second of two forwards.  Every
    case's timings thus spread over the whole run, and a slow stretch of a
    shared host lands on all cases and both sides alike, not on one case or
    one side.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    runs = []
    for graph, batch, resolution in cases:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        res = graph.resolution if resolution is None else resolution
        if res < 0:  # zero makes an empty input, which the forward refuses by its shape
            raise ValueError(f"resolution must not be negative, got {res}")
        x = np.random.default_rng(seed).normal(size=(batch, graph.input_channels, res, res))
        runs.append((graph, graph.static_twin(), x, BenchReport(graph.name, res, batch)))
    for i in range(warmup + repeats):
        for graph, twin, x, report in runs:
            dyn, static = _second_forward_s(graph, x), _second_forward_s(twin, x)
            if i >= warmup:
                report.dyn.append(dyn)
                report.twin.append(static)
    return [report for *_, report in runs]
