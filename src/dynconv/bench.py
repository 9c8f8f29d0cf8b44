"""Wall-clock comparison of a dynamic model against its static twin.

Times single-sample inference (the regime where the dynamic branch and the
latent residual cost the most relative to the static conv), excluding warmup
iterations, and reports mean / median / 95th-percentile latencies plus the
dynamic/static mean ratio, next to the contraction worker count and BLAS
thread setting they ran with.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tensor as T


@dataclass
class Timing:
    name: str
    times: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.times))

    @property
    def median(self) -> float:
        return float(np.median(self.times))

    @property
    def p95(self) -> float:
        return float(np.percentile(self.times, 95))

    def line(self) -> str:
        return (
            f"{self.name}: mean {self.mean * 1e3:.3f} ms, "
            f"median {self.median * 1e3:.3f} ms, p95 {self.p95 * 1e3:.3f} ms"
        )


def environment_line() -> str:
    """The contraction worker count and the BLAS thread setting timings run with."""
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"contraction workers: {T.contraction_workers()}, OPENBLAS_NUM_THREADS: {blas}"


def time_forward(graph, x: np.ndarray, repeats: int = 20, warmup: int = 3) -> Timing:
    for _ in range(warmup):
        ad.value_of(graph.forward(x, train=False))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ad.value_of(graph.forward(x, train=False))
        times.append(time.perf_counter() - start)
    return Timing(graph.name, times)


@dataclass
class BenchReport:
    dynamic: Timing
    static: Timing

    @property
    def ratio(self) -> float:
        return self.dynamic.mean / self.static.mean

    def lines(self) -> list[str]:
        return [
            self.dynamic.line(),
            self.static.line(),
            f"dynamic/static mean ratio: {self.ratio:.3f}",
        ]

    def csv_lines(self) -> list[str]:
        out = ["model,mean_s,median_s,p95_s"]
        for t in (self.dynamic, self.static):
            out.append(f"{t.name},{t.mean:.9f},{t.median:.9f},{t.p95:.9f}")
        return out


def bench_pair(
    graph,
    batch: int = 1,
    resolution: int | None = None,
    repeats: int = 20,
    warmup: int = 3,
    seed: int = 0,
) -> BenchReport:
    """Time `graph` against its static twin on the same random input."""
    res = graph.resolution if resolution is None else resolution
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, graph.input_channels, res, res))
    twin = graph.static_twin()
    return BenchReport(
        dynamic=time_forward(graph, x, repeats=repeats, warmup=warmup),
        static=time_forward(twin, x, repeats=repeats, warmup=warmup),
    )
