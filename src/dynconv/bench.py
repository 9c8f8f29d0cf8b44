"""Wall-clock comparison of a dynamic model against its static twin.

Times eval forwards at given batch sizes and input resolutions, in rounds
that alternate the models, excluding warmup iterations, and reports mean /
median / 95th-percentile latencies plus the dynamic/static mean ratio, next
to the contraction worker count and BLAS thread count they ran with.
`BenchReport.row` and `environment` give the same numbers as JSON, with
quartiles and the run's numpy, BLAS, CPU count and source hash.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

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

    def summary(self) -> dict[str, float]:
        """Median, quartiles and p95 in seconds."""
        q25, median, q75, p95 = np.percentile(self.times, [25, 50, 75, 95])
        return {"median_s": float(median), "q25_s": float(q25), "q75_s": float(q75), "p95_s": float(p95)}

    def line(self) -> str:
        return (
            f"{self.name}: mean {self.mean * 1e3:.3f} ms, "
            f"median {self.median * 1e3:.3f} ms, p95 {self.p95 * 1e3:.3f} ms"
        )


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


def environment_line() -> str:
    """The contraction worker count and the BLAS thread count timings run with."""
    blas = T.blas_threads()
    return f"contraction workers: {T.contraction_workers()}, BLAS threads: {'unknown' if blas is None else blas}"


def time_forward(graph, x: np.ndarray, repeats: int = 20, warmup: int = 3) -> Timing:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
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
    batch: int
    resolution: int

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

    def row(self) -> dict:
        """One JSON row: the model, its input, the repeat count, each side's
        `Timing.summary` and the dynamic/static ratio of medians."""
        return {
            "model": self.dynamic.name, "resolution": self.resolution, "batch": self.batch,
            "repeats": len(self.dynamic.times),
            "dyn": self.dynamic.summary(), "twin": self.static.summary(),
            "dyn_over_twin_median": self.dynamic.median / self.static.median,
        }


def bench_pairs(cases, repeats: int = 20, warmup: int = 3, seed: int = 0) -> list[BenchReport]:
    """Time each ``(graph, batch, resolution)`` case against its static twin
    on one random input per case (``resolution`` None: the graph's own).

    Each warmup and each repeat is a round over the cases: case by case, the
    graph, then its twin, each timed on its second of two forwards, so the
    first refills the caches the other cases emptied.  Every case's timings
    thus spread over the whole run, and a slow stretch of a shared host lands
    on all cases and both sides alike, not on one case or one side.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    runs, reports = [], []
    for graph, batch, resolution in cases:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        res = graph.resolution if resolution is None else resolution
        if res < 0:  # zero makes an empty input, which the forward refuses by its shape
            raise ValueError(f"resolution must not be negative, got {res}")
        twin = graph.static_twin()
        x = np.random.default_rng(seed).normal(size=(batch, graph.input_channels, res, res))
        runs.append(((graph, twin), x))
        reports.append(BenchReport(Timing(graph.name, []), Timing(twin.name, []), batch, res))
    for i in range(warmup + repeats):
        for ((graph, twin), x), report in zip(runs, reports):
            for model, timing in ((graph, report.dynamic), (twin, report.static)):
                times = time_forward(model, x, repeats=1, warmup=1).times
                if i >= warmup:
                    timing.times += times
    return reports


def bench_pair(
    graph,
    batch: int = 1,
    resolution: int | None = None,
    repeats: int = 20,
    warmup: int = 3,
    seed: int = 0,
) -> BenchReport:
    """Time `graph` against its static twin on the same random input."""
    return bench_pairs([(graph, batch, resolution)], repeats=repeats, warmup=warmup, seed=seed)[0]
