"""Wall-clock comparison of a dynamic model against its static twin, and
of this source tree against another.

Times eval forwards at given batch sizes and input resolutions, in rounds
that alternate the models, excluding warmup rounds.  `BenchReport.row` gives
each side's median, quartiles and 95th percentile and the dynamic/static
ratio of medians; `environment` gives what the timings ran with: numpy and
its BLAS, the BLAS thread count, the contraction worker count, the CPU count
and a source hash.  `bench_against` times the same cases built by this tree
and by another one, which `load_tree` imports into the same process, and
gives per case the change/parent ratio of medians and the rounds each side
won: between processes on a shared host a median moves by more than a 10 %
change.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import sys
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
    return {"numpy": np.__version__, "blas": blas_name, "blas_threads": T.blas_threads(),
            "contraction_workers": T.contraction_workers(), "cpus": T.usable_cpus(),
            "src_sha256": source_hash(Path(__file__).resolve().parent)}


def source_hash(package: Path) -> str:
    """SHA-256 prefix of a package directory's ``*.py`` files, by name and content."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def load_tree(root: Path):
    """The ``cli`` module of the `dynconv` package in ``root/src/dynconv``,
    imported under a private name, so that the other tree's modules keep
    their own state epoch, kept values and worker pool beside this one's.
    The tree itself loads as a second copy: the A/A control."""
    package = Path(root) / "src" / "dynconv"
    if not (package / "__init__.py").is_file():
        raise ValueError(f"--against {root}: no src/dynconv package there")
    name = f"_dynconv_{source_hash(package)}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                      submodule_search_locations=[str(package)])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


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


def _case_input(graph, batch: int, resolution: int | None, seed: int) -> np.ndarray:
    """A case's random input: `batch` samples at `resolution` (None: the graph's own)."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    res = graph.resolution if resolution is None else resolution
    if res < 0:  # zero makes an empty input, which the forward refuses by its shape
        raise ValueError(f"resolution must not be negative, got {res}")
    return np.random.default_rng(seed).normal(size=(batch, graph.input_channels, res, res))


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
        x = _case_input(graph, batch, resolution, seed)
        runs.append((graph, graph.static_twin(), x, BenchReport(graph.name, x.shape[2], batch)))
    for i in range(warmup + repeats):
        for graph, twin, x, report in runs:
            dyn, static = _second_forward_s(graph, x), _second_forward_s(twin, x)
            if i >= warmup:
                report.dyn.append(dyn)
                report.twin.append(static)
    return [report for *_, report in runs]


def _draw_zeros(graph, rng: np.random.Generator) -> None:
    """Draw each all-zero parameter (the branches' second FCs, biases and
    batch-norm shifts) from `rng`, so that Λ(x) and Φ(x) vary with x."""
    for p in graph.parameters():
        if not p.value.any():
            p.value = rng.normal(size=p.value.shape) * 0.1


def _logits_match(a: np.ndarray, b: np.ndarray) -> str | float:
    """"bit-equal", or the largest difference relative to the largest |b|."""
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return "bit-equal"
    if a.shape != b.shape:
        return float("inf")
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), np.finfo(float).tiny))


def bench_against(cases, repeats: int = 20, warmup: int = 3, seed: int = 0) -> list[dict]:
    """Time each ``(graph, parent graph, batch, resolution)`` case, the same
    model built by this tree and by the parent tree from one seed, dyn and
    twin, on one random input per case (``resolution`` None: the graph's own).

    The all-zero parameters of both graphs are drawn from one stream
    (`_draw_zeros`), and each row says whether their logits are bit-equal.
    Each warmup and each repeat is a round over the cases; each case runs
    both trees, each tree its dyn graph then its twin, on the second of two
    forwards, and the tree that runs first alternates by round.  A row gives
    each side's summary in each tree, the change/parent ratio of medians,
    and in how many rounds the change was faster (ties count for neither).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    runs = []
    for graph, parent, batch, resolution in cases:
        x = _case_input(graph, batch, resolution, seed)
        for g in (graph, parent):
            _draw_zeros(g, np.random.default_rng(seed))
        logits = _logits_match(np.asarray(graph.forward(x)), np.asarray(parent.forward(x)))
        trees = [(graph, graph.static_twin()), (parent, parent.static_twin())]
        row = {"model": graph.name, "resolution": x.shape[2], "batch": batch, "logits": logits}
        runs.append((trees, x, row, [[[], []], [[], []]]))  # times[tree][side]
    for i in range(warmup + repeats):
        for trees, x, _, times in runs:
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                dyn, twin = (_second_forward_s(g, x) for g in trees[k])
                if i >= warmup:
                    times[k][0].append(dyn)
                    times[k][1].append(twin)
    rows = []
    for _, _, row, times in runs:
        row["repeats"] = repeats
        for s, side in enumerate(("dyn", "twin")):
            change, parent = _summary(times[0][s]), _summary(times[1][s])
            row[side] = {"change": change, "parent": parent, "ratio": change["median_s"] / parent["median_s"],
                         "won": sum(a < b for a, b in zip(times[0][s], times[1][s]))}
        rows.append(row)
    return rows
