"""Wall-clock comparison of a dynamic model against its static twin, and
of this source tree against another, in one timing loop, `bench_rows`:
eval forwards at given batch sizes and input resolutions, in rounds that
alternate the models, excluding warmup rounds.  Between processes on a
shared host a median moves by more than a 10 % change, so `load_tree`
imports the other tree into this process, whose models then run round by
round beside this tree's.  `environment` gives what the timings ran with:
numpy and its BLAS, the BLAS thread count, the contraction worker count,
the CPU count and a source hash.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import inspect
import sys
import time
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
    The tree itself loads as a second copy: the A/A control.  A tree whose
    ``cli._model_from_args`` takes no ``name=``, by which each case's
    model is built, is refused."""
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
    cli = importlib.import_module(f"{name}.cli")
    build = getattr(cli, "_model_from_args", None)
    if build is None or "name" not in inspect.signature(build).parameters:
        raise ValueError(f"--against {root}: its cli._model_from_args takes no name=")
    return cli


def _summary(times: list[float]) -> dict[str, float]:
    """Median, quartiles and p95 in seconds."""
    q25, median, q75, p95 = np.percentile(times, [25, 50, 75, 95])
    return {"median_s": float(median), "q25_s": float(q25), "q75_s": float(q75), "p95_s": float(p95)}


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


def _draw_zeros(graph, rng: np.random.Generator) -> None:
    """Draw each all-zero parameter (the branches' second FCs, biases and
    batch-norm shifts) from `rng`, so that Λ(x) and Φ(x) vary with x."""
    for p in graph.parameters():
        if not p.value.any():
            p.value = rng.normal(size=p.value.shape) * 0.1


def _logits_match(a: np.ndarray, b: np.ndarray) -> str | float:
    """"bit-equal", or the largest difference relative to the largest |b|."""
    if a.shape != b.shape:
        return float("inf")
    if a.tobytes() == b.tobytes():
        return "bit-equal"
    return float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), np.finfo(float).tiny))


def bench_rows(cases, repeats: int = 20, warmup: int = 3, seed: int = 0) -> list[dict]:
    """One row per case, ``(graph, batch, resolution)`` or ``(graph, parent
    graph, batch, resolution)``, timed on one random input per case
    (``resolution`` None: the graph's own).

    A one-graph row gives each side's median, quartiles and p95, dyn (the
    graph) and twin (its static twin), and the dyn/twin ratio of medians.
    A two-graph case is the same model built by this tree and by the parent
    tree from one seed, with the all-zero parameters of both drawn from one
    stream (`_draw_zeros`); its row says whether their logits are bit-equal
    and gives per side each tree's summary, the change/parent ratio of
    medians and the rounds the change was faster in (ties count for neither).

    Each warmup and each repeat is a round over the cases: case by case,
    each tree runs its graph, then its twin, each timed on its second of two
    forwards, and with two trees the tree that runs first alternates by
    round.  A slow stretch of a shared host thus lands on all cases, sides
    and trees alike.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    runs = []
    for *graphs, batch, resolution in cases:
        x = _case_input(graphs[0], batch, resolution, seed)
        row = {"model": graphs[0].name, "resolution": x.shape[2], "batch": batch}
        if len(graphs) > 1:
            for g in graphs:
                _draw_zeros(g, np.random.default_rng(seed))
            row["logits"] = _logits_match(*(np.asarray(g.forward(x)) for g in graphs))
        row["repeats"] = repeats
        runs.append(([(g, g.static_twin()) for g in graphs], [([], []) for _ in graphs], x, row))
    for i in range(warmup + repeats):
        for pairs, times, x, _ in runs:
            trees = list(zip(pairs, times))
            for pair, (dyn, twin) in (trees if i % 2 == 0 else trees[::-1]):
                dyn_s, twin_s = (_second_forward_s(g, x) for g in pair)
                if i >= warmup:
                    dyn.append(dyn_s)
                    twin.append(twin_s)
    for _, times, _, row in runs:  # times[tree][side]
        for s, side in enumerate(("dyn", "twin")):
            change, *parent = (_summary(t[s]) for t in times)
            row[side] = change if not parent else {
                "change": change, "parent": parent[0], "ratio": change["median_s"] / parent[0]["median_s"],
                "won": sum(a < b for a, b in zip(times[0][s], times[1][s]))}
        if len(times) == 1:
            row["dyn_over_twin_median"] = row["dyn"]["median_s"] / row["twin"]["median_s"]
    return [row for *_, row in runs]
