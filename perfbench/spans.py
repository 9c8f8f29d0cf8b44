"""In-memory spans around calls into dynconv's public functions.

A `Tracer` patches the module attributes and class methods listed in
`Tracer.__enter__`, records one span per call, and restores every original
on exit.  A span is ``[name, start, end, parent, run_id, track]``: `parent`
is the index of the innermost span open when it started, `run_id` the id of
the traced run it belongs to.

Spans live on three tracks, and self time subtracts only descendants on the
same track:

* ``call``: the benchmark's own phases and every dynconv call boundary
  (training, checkpoints, layer forwards, backward).  Its self times
  partition the traced wall time.
* ``kernel``: ``tensor.*`` kernels.  They nest inside call spans without
  subtracting from them, so a layer's self time includes the kernels it runs.
* ``phase``: sub-phases measured inclusively (``weight_for``,
  ``train.evaluate``), which likewise do not subtract from their parent.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from dynconv import autodiff, checkpoint, counting, layers, task, tensor, train

LAYER_KINDS = ("dcd_kxk", "dcd_pointwise", "dcd_classifier", "vanilla", "static_dense", "static_depthwise")
DYNAMIC_KINDS = LAYER_KINDS[:4]


def layer_kind(layer, h_in: int) -> str:
    """Per-layer metric family of one conv layer at input size `h_in`."""
    if isinstance(layer, layers.DcdConv):
        if layer.variant in ("pointwise", "block_sparse"):
            return "dcd_classifier" if h_in == 1 else "dcd_pointwise"
        return "dcd_kxk"
    if isinstance(layer, layers.VanillaDynConv):
        return "vanilla"
    return "static_depthwise" if layer.groups > 1 else "static_dense"


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its nearest same-track descendants cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, track in spans:
        while parent is not None and spans[parent][5] != track:
            parent = spans[parent][3]
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, covered)]


class Tracer:
    """Context manager that traces dynconv calls while it is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._madds_cache: dict[tuple[int, int], int] = {}

    # -- spans -------------------------------------------------------------

    def open(self, name: str, track: str = "call") -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.run_id, track])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _enclosing_call(self) -> str:
        for idx in reversed(self._stack):
            if self.spans[idx][5] == "call":
                return self.spans[idx][0]
        return "none"

    # -- patching ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name, track: str = "call", after=None, errors: str | None = None):
        """Replace owner.attr by a span-recording wrapper.

        `name` is a string or a function of the call arguments; `after(args,
        out)` updates counters once the call returns; `errors` names the
        counter bumped when the call raises.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name(args) if callable(name) else name, track)
            try:
                out = original(*args, **kwargs)
            except Exception:
                if errors:
                    tracer.counters[errors] += 1
                raise
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def _layer_name(self, args) -> str:
        layer, x = args[0], args[1]
        n, _, h, _ = autodiff.value_of(x).shape
        key = (id(layer), h)
        if key not in self._madds_cache:
            self._madds_cache[key] = counting.layer_madds(layer, h)[0]
        name = f"layers.{layer_kind(layer, h)}"
        self.counters[f"{name}.counted_madds"] += self._madds_cache[key] * n
        return name

    def _count(self, key: str, fn):
        def after(args, out):
            self.counters[key] += fn(args, out)
        return after

    def __enter__(self) -> "Tracer":
        c = self._count
        self._wrap(tensor, "matmul", "tensor.matmul", "kernel",
                   c("tensor.matmul.madds", lambda a, o: a[0].shape[0] * a[0].shape[1] * a[1].shape[1]))
        self._wrap(tensor, "im2col", "tensor.im2col", "kernel", c("tensor.im2col.bytes", lambda a, o: o.nbytes))
        self._wrap(tensor, "conv2d", "tensor.conv2d", "kernel")
        self._wrap(autodiff, "backward", "autodiff.backward",
                   after=c("autodiff.tape_nodes_total", lambda a, o: len(a[0].tape.nodes)))
        for cls in (layers.DcdConv, layers.StaticConv, layers.VanillaDynConv):
            self._wrap(cls, "forward", self._layer_name, errors="layers.errors")
        for cls in (layers.DcdConv, layers.VanillaDynConv):
            self._wrap(cls, "weight_for", lambda a: f"{self._enclosing_call()}.weight_for", "phase")
        self._wrap(layers.BatchNorm2d, "forward", "layers.batchnorm", errors="layers.errors")
        self._wrap(train, "evaluate", "train.evaluate", "phase")
        self._wrap(train, "train", "train.train")
        self._wrap(train.SGD, "step", "train.sgd_step")
        self._wrap(checkpoint, "save_checkpoint", "checkpoint.save",
                   after=c("checkpoint.bytes", lambda a, o: os.path.getsize(a[0])), errors="checkpoint.errors")
        self._wrap(checkpoint, "load_checkpoint", "checkpoint.load",
                   after=c("checkpoint.bytes", lambda a, o: os.path.getsize(a[0])), errors="checkpoint.errors")
        self._wrap(checkpoint, "fnv1a64", "checkpoint.fnv1a64")
        self._wrap(task, "make_context_gated", "task.make_context_gated")
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """(calls, self seconds) per span name."""
        calls: dict[str, int] = defaultdict(int)
        selfs: dict[str, float] = defaultdict(float)
        for span, s in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            selfs[span[0]] += s
        return calls, selfs

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "run_id", "track")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer_metrics(tracer: Tracer, runs: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the models.* and trace.* ones, per traced run."""
    calls, selfs = tracer.totals()
    ctr = tracer.counters
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (value / runs, unit)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    for fn in ("matmul", "im2col", "conv2d"):
        put(f"tensor.{fn}.calls", calls[f"tensor.{fn}"], "count")
        put(f"tensor.{fn}.self_s", selfs[f"tensor.{fn}"], "s")
    put("tensor.matmul.madds", ctr["tensor.matmul.madds"], "count")
    out["tensor.matmul.madds_per_s"] = (rate(ctr["tensor.matmul.madds"], selfs["tensor.matmul"]), "1/s")
    put("tensor.im2col.bytes", ctr["tensor.im2col.bytes"], "B")

    put("autodiff.backward.calls", calls["autodiff.backward"], "count")
    put("autodiff.backward.self_s", selfs["autodiff.backward"], "s")
    out["autodiff.tape_nodes"] = (rate(ctr["autodiff.tape_nodes_total"], calls["autodiff.backward"]), "count")

    for kind in LAYER_KINDS:
        name = f"layers.{kind}"
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", selfs[name], "s")
        put(f"{name}.counted_madds", ctr[f"{name}.counted_madds"], "count")
        out[f"{name}.madds_per_s"] = (rate(ctr[f"{name}.counted_madds"], selfs[name]), "1/s")
        if kind in DYNAMIC_KINDS:
            put(f"{name}.weight_for_s", selfs[f"{name}.weight_for"], "s")
    put("layers.batchnorm.calls", calls["layers.batchnorm"], "count")
    put("layers.batchnorm.self_s", selfs["layers.batchnorm"], "s")
    put("layers.errors", ctr["layers.errors"], "count")

    put("train.evaluate.calls", calls["train.evaluate"], "count")
    put("train.evaluate.self_s", selfs["train.evaluate"], "s")
    put("train.sgd_step.self_s", selfs["train.sgd_step"], "s")

    ck_time = sum(selfs[f"checkpoint.{fn}"] for fn in ("save", "load", "fnv1a64"))
    for fn in ("save", "load", "fnv1a64"):
        put(f"checkpoint.{fn}.self_s", selfs[f"checkpoint.{fn}"], "s")
    put("checkpoint.bytes", ctr["checkpoint.bytes"], "B")
    out["checkpoint.mib_per_s"] = (rate(ctr["checkpoint.bytes"] / 2**20, ck_time), "MiB/s")
    put("task.make_context_gated.self_s", selfs["task.make_context_gated"], "s")
    return out


def module_shares(tracer: Tracer) -> dict[str, float]:
    """Call-track self seconds per module (first dotted component)."""
    shares: dict[str, float] = defaultdict(float)
    for span, s in zip(tracer.spans, self_times(tracer.spans)):
        if span[5] == "call":
            shares[span[0].split(".")[0]] += s
    return dict(shares)
