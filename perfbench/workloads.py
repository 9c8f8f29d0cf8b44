"""The benchmark's three workloads and the checks on their outputs.

Each workload has a `setup(seed)` that builds everything a round needs and a
`round(state, index, rec)` that runs one closed-loop round: one caller, each
call awaited before the next.  Every input comes from the seed.  A round
records its timings and the outcome of every checked operation in a `Record`.

* ``train_sweep``: the four `train.SWEEP_ARMS` on the context-gated task,
  each trained from scratch and round-tripped through a checkpoint, with
  batch-1/batch-8 inference of the trained DCD arm against its static twin
  between arms.
* ``infer_resnet18``: ResNet-18-DCD (channel-only 3×3) against its twin.
* ``serve_mobilenetv2``: MobileNetV2-0.5-DCD (pw + cls) saved and restored
  into a model built from another seed during set-up, then served against
  its twin.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dynconv import checkpoint, counting, models, task, train
from dynconv.autodiff import value_of
from dynconv.config import RunConfig
from dynconv.layers import DcdConv
from speed import SPEED

BATCH = 8
# dyn and twin logits must differ by this share of the twin's largest |logit|;
# untrained MobileNetV2 logits are ~1e-8, so an absolute margin cannot work
REL_MARGIN = 1e-3


@dataclass
class Record:
    """Timings and operation outcomes of one measured stretch.

    `samples` hold timings normalised to the reference host speed (speed.py),
    `wall` the same timings as measured.
    """

    samples: dict[str, list[float]] = field(default_factory=dict)
    wall: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def add(self, key: str, value: float, wall: float) -> None:
        self.samples.setdefault(key, []).append(value)
        self.wall.setdefault(key, []).append(wall)

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def guarded(self, what: str, fn) -> None:
        """Run one operation; an exception counts it as failed."""
        try:
            problems = fn()
        except Exception as exc:  # the loop must go on and report the failure
            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc()
        self.op(what, problems)


def _finite(y: np.ndarray) -> list[str]:
    return [] if np.all(np.isfinite(y)) else ["non-finite logits"]


def forward(graph, x: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Eval-mode forward: (wall s, normalised s, logits)."""
    return SPEED.time(lambda: np.asarray(value_of(graph.forward(x, train=False))))


def inference_round(dyn, twin, x: np.ndarray, rec: Record,
                    b8_order: tuple[str, ...] = ("dyn", "twin")) -> tuple[float, float]:
    """Rows one at a time, then the whole batch, alternating dyn and twin;
    returns the (wall, normalised) seconds of its forwards.

    The batch forwards run in `b8_order`, which may repeat a model so that
    a run times its batch forward at more moments.
    Checks: finite logits, batch-8 logits bit-equal to the stacked batch-1
    logits, and dyn differing from twin by REL_MARGIN.
    """
    rows: dict[str, list[np.ndarray]] = {"dyn": [], "twin": []}
    full: dict[str, np.ndarray] = {}
    busy = [0.0, 0.0]

    def run(tag: str, graph, xs: np.ndarray) -> list[str]:
        wall, t, y = forward(graph, xs)
        rec.add(f"{tag}_b{len(xs)}", t, wall)
        busy[0] += wall
        busy[1] += t
        problems = _finite(y)
        if len(xs) == 1:
            rows[tag].append(y)
            return problems
        if not np.array_equal(y, np.concatenate(rows[tag])):
            problems.append("batch-8 logits differ from batch-1 rows")
        first = tag not in full
        full[tag] = y
        if first and len(full) == 2:
            ref = full["twin"]
            gap = np.max(np.abs(full["dyn"] - ref)) / max(np.max(np.abs(ref)), np.finfo(float).tiny)
            if not gap > REL_MARGIN:
                problems.append(f"dyn and twin logits differ by {gap:.3g} relative (need > {REL_MARGIN})")
        return problems

    graphs = {"dyn": dyn, "twin": twin}
    for i in range(len(x)):
        for tag, graph in graphs.items():
            rec.guarded(f"{tag} b1 row {i}", lambda: run(tag, graph, x[i : i + 1]))
    if len(rows["dyn"]) == len(rows["twin"]) == len(x):
        for tag in b8_order:
            rec.guarded(f"{tag} b{len(x)}", lambda: run(tag, graphs[tag], x))
    return busy[0], busy[1]


def seed_branches(graph, rng: np.random.Generator) -> None:
    """Give every DCD branch's zero-initialized second FC seeded values, so
    Λ ≠ 1 and Φ ≠ 0 as in a trained model."""
    for layer, *_ in graph.iter_layers():
        if isinstance(layer, DcdConv):
            b = layer.branch
            bound = 1.0 / np.sqrt(b.squeeze)
            b.w2.value = rng.uniform(-bound, bound, size=b.w2.value.shape)
            b.b2.value = rng.uniform(-bound, bound, size=b.b2.value.shape)


def state_problems(a, b) -> list[str]:
    sa, sb = a.state_items(), b.state_items()
    same = len(sa) == len(sb) and all(
        na == nb and np.array_equal(va, vb) for (na, va), (nb, vb) in zip(sa, sb)
    )
    return [] if same else ["checkpoint round trip is not bit-exact"]


def counted_ratio(dyn, twin) -> float:
    """Counted per-sample MAdds of the dynamic model over its twin's."""
    return (counting.count_model(dyn, dyn.resolution).total_madds
            / counting.count_model(twin, twin.resolution).total_madds)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, salt)))


# ---------------------------------------------------------------------------


ARMS = {  # train.SWEEP_ARMS as build_task_model arguments
    "static": {"kind": "static"},
    "dcd": {"kind": "dcd"},
    "vanilla_tau1": {"kind": "vanilla", "tau": 1.0},
    "vanilla_tau30": {"kind": "vanilla", "tau": 30.0},
}


@dataclass
class TrainSweep:
    """Criterion-8 recipe (lr 0.2, batch 32, cosine) at a fixed epoch count."""

    scratch: Path
    n_train: int = 512
    n_val: int = 256
    epochs: int = 2
    passes_per_arm: int = 25  # inference rounds after the dcd arm and each later arm

    def arm_model(self, arm: str, seed: int):
        return task.build_task_model(seed=seed, **ARMS[arm])

    def setup(self, seed: int) -> dict:
        train_set, val_set = task.make_context_gated(n_train=self.n_train, n_val=self.n_val, seed=seed)
        return {"seed": seed, "train": train_set, "val": val_set,
                "arms": {arm: self.arm_model(arm, seed) for arm in train.SWEEP_ARMS}}

    def round(self, st: dict, index: int, rec: Record) -> None:
        seed = st["seed"]
        arms = st["arms"] if index == 0 else {a: self.arm_model(a, seed) for a in train.SWEEP_ARMS}
        cfg = RunConfig(epochs=self.epochs, lr=0.2, batch=32, seed=seed)
        x = st["val"].inputs[:BATCH]
        busy = [0.0, 0.0]  # wall and normalised seconds in train()
        pair = None
        for arm, model in arms.items():
            def run(arm=arm, model=model):
                wall, t, res = SPEED.time(train.train, model, st["train"], st["val"], cfg)
                busy[0] += wall
                busy[1] += t
                problems = []
                if res.aborted:
                    rec.bump("train.aborted_arms")
                    problems.append(f"aborted at epoch {res.abort_epoch} step {res.abort_step}")
                elif not res.rows[-1][1] < res.rows[0][1]:
                    problems.append(f"final train loss {res.rows[-1][1]:.4f} not below epoch-0 {res.rows[0][1]:.4f}")
                path = self.scratch / f"{arm}.ckpt"
                checkpoint.save_model(model, path)
                fresh = self.arm_model(arm, seed + 1)
                checkpoint.load_into(fresh, path)
                ck = state_problems(model, fresh)
                *_, y0 = forward(model, x)
                *_, y1 = forward(fresh, x)
                if not np.array_equal(y0, y1):
                    ck.append("restored model logits differ")
                if ck:
                    rec.bump("checkpoint.errors")
                return problems + ck
            rec.guarded(f"arm {arm}", run)
            if arm == "dcd":
                pair = (model, model.static_twin())
            # inference interleaved with training samples the machine at more moments than one block would
            for _ in range(self.passes_per_arm if pair else 0):
                inference_round(*pair, x, rec)
        work = len(arms) * self.epochs * len(st["train"])
        rec.add("samples_per_s", work / busy[1], work / busy[0])
        st["pair"] = pair


@dataclass
class Inference:
    """A dynamic zoo model against its static twin at batch 1 and 8."""

    build: object  # seed -> ModelGraph
    scratch: Path
    b8_order: tuple[str, ...] = ("dyn", "twin")
    round_trip: bool = False

    def setup(self, seed: int) -> dict:
        dyn = self.build(seed)
        seed_branches(dyn, _rng(seed, 1))
        rec = Record()
        if self.round_trip:
            path = self.scratch / "serve.ckpt"
            checkpoint.save_model(dyn, path)
            served = self.build(seed + 1)
            checkpoint.load_into(served, path)
            problems = state_problems(dyn, served)
            if problems:
                rec.bump("checkpoint.errors")
            rec.op("checkpoint round trip", problems)
            dyn = served
        twin = dyn.static_twin()
        x = _rng(seed, 2).normal(size=(BATCH, dyn.input_channels, dyn.resolution, dyn.resolution))
        for graph in (dyn, twin):  # first forwards belong to set-up
            forward(graph, x[:1])
        return {"pair": (dyn, twin), "x": x, "setup_record": rec}

    def round(self, st: dict, index: int, rec: Record) -> None:
        wall, t = inference_round(*st["pair"], st["x"], rec, self.b8_order)
        images = (2 + len(self.b8_order)) * len(st["x"])  # each row alone for dyn and twin, then the batches
        rec.add("samples_per_s", images / t, images / wall)


def make_workloads(scratch: Path, resolution: int = 32, resnet_depth: int = 18, num_classes: int = 1000,
                   train_kw: dict | None = None) -> dict:
    """The workloads by name, writing checkpoints under `scratch`; tests pass smaller sizes."""
    return {
        "train_sweep": TrainSweep(scratch, **(train_kw or {})),
        "infer_resnet18": Inference(
            lambda seed: models.build_resnet(resnet_depth, dcd="channel_only_3x3", num_classes=num_classes,
                                             resolution=resolution, seed=seed),
            scratch=scratch, b8_order=("twin", "dyn", "twin")),
        "serve_mobilenetv2": Inference(
            lambda seed: models.build_mobilenetv2(width=0.5, placement=("pw", "cls"), num_classes=num_classes,
                                                  resolution=resolution, seed=seed),
            scratch=scratch, b8_order=("twin", "dyn", "twin", "dyn", "twin"), round_trip=True),
    }
