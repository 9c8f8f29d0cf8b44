"""Minibatch SGD training loop with momentum, LR schedules, and CSV logging.

Conventions:

* momentum update: ``v <- momentum * v + g``; ``p <- p - lr * v``, written
  into the parameter's own array.
* ``step`` schedule: ``lr = base * gamma ** (epoch // step_size)``;
  ``cosine``: ``lr = base * 0.5 * (1 + cos(pi * epoch / epochs))`` — both
  evaluated at the 0-based index of the epoch being trained.
* The metrics CSV has header ``epoch,train_loss,train_acc,val_loss,val_acc,lr``.
  Epoch 0 is an evaluation-only row taken before any update; training rows
  follow, one per completed epoch.  With ``epochs = 0`` the file contains the
  header and the initial row only.
* A non-finite training loss, parameter gradient or evaluation aborts the
  run: the offending epoch/step (epoch 0 for the initial evaluation), and
  the layer when a layer's values or one of its parameter gradients went
  non-finite first, are recorded, rows collected so far are still written,
  and no further updates are applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import tensor as T
from .config import ConfigError, RunConfig
from .models import build_from_config
from .task import Dataset, make_task_from_config

CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc,lr"


def lr_at(cfg: RunConfig, epoch: int) -> float:
    if cfg.schedule == "step":
        return cfg.lr * cfg.gamma ** (epoch // cfg.step_size)
    span = max(cfg.epochs, 1)
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * epoch / span))


class SGD:
    def __init__(self, params: list[ad.Parameter], momentum: float = 0.9):
        self.params = params
        self.momentum = momentum
        self.velocity = {id(p): np.zeros_like(p.value) for p in params}

    def step(self, grads: dict[ad.Parameter, np.ndarray], lr: float) -> None:
        """Update the velocities, then every parameter with a gradient in
        place, all through one `tensor.write_states` call."""
        stepped = []
        for p in self.params:
            g = grads.get(p)
            if g is None:
                continue
            v = self.velocity[id(p)]
            v *= self.momentum
            v += g
            stepped.append((p.value, v))

        def write():
            for value, v in stepped:
                value -= lr * v

        T.write_states([value for value, _ in stepped], write)


def evaluate(graph, data: Dataset, batch: int = 64) -> tuple[float, float]:
    """(mean loss, accuracy) over a dataset in inference mode."""
    total_loss, correct = 0.0, 0
    for x, y in data.batches(batch):
        logits = ad.value_of(graph.forward(x, train=False))
        total_loss += float(ad.cross_entropy(logits, y)) * len(y)
        correct += int((np.argmax(logits, axis=1) == y).sum())
    n = len(data)
    return total_loss / n, correct / n


@dataclass
class TrainResult:
    rows: list[tuple] = field(default_factory=list)
    aborted: bool = False
    abort_epoch: int | None = None
    abort_step: int | None = None
    abort_layer: str | None = None  # None when only the loss is non-finite
    final_train_acc: float = 0.0
    final_val_acc: float = 0.0

    def csv_text(self) -> str:
        lines = [CSV_HEADER]
        for epoch, tl, ta, vl, va, lr in self.rows:
            lines.append(
                f"{epoch},{tl:.6f},{ta:.6f},{vl:.6f},{va:.6f},{lr:.8g}"
            )
        return "\n".join(lines) + "\n"


def _batch_grads(graph, x, y):
    """(mean loss, correct count, gradients) for one training batch."""
    tape = ad.Tape()
    logits = graph.forward(tape.leaf(x), train=True)
    loss = ad.cross_entropy(logits, y)
    grads = ad.backward(loss)
    # Node.tape <-> Tape.nodes is a cycle; breaking it frees the step's
    # activations and VJP closures now instead of at the next gc pass
    tape.nodes.clear()
    correct = int((np.argmax(ad.value_of(logits), axis=1) == y).sum())
    return float(ad.value_of(loss)), correct, grads


def train(
    graph,
    train_set: Dataset,
    val_set: Dataset,
    cfg: RunConfig,
    csv_path: str | Path | None = None,
) -> TrainResult:
    result = TrainResult()
    opt = SGD(graph.parameters(), momentum=cfg.momentum)

    def record(epoch: int, tl: float, ta: float, lr: float) -> None:
        vl, va = evaluate(graph, val_set, cfg.batch)
        result.rows.append((epoch, tl, ta, vl, va, lr))
        result.final_train_acc, result.final_val_acc = ta, va

    epoch, step = -1, 0  # epoch -1 is the initial evaluation, recorded as abort epoch 0
    try:
        tl0, ta0 = evaluate(graph, train_set, cfg.batch)
        record(0, tl0, ta0, lr_at(cfg, 0))
        for epoch in range(cfg.epochs):
            lr = lr_at(cfg, epoch)
            order = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, epoch))
            ).permutation(len(train_set))
            loss_sum, correct, step = 0.0, 0, 0
            for x, y in train_set.batches(cfg.batch, order):
                value, batch_correct, grads = _batch_grads(graph, x, y)
                if not math.isfinite(value):
                    raise T.NonFiniteError("training loss is not finite")
                opt.step(grads, lr)
                loss_sum += value * len(y)
                correct += batch_correct
                step += 1
            record(epoch + 1, loss_sum / len(train_set), correct / len(train_set), lr)
    except T.NonFiniteError as exc:
        result.aborted = True
        result.abort_epoch, result.abort_step, result.abort_layer = epoch + 1, step, exc.layer

    if csv_path is not None:
        Path(csv_path).write_text(result.csv_text())
    return result


SWEEP_ARMS = {  # arm -> the model.* keys that set it apart
    "static": {"model.kind": "static"},
    "dcd": {"model.kind": "dcd"},
    "vanilla_tau1": {"model.kind": "vanilla", "model.tau": "1.0"},
    "vanilla_tau30": {"model.kind": "vanilla", "model.tau": "30.0"},
}


def run_sweep(
    out_dir: str | Path,
    seeds: tuple[int, ...] = (0, 1, 2),
    arms: tuple[str, ...] = tuple(SWEEP_ARMS),
    cfg: RunConfig | None = None,
) -> dict[str, list[float]]:
    """Train every (arm, seed) pair, each built like a single run from
    ``cfg.model`` plus the arm's keys, as a ``task`` model, and ``cfg.task``
    made for that model.

    Writes one metrics CSV per run plus ``summary.csv`` with the final
    validation accuracy of each run; returns arm -> per-seed accuracies.
    """
    cfg = cfg or RunConfig(epochs=20, lr=0.2, batch=32)
    family = cfg.model.get("model.family", "task")
    if family != "task":
        raise ConfigError(f"the sweep trains task models, not model.family = {family}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results: dict[str, list[float]] = {arm: [] for arm in arms}
    summary = ["arm,seed,final_val_acc"]
    for arm in arms:
        for seed in seeds:
            model = build_from_config(cfg.model | {"model.family": "task"} | SWEEP_ARMS[arm]
                                      | {"model.seed": str(seed)})
            train_set, val_set = make_task_from_config(cfg.task | {"task.seed": str(seed)}, model)
            res = train(model, train_set, val_set, replace(cfg, seed=seed),
                        csv_path=out / f"{arm}_seed{seed}.csv")
            results[arm].append(res.final_val_acc)
            summary.append(f"{arm},{seed},{res.final_val_acc:.6f}")
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    return results
