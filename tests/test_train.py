import gc
import math

import numpy as np
import pytest

from dynconv import autodiff as ad
from dynconv import tensor as T
from dynconv import train as train_module
from dynconv.config import ConfigError, RunConfig
from dynconv.task import Dataset, build_task_model, make_linear_control
from dynconv.train import CSV_HEADER, SGD, evaluate, lr_at, run_sweep, train


def test_step_schedule_matches_closed_form():
    cfg = RunConfig(lr=0.5, schedule="step", step_size=2, gamma=0.1, epochs=6)
    got = [lr_at(cfg, e) for e in range(6)]
    want = [0.5 * 0.1 ** (e // 2) for e in range(6)]
    assert got == want


def test_cosine_schedule_matches_closed_form():
    cfg = RunConfig(lr=0.8, schedule="cosine", epochs=10)
    for e in (0, 3, 5, 10):
        assert lr_at(cfg, e) == 0.8 * 0.5 * (1.0 + math.cos(math.pi * e / 10))
    assert lr_at(cfg, 0) == 0.8
    assert abs(lr_at(cfg, 10)) < 1e-16


def test_sgd_momentum_two_steps_by_hand():
    p = ad.Parameter("p", np.array([1.0, 2.0]))
    opt = SGD([p], momentum=0.9)
    opt.step({p: np.array([0.5, 0.0])}, lr=0.1)
    # v1 = 0.5 -> p = 1 - 0.05
    assert np.allclose(p.value, [0.95, 2.0])
    opt.step({p: np.array([0.25, 0.0])}, lr=0.1)
    # v2 = 0.9*0.5 + 0.25 = 0.7 -> p = 0.95 - 0.07
    assert np.allclose(p.value, [0.88, 2.0])


def test_sgd_skips_parameters_without_gradients():
    p = ad.Parameter("p", np.array([1.0]))
    q = ad.Parameter("q", np.array([5.0]))
    opt = SGD([p, q], momentum=0.9)
    opt.step({p: np.array([1.0])}, lr=0.5)
    assert q.value[0] == 5.0 and p.value[0] == 0.5


def _tiny():
    tr, va = make_linear_control(n_train=48, n_val=16, seed=0)
    model = build_task_model(kind="static", seed=0)
    return model, tr, va


def test_zero_epochs_emits_header_and_initial_row_only(tmp_path):
    model, tr, va = _tiny()
    cfg = RunConfig(epochs=0, batch=16, seed=0)
    path = tmp_path / "m.csv"
    result = train(model, tr, va, cfg, csv_path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("0,")
    assert len(result.rows) == 1 and not result.aborted


def test_training_reduces_loss_and_logs_one_row_per_epoch(tmp_path):
    model, tr, va = _tiny()
    cfg = RunConfig(lr=0.3, epochs=4, batch=16, seed=0)
    path = tmp_path / "m.csv"
    result = train(model, tr, va, cfg, csv_path=path)
    assert len(result.rows) == 5  # initial row + 4 epochs
    assert result.rows[-1][1] < result.rows[0][1]  # train loss fell
    lines = path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["epoch", "0", "1", "2", "3", "4"]


def test_same_seed_training_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        model, tr, va = _tiny()
        cfg = RunConfig(lr=0.3, epochs=3, batch=16, seed=0)
        path = tmp_path / f"{name}.csv"
        train(model, tr, va, cfg, csv_path=path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_different_seed_changes_trajectory(tmp_path):
    outs = []
    for seed in (0, 1):
        model, tr, va = _tiny()
        cfg = RunConfig(lr=0.3, epochs=3, batch=16, seed=seed)
        path = tmp_path / f"s{seed}.csv"
        train(model, tr, va, cfg, csv_path=path)
        outs.append(path.read_bytes())
    assert outs[0] != outs[1]


def test_divergence_aborts_and_records_position(tmp_path):
    model, tr, va = _tiny()
    cfg = RunConfig(lr=1e25, epochs=3, batch=16, seed=0)
    path = tmp_path / "diverge.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(model, tr, va, cfg, csv_path=path)
    assert result.aborted
    assert result.abort_epoch is not None and result.abort_step is not None
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) >= 2  # partial log still written


def test_abort_records_the_layer_whose_output_went_non_finite(monkeypatch):
    tr, va = make_linear_control(n_train=64, n_val=32, seed=0)
    cfg = RunConfig(lr=1e25, epochs=3, batch=16, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(build_task_model(kind="static", seed=0), tr, va, cfg)
    assert result.aborted and result.abort_layer == "mix"
    # a non-finite loss with finite layer outputs names no layer
    monkeypatch.setattr(train_module, "_batch_grads", lambda graph, x, y: (math.nan, 0, {}))
    result = train(build_task_model(kind="static", seed=0), tr, va, cfg)
    assert result.aborted and (result.abort_epoch, result.abort_step, result.abort_layer) == (1, 0, None)


def test_a_gradient_overflow_under_a_finite_loss_aborts_naming_its_layer():
    """Inputs of ~1e200 through a mix kernel of ~1e-200 (no batch norm) and a
    classifier of ~1e200 keep every value and the loss finite, but the mix
    weight gradient is ~1e400."""
    tr, va = make_linear_control(n_train=32, n_val=16, seed=0)
    graph = build_task_model(kind="static", seed=0)
    layers = {layer.name: layer for layer, *_ in graph.iter_layers()}
    layers["mix"].bn = None
    T.write_state(layers["mix"].weight.value, layers["mix"].weight.value * 1e-200)
    T.write_state(layers["fc"].weight.value, layers["fc"].weight.value * 1e200)
    tr, va = (Dataset(d.inputs * 1e200, d.labels) for d in (tr, va))
    with np.errstate(over="ignore"):
        result = train(graph, tr, va, RunConfig(lr=0.1, epochs=1, batch=16, seed=0))
    assert result.aborted and (result.abort_epoch, result.abort_step, result.abort_layer) == (1, 0, "mix")


def test_non_finite_initial_evaluation_aborts_at_epoch_0(tmp_path):
    tr, va = make_linear_control(n_train=64, n_val=32, seed=0)
    model = build_task_model(kind="dcd", seed=0)
    layer = next(layer for layer, role, *_ in model.iter_layers() if role == "mix")
    T.write_state(layer.w0.value, np.nan, (0, 0))
    path = tmp_path / "nan.csv"
    result = train(model, tr, va, RunConfig(lr=0.1, epochs=2, batch=16, seed=0), csv_path=path)
    assert result.aborted and (result.abort_epoch, result.abort_step, result.abort_layer) == (0, 0, "mix")
    assert result.rows == [] and path.read_text() == CSV_HEADER + "\n"


def test_evaluate_accuracy_is_fraction_correct():
    model, tr, _ = _tiny()
    loss, acc = evaluate(model, tr, batch=16)
    logits = np.asarray(model.forward(tr.inputs, train=False))
    expect = float((np.argmax(logits, axis=1) == tr.labels).mean())
    assert abs(acc - expect) < 1e-12
    assert loss > 0.0


def test_run_sweep_writes_per_run_and_summary_csvs(tmp_path):
    cfg = RunConfig(task={"task.n_train": "64", "task.n_val": "32"}, lr=0.2, epochs=1, batch=32, seed=0)
    results = run_sweep(tmp_path, seeds=(0,), arms=("static", "dcd"), cfg=cfg)
    assert set(results) == {"static", "dcd"}
    assert (tmp_path / "static_seed0.csv").exists()
    assert (tmp_path / "dcd_seed0.csv").exists()
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0] == "arm,seed,final_val_acc"
    assert len(summary) == 3


def test_removed_workers_key_is_rejected_by_name():
    with pytest.raises(ConfigError, match="train.workers"):
        RunConfig.from_mapping({"train.workers": "2"})


def test_training_step_frees_its_tape_without_the_cycle_collector():
    tr, va = make_linear_control(n_train=16, n_val=8, seed=0)
    model = build_task_model(kind="dcd", seed=0)
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, ad.Node) for o in gc.get_objects())
        train(model, tr, va, RunConfig(epochs=1, batch=16, seed=0))
        after = sum(isinstance(o, ad.Node) for o in gc.get_objects())
    finally:
        gc.enable()
    assert after == before


@pytest.mark.parametrize("blocks", [1, 2])
def test_training_step_tape_size_does_not_grow_with_the_batch(blocks):
    """Neither DCD plan has a per-sample loop, so one step records the same
    number of tape nodes at batch 8 and at batch 32; the count is pinned, so
    splitting a fused op shows here.  The pointwise layer materialises W(x)
    at 16×16 in three ops (Qᵀ, the kernel, its conv), three fewer than the
    block-sparse layer's factored plan (W0's view and conv, Qᵀ, the latent
    chain, Λ's view and the tail)."""
    tr, _ = make_linear_control(n_train=32, n_val=8, seed=0)
    model = build_task_model(kind="dcd", sparse_blocks=blocks, seed=0)
    sizes = []
    for n in (8, 32):
        tape = ad.Tape()
        logits = model.forward(tape.leaf(tr.inputs[:n]), train=True)
        ad.backward(ad.cross_entropy(logits, tr.labels[:n]))
        sizes.append(len(tape.nodes))
        tape.nodes.clear()
    assert sizes == ([29, 29] if blocks == 1 else [32, 32])
