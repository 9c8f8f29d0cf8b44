"""One owner per tensor: `load_into`, `SGD.step` and a train-mode batch norm
write model state into the arrays `state_items()` lists, so views of them,
such as a static twin's kernel, stay live."""

import tracemalloc

import numpy as np
import pytest

import dynconv.autodiff as ad
from dynconv.checkpoint import load_checkpoint, load_into, save_model
from dynconv.config import RunConfig
from dynconv.layers import DcdConv, LatentDims, StaticConv
from dynconv.models import Block, GlobalPool, ModelGraph, build_mobilenetv2
from dynconv.task import build_task_model, make_context_gated
from dynconv.train import SGD, train


def _wake(graph, seed):
    """Nonzero second branch FCs, so Λ ≠ 1 and Φ ≠ 0."""
    rng = np.random.default_rng(seed + 100)
    for layer, *_ in graph.iter_layers():
        if isinstance(layer, DcdConv):
            layer.branch.w2.value[...] = rng.normal(size=layer.branch.w2.value.shape) * 0.3
            layer.branch.b2.value[...] = rng.normal(size=layer.branch.b2.value.shape) * 0.3
    return graph


def _task_dcd(seed):
    return _wake(build_task_model(kind="dcd", seed=seed), seed)


def _channel_only_3x3(seed):
    """Channel-only 3×3 DCD layer → pool → linear, on the task's 8 channels."""
    rng = np.random.default_rng(seed)
    mix = DcdConv("mix", 8, 8, k=3, variant="channel_only_kxk", dims=LatentDims(l=4), r=2.0,
                  padding=1, rng=rng)
    fc = StaticConv("fc", 8, 4, bias=True, with_bn=False, activation=None, rng=rng)
    steps = [(mix, "mix"), (GlobalPool("pool", 8), "global_pool"), (fc, "classifier")]
    return _wake(ModelGraph("channel_only_3x3", [Block(steps)], 8, 4, 8, {}), seed)


BUILDS = {"task_dcd": _task_dcd, "channel_only_3x3": _channel_only_3x3}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_twin_taken_before_a_load_or_an_epoch_equals_one_taken_after(build, tmp_path):
    train_set, val_set = make_context_gated(n_train=32, n_val=8, size=8, seed=0)
    x = val_set.inputs
    path = tmp_path / "m.ckpt"
    save_model(build(1), path)
    graph = build(0)
    early = graph.static_twin()

    load_into(graph, path)
    loaded = early.forward(x)
    assert np.array_equal(loaded, graph.static_twin().forward(x))
    assert not np.array_equal(loaded, build(0).static_twin().forward(x))

    train(graph, train_set, val_set, RunConfig(epochs=1, batch=8, lr=0.2))
    trained = early.forward(x)
    assert np.array_equal(trained, graph.static_twin().forward(x))
    assert not np.array_equal(trained, loaded)


def test_state_arrays_keep_their_identity_across_loads_steps_and_train_forwards(tmp_path):
    graph = _task_dcd(0)
    owners = [value for _, value in graph.state_items()]

    def changed_in_place(snapshot):
        items = graph.state_items()
        assert len(items) == len(owners)
        assert all(value is owner for (_, value), owner in zip(items, owners))
        return {name for (name, value), old in zip(items, snapshot) if not np.array_equal(value, old)}

    path = tmp_path / "m.ckpt"
    save_model(_task_dcd(1), path)
    snapshot = [a.copy() for a in owners]
    load_into(graph, path)
    assert "mix.w0" in changed_in_place(snapshot)

    train_set, _ = make_context_gated(n_train=8, n_val=1, size=8, seed=0)
    snapshot = [a.copy() for a in owners]
    tape = ad.Tape()
    logits = graph.forward(tape.leaf(train_set.inputs), train=True)
    assert changed_in_place(snapshot) == {"mix.bn.running_mean", "mix.bn.running_var"}

    snapshot = [a.copy() for a in owners]
    SGD(graph.parameters()).step(ad.backward(ad.cross_entropy(logits, train_set.labels)), lr=0.1)
    assert {"mix.w0", "mix.bn.gamma", "fc.weight"} <= changed_in_place(snapshot)


def test_load_checkpoint_returns_read_only_views_and_load_into_copies_once(tmp_path):
    path = tmp_path / "m.ckpt"
    save_model(build_mobilenetv2(width=0.35, placement=("pw", "cls"), num_classes=100,
                                 resolution=32, seed=1), path)
    assert not any(a.flags.writeable for a in load_checkpoint(path).values())
    graph = build_mobilenetv2(width=0.35, placement=("pw", "cls"), num_classes=100, resolution=32)
    tracemalloc.start()
    try:
        load_into(graph, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
