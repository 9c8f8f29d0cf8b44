"""One owner per tensor: `load_into`, `SGD.step` and a train-mode batch norm
write model state into the arrays `state_items()` lists, so views of them,
such as a static twin's kernel, stay live.  Those arrays are read-only and
every write goes through `tensor.write_state`, so a value kept from them (a
one-tap conv's tap, eval batch norm's scale and shift) is never served stale."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import dynconv.autodiff as ad
import dynconv.tensor as T
from dynconv.checkpoint import load_checkpoint, load_into, save_model
from dynconv.cli import resolve_model
from dynconv.config import RunConfig
from dynconv.gradcheck import finite_diff_check
from dynconv.layers import DcdConv, LatentDims, StaticConv
from dynconv.models import Block, GlobalPool, ModelGraph, build_mobilenetv2
from dynconv.task import build_task_model, make_context_gated
from dynconv.train import SGD, train


def _wake(graph, seed):
    """Nonzero second branch FCs, so Λ ≠ 1 and Φ ≠ 0."""
    rng = np.random.default_rng(seed + 100)
    for layer, *_ in graph.iter_layers():
        if isinstance(layer, DcdConv):
            T.write_state(layer.branch.w2.value, rng.normal(size=layer.branch.w2.value.shape) * 0.3)
            T.write_state(layer.branch.b2.value, rng.normal(size=layer.branch.b2.value.shape) * 0.3)
    return graph


def _task_dcd(seed):
    return _wake(build_task_model(kind="dcd", seed=seed), seed)


def _channel_only_3x3(seed, l=4):
    """Channel-only 3×3 DCD layer → pool → linear, on the task's 8 channels."""
    rng = np.random.default_rng(seed)
    mix = DcdConv("mix", 8, 8, k=3, variant="channel_only_kxk", dims=LatentDims(l=l), r=2.0,
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


def _layers(graph):
    return {layer.name: layer for layer, *_ in graph.iter_layers()}


def _kept(array):
    """The values `tensor.kept` holds for the state array that owns `array`'s memory."""
    owner = array if array.base is None else array.base
    entry = T._owners.get(id(owner))
    return {} if entry is None or entry[0]() is not owner else entry[1]


def test_a_write_that_skips_the_writer_raises_the_read_only_error():
    graph = _channel_only_3x3(0)
    mix = _layers(graph)["mix"]
    twin_weight = _layers(graph.static_twin())["mix.static"].weight.value
    before = [a.copy() for _, a in graph.state_items()]
    with pytest.raises(ValueError, match="read-only"):
        mix.w0.value[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        mix.w0.value -= 0.1
    with pytest.raises(ValueError, match="read-only"):
        mix.bn.running_var[...] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        np.copyto(twin_weight, 0.0)
    assert all(np.array_equal(a, b) for (_, a), b in zip(graph.state_items(), before))


def test_assigning_a_parameter_value_or_a_running_buffer_locks_the_new_array():
    mix = _layers(_channel_only_3x3(0))["mix"]
    new, var = np.ones(mix.w0.value.shape), np.full(8, 2.0)
    epoch = T.state_epoch()
    mix.w0.value, mix.bn.running_var = new, var
    assert mix.w0.value is new and mix.bn.running_var is var
    assert not new.flags.writeable and not var.flags.writeable
    assert T.state_epoch() > epoch
    with pytest.raises(ValueError, match="read-only"):
        new[0] = 0.0


def _window_spy(monkeypatch):
    """The (kernel shape, ys, xs) of every window `tensor.conv2d` copies from a kernel."""
    windows, real = [], T._window
    monkeypatch.setattr(T, "_window", lambda w, ys, xs: windows.append((w.shape, ys, xs)) or real(w, ys, xs))
    return windows


def test_one_tap_kept_tap_is_made_once_for_a_dcd_layer_and_its_twin(monkeypatch):
    """On a 1×1 map the 3×3 W0 conv reads one tap; the twin's kernel is a
    view of the same W0, so both serve one kept tap until a state write."""
    graph = _channel_only_3x3(0)
    twin, x = graph.static_twin(), np.random.default_rng(0).normal(size=(2, 8, 1, 1))
    taps = _window_spy(monkeypatch)
    first = graph.forward(x)
    twin_out = twin.forward(x)
    assert np.array_equal(graph.forward(x), first) and np.array_equal(twin.forward(x), twin_out)
    assert taps == [((8, 8, 3, 3), range(1, 2), range(1, 2))] and len(_kept(_layers(graph)["mix"].w0.value)) == 1
    T.write_state(_layers(graph)["mix"].bn.beta.value, 0.5, 0)  # any write: the tap is made again
    graph.forward(x)
    assert taps == 2 * [((8, 8, 3, 3), range(1, 2), range(1, 2))]


def test_resnet18_stride_2_conv_into_stage_4_keeps_one_window_for_the_dcd_layer_and_its_twin(monkeypatch):
    """At 32×32, ResNet-18-DCD's `s4b0.conv1` (256→512, 3×3, stride 2, a
    2×2 map to 1×1) reads four real pixels through taps 1..2 × 1..2: it
    takes the window plan, and the DCD model and its twin serve one kept
    2×2 window of W0 until a state write."""
    graph = resolve_model("resnet18_dcd", seed=0, resolution=32)
    twin, x = graph.static_twin(), np.random.default_rng(0).normal(size=(1, 3, 32, 32))
    layer = _layers(graph)["s4b0.conv1"]
    assert T.conv_plan(2, 2, 1, 1, 512, 256, 1, 3, 3, 2, 1) == ("window", range(1, 3), range(1, 3))
    windows = _window_spy(monkeypatch)
    first, twin_out = graph.forward(x), twin.forward(x)
    assert np.array_equal(graph.forward(x), first) and np.array_equal(twin.forward(x), twin_out)
    w0 = [(shape, ys, xs) for shape, ys, xs in windows if shape == layer.w0.value.shape]
    assert w0 == [((512, 256, 3, 3), range(1, 3), range(1, 3))]
    assert [key[-2:] for key in _kept(layer.w0.value)] == [(range(1, 3), range(1, 3))]
    T.write_state(layer.bn.beta.value, 0.5, 0)  # any write: the window is made again
    twin.forward(x)
    assert [shape for shape, *_ in windows].count(layer.w0.value.shape) == 2


def _fresh(graph, build):
    """A model built anew with `graph`'s state: nothing kept from `graph` reaches it."""
    copy = build(99)
    for (_, dst), (_, src) in zip(copy.state_items(), graph.state_items()):
        T.write_state(dst, src)
    return copy


def _one_tap_1x1(seed):
    return _channel_only_3x3(seed), np.random.default_rng(5).normal(size=(4, 8, 1, 1)), "mix"


def _resnet10_dcd_32(seed):
    graph = resolve_model("resnet10_dcd", seed=seed, resolution=32)
    rng = np.random.default_rng(seed + 100)
    for layer, *_ in graph.iter_layers():
        if isinstance(layer, DcdConv):
            bound = 1.0 / np.sqrt(layer.branch.squeeze)
            layer.branch.w2.value = rng.uniform(-bound, bound, size=layer.branch.w2.value.shape)
    return graph, np.random.default_rng(5).normal(size=(2, 3, 32, 32)), "s4b0.conv2"


def _loss(graph, x):
    labels = np.arange(len(x)) % ad.value_of(graph.forward(x)).shape[1]
    return lambda: ad.cross_entropy(graph.forward(ad.Tape().leaf(x), train=False), labels)


def _load_other(graph, x, conv, build, tmp_path):
    save_model(build(1), tmp_path / "other.ckpt")
    load_into(graph, tmp_path / "other.ckpt")


def _sgd_step(graph, x, conv, build, tmp_path):
    SGD(graph.parameters()).step(ad.backward(_loss(graph, x)()), lr=0.5)


def _train_mode_batchnorm(graph, x, conv, build, tmp_path):
    graph.forward(ad.Tape().leaf(x), train=True)


def _reassign_w0(graph, x, conv, build, tmp_path):
    w0 = _layers(graph)[conv].w0
    w0.value = w0.value * 0.5


def _gradcheck(graph, x, conv, build, tmp_path):
    w0 = _layers(graph)[conv].w0  # every coordinate: the centre taps' numeric gradients need a fresh tap
    assert finite_diff_check(_loss(graph, x), [w0], max_coords=w0.value.size).passed


WRITERS = [_load_other, _sgd_step, _train_mode_batchnorm, _reassign_w0, _gradcheck]
INVALIDATION_CASES = [(build, writer) for build in (_one_tap_1x1, _resnet10_dcd_32) for writer in WRITERS
                      if not (build is _resnet10_dcd_32 and writer is _gradcheck)]


@pytest.mark.parametrize("build,writer", INVALIDATION_CASES,
                         ids=[f"{b.__name__[1:]}-{w.__name__[1:]}" for b, w in INVALIDATION_CASES])
def test_kept_one_tap_tap_and_batchnorm_pair_follow_every_writer(build, writer, tmp_path):
    """After a forward has kept its one-tap taps, batch-norm pairs and DCD
    layers' Qᵀ, each writer's change reaches the next forward of the model
    and of its twin bit for bit, as in a model built anew with the same
    state."""
    graph, x, conv = build(0)
    early = graph.static_twin()
    before = graph.forward(x), early.forward(x)
    layer = _layers(graph)[conv]
    assert len(_kept(layer.w0.value)) == 1
    assert list(_kept(layer.q.value)) == [("transpose", (0, 2, 1), (1, layer.c_in, layer.dims.l))]
    if build is _resnet10_dcd_32:  # and stage 4's stride-2 conv, 2×2 → 1×1, its 2×2 window
        assert [key[-2:] for key in _kept(_layers(graph)["s4b0.conv1"].w0.value)] == [(range(1, 3), range(1, 3))]
    writer(graph, x, conv, lambda seed: build(seed)[0], tmp_path)
    fresh = _fresh(graph, lambda seed: build(seed)[0])
    twins = [graph.static_twin()] + ([] if writer is _reassign_w0 else [early])  # `early` views the old W0
    assert np.array_equal(graph.forward(x), fresh.forward(x))
    for twin in twins:
        assert np.array_equal(twin.forward(x), fresh.static_twin().forward(x))
    if writer is not _gradcheck:  # which leaves the state as it found it
        assert not np.array_equal(graph.forward(x), before[0])
        assert not np.array_equal(twins[0].forward(x), before[1])


def test_kept_taps_keep_no_dropped_model_alive():
    graph, x, conv = _one_tap_1x1(0)
    twin = graph.static_twin()
    graph.forward(x), twin.forward(x)
    values = [_layers(graph)[conv].w0.value, _layers(graph)[conv].q.value]
    owners = [weakref.ref(v if v.base is None else v.base) for v in values]  # the arrays that own W0's and Q's memory
    assert [len(_kept(ref())) for ref in owners] == [1, 1]
    del graph, twin, values
    gc.collect()
    assert [ref() for ref in owners] == [None, None]
    assert all(ref() is not None for ref, _ in T._owners.values())


def test_kept_qt_of_one_latent_channel_keeps_no_dropped_model_alive():
    """With L = 1, Qᵀ has Q's memory layout; the kept value is still a copy,
    which holds no reference to Q."""
    graph = _channel_only_3x3(0, l=1)
    graph.forward(np.random.default_rng(5).normal(size=(4, 8, 3, 3)))
    q = _layers(graph)["mix"].q.value
    (qt,) = _kept(q).values()
    assert qt[1].base is None and np.array_equal(qt[1].ravel(), q.ravel())
    owner = weakref.ref(q)
    del graph, q, qt
    gc.collect()
    assert owner() is None


ZOO_IDS = ["task_static", "task_dcd", "task_vanilla", "resnet10", "resnet10_dcd", "mobilenetv2_x0.35",
           "mobilenetv2_x0.5_dcd"]


@pytest.mark.parametrize("zoo_id", ZOO_IDS)
def test_every_state_array_is_read_only_after_build_load_and_a_training_step(zoo_id, tmp_path):
    def read_only(graph):
        return [name for name, a in graph.state_items() + graph.static_twin().state_items() if a.flags.writeable]

    graph = resolve_model(zoo_id, seed=0, resolution=None if zoo_id.startswith("task") else 32)
    assert read_only(graph) == []
    save_model(resolve_model(zoo_id, seed=1, resolution=graph.resolution), tmp_path / "m.ckpt")
    load_into(graph, tmp_path / "m.ckpt")
    assert read_only(graph) == []
    x = np.random.default_rng(0).normal(size=(2, graph.input_channels, graph.resolution, graph.resolution))
    logits = graph.forward(ad.Tape().leaf(x), train=True)
    SGD(graph.parameters()).step(ad.backward(ad.cross_entropy(logits, np.array([0, 1]))), lr=0.1)
    assert read_only(graph) == []
