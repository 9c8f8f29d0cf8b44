"""Model-zoo tests: architecture shape, budget table, static twins, and
config round-trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynconv
import dynconv.autodiff as ad
import dynconv.tensor as T
from dynconv.cli import resolve_model
from dynconv.counting import count_model, count_params
from dynconv.layers import DcdConv, StaticConv
from dynconv.models import (
    STATIC_INVARIANTS,
    GlobalPool,
    MaxPool2d,
    build_from_config,
    build_mobilenetv2,
    build_resnet,
    check_golden,
    golden_rows,
    make_divisible,
)
from dynconv.task import TASK_MODEL_KINDS, build_task_model


def _conv_layers(graph):
    return [(layer, role) for layer, role, *_ in graph.iter_layers()
            if isinstance(layer, (DcdConv, StaticConv))]


# ---------------------------------------------------------------------------
# building blocks


def test_make_divisible_rounding():
    assert make_divisible(32 * 0.5) == 16
    assert make_divisible(24 * 0.5) == 16      # rounds 12 up to 16
    assert make_divisible(24 * 0.35) == 8      # 8.4 stays at 8 (within 90%)
    assert make_divisible(32 * 0.35) == 16     # 11.2 → 8 < 90%, bumped to 16
    assert make_divisible(1280) == 1280


def test_max_pool_matches_naive_window_maximum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 9, 9))
    out = T.max_pool2d(x, 3, 2, 1)
    assert out.shape == (2, 3, 5, 5)
    padded = np.full((2, 3, 11, 11), -np.inf)
    padded[:, :, 1:10, 1:10] = x
    for n in range(2):
        for c in range(3):
            for i in range(5):
                for j in range(5):
                    window = padded[n, c, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
                    assert out[n, c, i, j] == window.max()


def test_pool_modules_shapes():
    mp = MaxPool2d("mp", 3, 2, 1)
    assert mp.out_size(56) == 28
    gp = GlobalPool("gp", 8)
    x = np.random.default_rng(1).normal(size=(2, 8, 4, 4))
    pooled = gp.forward(x)
    assert pooled.shape == (2, 8, 1, 1)
    np.testing.assert_allclose(pooled[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# architecture shape


def test_mobilenet_x05_channel_progression():
    graph = build_mobilenetv2(width=0.5)
    convs = _conv_layers(graph)
    assert convs[0][0].name == "stem" and convs[0][0].c_out == 16
    projects = [layer.c_out for layer, _ in convs if layer.name.endswith(".project")]
    assert projects == [8, 16, 16, 16, 16, 16, 32, 32, 32, 32, 48, 48, 48, 80, 80, 80, 160]
    head = [layer for layer, _ in convs if layer.name == "head"][0]
    assert (head.c_in, head.c_out) == (160, 1280)
    cls = [layer for layer, _ in convs if layer.name == "cls"][0]
    assert (cls.c_in, cls.c_out) == (1280, 1000)


def test_mobilenet_block_count_and_depthwise_groups():
    graph = build_mobilenetv2(width=0.5)
    convs = _conv_layers(graph)
    dws = [layer for layer, role in convs if role == "dw"]
    assert len(dws) == 17
    assert all(layer.groups == layer.c_in == layer.c_out for layer in dws)
    expands = [layer for layer, _ in convs if layer.name.endswith(".expand")]
    assert len(expands) == 16  # the first block has expansion factor 1


def test_mobilenet_placement_controls_layer_types():
    static = build_mobilenetv2(width=0.35, resolution=32)
    assert all(isinstance(layer, StaticConv) for layer, _ in _conv_layers(static))
    dcd = build_mobilenetv2(width=0.35, placement=("pw", "cls"), resolution=32)
    kinds = {(layer.name, type(layer).__name__) for layer, _ in _conv_layers(dcd)}
    assert ("stem", "StaticConv") in kinds
    assert ("cls", "DcdConv") in kinds
    assert all(type_name == "StaticConv" for name, type_name in kinds if name.endswith(".dw"))
    dw = build_mobilenetv2(width=0.35, placement=("dw",), resolution=32)
    dw_layers = [layer for layer, role in _conv_layers(dw) if role == "dw"]
    assert all(isinstance(layer, DcdConv) and layer.variant == "depthwise" for layer in dw_layers)
    assert all(layer.dims.l_k == 4 for layer in dw_layers)


def test_mobilenet_rejects_unknown_placement():
    with pytest.raises(ValueError):
        build_mobilenetv2(width=0.5, placement=("stem",))


def test_resnet_layouts():
    r10 = build_resnet(depth=10, resolution=32)
    r18 = build_resnet(depth=18, resolution=32)
    convs10 = [layer for layer, role in _conv_layers(r10) if role == "conv3x3"]
    convs18 = [layer for layer, role in _conv_layers(r18) if role == "conv3x3"]
    assert len(convs10) == 2 * (1 + 2 + 1 + 1)
    assert len(convs18) == 2 * (2 + 2 + 2 + 2)
    downs = [layer for layer, role in _conv_layers(r18) if role == "downsample"]
    assert [(d.c_in, d.c_out) for d in downs] == [(64, 128), (128, 256), (256, 512)]
    with pytest.raises(ValueError):
        build_resnet(depth=34)
    with pytest.raises(ValueError):
        build_resnet(depth=18, dcd="everything")


def test_resnet_dcd_policy_latents_and_squeeze():
    graph = build_resnet(depth=18, dcd="channel_only_3x3", resolution=32)
    by_shape = {}
    for layer, role in _conv_layers(graph):
        if role == "conv3x3":
            assert isinstance(layer, DcdConv) and layer.variant == "channel_only_kxk"
            by_shape[(layer.c_in, layer.c_out)] = (layer.dims.l, layer.branch.squeeze)
        else:
            assert isinstance(layer, StaticConv)
    assert by_shape[(64, 64)] == (8, 36)
    assert by_shape[(128, 128)] == (16, 72)
    assert by_shape[(256, 512)] == (32, 144)
    assert by_shape[(512, 512)] == (32, 288)


def test_resnet50_matches_reference_parameter_count():
    graph = build_resnet(depth=50)
    assert count_params(graph).total_params == 25_557_032


def test_resnet50_dcd_builds_and_adds_parameters():
    static = count_params(build_resnet(depth=50)).total_params
    dcd = count_params(build_resnet(depth=50, dcd="channel_only_3x3")).total_params
    assert dcd > static


# ---------------------------------------------------------------------------
# budget table


def test_golden_budget_rows_all_pass():
    results = check_golden()
    assert len(results) == len(golden_rows()) == 6
    for res in results:
        assert res.ok, res.line()


def test_static_width_one_invariant():
    name, build, target, tol = STATIC_INVARIANTS[0]
    params = count_params(build()).total_params
    assert abs(params - target) <= tol


def test_exact_budget_values_are_stable():
    by_id = {res.row_id: res for res in check_golden()}
    assert by_id["mobilenetv2_x0.5/static"].params == 1_968_680
    assert by_id["mobilenetv2_x0.5/static"].madds == 97_133_120
    assert by_id["resnet18/static"].params == 11_176_512
    assert by_id["resnet18/static"].madds == 1_813_561_856
    assert by_id["resnet18/dcd"].params == 13_921_460
    assert by_id["resnet10/dcd"].params == 6_442_252


# ---------------------------------------------------------------------------
# forward passes and twins


def test_mobilenet_forward_shape_and_finiteness():
    graph = build_mobilenetv2(width=0.35, num_classes=13, resolution=32, seed=5)
    x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
    logits = graph.forward(x)
    assert logits.shape == (2, 13)
    assert np.all(np.isfinite(logits))


def test_resnet_forward_shape():
    graph = build_resnet(depth=10, num_classes=7, resolution=32, seed=2)
    x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
    logits = graph.forward(x)
    assert logits.shape == (2, 7)


def test_static_twin_is_bit_identical_at_initialization():
    graph = build_mobilenetv2(width=0.35, placement=("pw", "cls"), num_classes=11,
                              resolution=32, seed=3)
    twin = graph.static_twin()
    x = np.random.default_rng(2).normal(size=(2, 3, 32, 32))
    assert np.array_equal(graph.forward(x), twin.forward(x))


def test_static_twin_diverges_once_branch_is_nonzero():
    graph = build_mobilenetv2(width=0.35, placement=("cls",), num_classes=11,
                              resolution=32, seed=3)
    twin = graph.static_twin()
    rng = np.random.default_rng(9)
    cls = [layer for layer, _ in _conv_layers(graph) if isinstance(layer, DcdConv)][0]
    cls.branch.w2.value = rng.normal(size=cls.branch.w2.value.shape) * 0.1
    x = rng.normal(size=(2, 3, 32, 32))
    assert not np.array_equal(graph.forward(x), twin.forward(x))


def test_twin_shares_base_kernel_storage():
    """Each twin layer's kernel is W0 in conv layout, bit for bit and as a view
    of W0's memory; bias and batch norm are the DCD layer's own objects."""
    graphs = [build_resnet(depth=10, dcd="channel_only_3x3", num_classes=5, resolution=32),
              build_mobilenetv2(width=0.35, placement=("pw", "dw", "cls"), num_classes=5, resolution=32)]
    variants, heads = set(), set()
    for graph in graphs:
        layers = zip(graph.iter_layers(), graph.static_twin().iter_layers())
        pairs = [(dcd, twin) for (dcd, *_), (twin, *_) in layers if isinstance(dcd, DcdConv)]
        assert pairs
        for dcd, twin in pairs:
            kernel = dcd.static_kernel()
            assert twin.weight.value.shape == kernel.shape
            assert twin.weight.value.tobytes() == kernel.tobytes()
            assert twin.bias is dcd.bias and twin.bn is dcd.bn
            assert np.shares_memory(dcd.w0.value, twin.weight.value)
            variants.add(dcd.variant)
            heads.update(name for name in ("bias", "bn") if getattr(dcd, name) is not None)
    assert variants == {"channel_only_kxk", "pointwise", "depthwise"} and heads == {"bias", "bn"}


def _seeded_resnet10():
    """ResNet-10-DCD whose branches produce input-dependent Λ and Φ."""
    graph = build_resnet(depth=10, dcd="channel_only_3x3", num_classes=5, resolution=16, seed=4)
    rng = np.random.default_rng(8)
    for layer, _ in _conv_layers(graph):
        if isinstance(layer, DcdConv):
            layer.branch.w2.value = rng.normal(size=layer.branch.w2.value.shape) * 0.1
            layer.branch.b2.value = rng.normal(size=layer.branch.b2.value.shape) * 0.1
    return graph


def test_taped_forward_takes_its_tape_from_the_input():
    graph = _seeded_resnet10()
    x = np.random.default_rng(3).normal(size=(2, 3, 16, 16))
    assert isinstance(graph.forward(x), np.ndarray)
    tape = ad.Tape()
    logits = graph.forward(tape.leaf(x), train=True)
    grads = ad.backward(ad.cross_entropy(logits, np.array([1, 3])))
    missing = [p.name for p in graph.parameters() if p not in grads]
    assert not missing, f"no gradient for {missing}"


def test_static_twin_walks_the_same_layers():
    graph = _seeded_resnet10()
    rows = [(layer.name, role, h_in, h_out) for layer, role, h_in, h_out in graph.iter_layers()]
    twin = [(layer.name.removesuffix(".static"), role, h_in, h_out)
            for layer, role, h_in, h_out in graph.static_twin().iter_layers()]
    assert twin == rows


def test_non_finite_error_names_the_layer():
    graph = _seeded_resnet10()
    layer = next(layer for layer, _ in _conv_layers(graph) if layer.name == "s2b0.conv2")
    layer.w0.value[0, 0, 0] = np.nan
    with pytest.raises(T.NonFiniteError) as info:
        graph.forward(np.random.default_rng(3).normal(size=(2, 3, 16, 16)))
    assert str(info.value).startswith("s2b0.conv2: ") and info.value.layer == "s2b0.conv2"
    assert isinstance(info.value.__cause__, T.NonFiniteError)
    assert str(info.value) == f"s2b0.conv2: {info.value.__cause__}"


# ---------------------------------------------------------------------------
# reproducibility and config round-trip


def test_same_seed_reproduces_same_weights():
    a = build_mobilenetv2(width=0.35, placement=("pw",), resolution=32, seed=7)
    b = build_mobilenetv2(width=0.35, placement=("pw",), resolution=32, seed=7)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value)
    c = build_mobilenetv2(width=0.35, placement=("pw",), resolution=32, seed=8)
    assert any(not np.array_equal(pa.value, pc.value)
               for pa, pc in zip(a.parameters(), c.parameters()))


@pytest.mark.parametrize("build", [
    lambda: build_mobilenetv2(width=0.35, placement=("pw", "cls"), num_classes=21,
                              resolution=48, seed=11, l_multiplier=0.5),
    lambda: build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9,
                         resolution=64, seed=4, r=8.0),
    lambda: build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9,
                         resolution=64, seed=4, r=8.0).static_twin(),
    # float arguments passed as ints are recorded as floats
    lambda: build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9, resolution=64, r=8),
    lambda: build_mobilenetv2(width=1, placement=("pw",), num_classes=9, resolution=32, r=4),
])
def test_config_round_trip_rebuilds_identical_model(build):
    graph = build()
    cfg = graph.to_config()
    rebuilt = build_from_config(cfg)
    assert rebuilt.name == graph.name
    assert rebuilt.config == cfg
    pa, pb = graph.parameters(), rebuilt.parameters()
    assert [p.name for p in pa] == [p.name for p in pb]
    for x, y in zip(pa, pb):
        assert np.array_equal(x.value, y.value)
    ra = count_model(graph, graph.resolution)
    rb = count_model(rebuilt, rebuilt.resolution)
    assert ra.total_params == rb.total_params
    assert ra.total_madds == rb.total_madds


def test_config_with_an_unknown_twin_is_refused():
    cfg = build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9, resolution=64).static_twin().to_config()
    cfg["model.twin"] = "dynamic"
    with pytest.raises(ValueError, match="unknown model.twin 'dynamic'"):
        build_from_config(cfg)


def test_build_from_config_rejects_unknown_family():
    with pytest.raises(ValueError):
        build_from_config({"model.family": "transformer"})


def test_task_family_builds_before_dynconv_task_is_imported():
    code = "from dynconv.models import build_from_config; print(build_from_config({'model.family': 'task'}).name)"
    src = str(Path(dynconv.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=src)
    assert (out.returncode, out.stdout) == (0, "task/dcd\n"), out.stderr


def test_latent_multiplier_scales_latents():
    full = build_mobilenetv2(width=0.5, placement=("pw",), resolution=32, seed=0)
    half = build_mobilenetv2(width=0.5, placement=("pw",), resolution=32, seed=0,
                             l_multiplier=0.5)
    full_l = {layer.name: layer.dims.l for layer, _ in _conv_layers(full)
              if isinstance(layer, DcdConv)}
    half_l = {layer.name: layer.dims.l for layer, _ in _conv_layers(half)
              if isinstance(layer, DcdConv)}
    assert all(half_l[name] == max(1, round(full_l[name] * 0.5)) for name in full_l)
    assert count_params(half).total_params < count_params(full).total_params


def test_iter_layers_tracks_spatial_sizes():
    graph = build_resnet(depth=18, resolution=224)
    sizes = {layer.name if hasattr(layer, "name") else role: (h_in, h_out)
             for layer, role, h_in, h_out in graph.iter_layers(224)}
    assert sizes["stem"] == (224, 112)
    assert sizes["maxpool"] == (112, 56)
    assert sizes["s1b0.conv1"] == (56, 56)
    assert sizes["s2b0.conv1"] == (56, 28)
    assert sizes["s2b0.down"] == (56, 28)
    assert sizes["s4b1.conv2"] == (7, 7)
    assert sizes["fc"] == (1, 1)


def _seeded_branches(graph, rng):
    for layer, *_ in graph.iter_layers():
        if isinstance(layer, DcdConv):  # Λ ≠ 1 and Φ ≠ 0, as in a trained model
            bound = 1.0 / np.sqrt(layer.branch.squeeze)
            layer.branch.w2.value = rng.uniform(-bound, bound, size=layer.branch.w2.value.shape)
            layer.branch.b2.value = rng.uniform(-bound, bound, size=layer.branch.b2.value.shape)
    return graph


BATCH_INVARIANCE_MODELS = [(row.row_id, row.build) for row in golden_rows() if row.row_id.endswith("/dcd")] + [
    (f"task/{kind}", lambda kind=kind: build_task_model(kind=kind, seed=3)) for kind in TASK_MODEL_KINDS
]


@pytest.mark.parametrize("row_id,build", BATCH_INVARIANCE_MODELS, ids=[r for r, _ in BATCH_INVARIANCE_MODELS])
def test_batch_logits_equal_stacked_single_sample_logits(row_id, build):
    """Each sample's contractions are the same BLAS calls at batch 1 and 4,
    for the dynamic model with live branches and for its static twin."""
    rng = np.random.default_rng(61)
    graph = _seeded_branches(build(), rng)
    size = min(graph.resolution, 32)
    x = rng.normal(size=(4, graph.input_channels, size, size))
    for g in (graph, graph.static_twin()):
        batch = np.asarray(g.forward(x))
        stacked = np.concatenate([np.asarray(g.forward(x[i : i + 1])) for i in range(len(x))])
        assert np.array_equal(batch, stacked), f"{g.name}: batch-4 logits differ from stacked batch-1"


@pytest.mark.parametrize("zoo_id", ["resnet10_dcd", "mobilenetv2_x0.5_dcd"])
def test_split_batch_logits_equal_whole_and_stacked_single_sample_logits(split_and_serial, zoo_id):
    rng = np.random.default_rng(79)
    graph = _seeded_branches(resolve_model(zoo_id, resolution=32), rng)
    x = rng.normal(size=(8, 3, 32, 32))
    for g in (graph, graph.static_twin()):
        split, serial = split_and_serial(lambda: np.asarray(g.forward(x)))
        stacked = np.concatenate([np.asarray(g.forward(x[i : i + 1])) for i in range(len(x))])
        assert np.array_equal(split, serial) and np.array_equal(split, stacked), g.name


def test_split_never_happens_at_batch_1(monkeypatch):
    monkeypatch.setattr(T, "SPLIT_MIN_MADDS", 0)
    monkeypatch.setattr(T, "_pool", None)
    graph = _seeded_branches(resolve_model("resnet10_dcd", resolution=32), np.random.default_rng(83))
    graph.forward(np.random.default_rng(83).normal(size=(1, 3, 32, 32)))
    assert T._pool is None


_SPLIT_FORWARD = """
import os, sys, threading
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {0})
import numpy as np
from dynconv import tensor as T
from dynconv.cli import resolve_model
from dynconv.layers import DcdConv
T.SPLIT_MIN_MADDS = 0
rng = np.random.default_rng(89)
graph = resolve_model("resnet10_dcd", resolution=32)
for layer, *_ in graph.iter_layers():
    if isinstance(layer, DcdConv):
        layer.branch.w2.value = rng.uniform(-0.5, 0.5, size=layer.branch.w2.value.shape)
logits = np.asarray(graph.forward(rng.normal(size=(8, 3, 32, 32))))
print(logits.tobytes().hex(), T.contraction_workers(), threading.active_count())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_split_forward_pinned_to_one_cpu_gives_the_same_bytes_on_no_worker():
    """A process pinned to one CPU contracts on its own thread, with the bytes
    of an unpinned process; both exit once the forward is done."""
    src = str(Path(dynconv.__file__).resolve().parents[1])
    runs = {}
    for mode in ("pin", "free"):
        out = subprocess.run([sys.executable, "-c", _SPLIT_FORWARD, mode],
                             capture_output=True, text=True, cwd=src, timeout=120)
        assert out.returncode == 0, out.stderr
        logits, workers, threads = out.stdout.split()
        runs[mode] = logits, int(workers), int(threads)
    assert runs["pin"][0] == runs["free"][0]
    assert runs["pin"][1:] == (1, 1)
    _, workers, threads = runs["free"]
    assert (threads > 1) == (workers > 1)
