"""Model-zoo tests: architecture shape, budget table, static twins, and
config round-trips."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dynconv
import dynconv.autodiff as ad
import dynconv.models as models
import dynconv.tensor as T
from dynconv.cli import resolve_model
from dynconv.config import ConfigError
from dynconv.counting import count_model
from dynconv.layers import DcdConv, StaticConv, materialises
from dynconv.models import (
    STATIC_ROW,
    Block,
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
    out = ad.max_pool2d(x, 3, 2, 1)
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
    assert count_model(graph).total_params == 25_557_032


def test_resnet50_dcd_builds_and_adds_parameters():
    static = count_model(build_resnet(depth=50)).total_params
    dcd = count_model(build_resnet(depth=50, dcd="channel_only_3x3")).total_params
    assert dcd > static


# ---------------------------------------------------------------------------
# budget table


def test_golden_budget_rows_all_pass():
    results = check_golden()
    assert len(results) == len(golden_rows()) == 6
    for res in results:
        assert res.ok, res.line()


def test_static_width_one_invariant():
    result = STATIC_ROW.check()
    assert result.ok, result.line()
    assert result.madds is None


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


@pytest.mark.parametrize("shape", [(1, 3, 0, 0), (2, 3, 4, 0), (1, 4, 8, 8), (3, 8, 8)])
def test_forward_refuses_an_empty_map_or_a_wrong_channel_count(shape):
    """`ModelGraph.forward` refuses, before any layer runs, an input that is
    not (N, C, H, W) with the model's C and H, W >= 1."""
    graph = build_resnet(depth=10, num_classes=7, resolution=32, seed=2)
    with pytest.raises(ValueError) as info:
        graph.forward(np.zeros(shape))
    assert str(info.value) == f"{graph.name} expects (N,3,H,W) with H, W >= 1, got {shape}"


def test_static_twin_is_bit_identical_at_initialization():
    graph = build_mobilenetv2(width=0.35, placement=("pw", "cls"), num_classes=11,
                              resolution=32, seed=3)
    twin = graph.static_twin()
    x = np.random.default_rng(2).normal(size=(2, 3, 32, 32))
    assert np.array_equal(graph.forward(x), twin.forward(x))


def test_depthwise_dcd_twin_is_bit_identical_on_both_sides_of_the_tap_rule():
    """MobileNetV2-0.5 with DCD depthwise layers: their per-sample W(x) and
    the twin's shared W0 go through the same depthwise kernel at every
    shape, tap sum or BLAS, so the logits agree bit for bit at 32×32."""
    graph = build_mobilenetv2(width=0.5, placement=("dw",), resolution=32, seed=5)
    sides = {layer.c_in >= T.DEPTHWISE_TAP_RATIO * h_out * h_out for layer, _, _, h_out in graph.iter_layers()
             if isinstance(layer, DcdConv)}
    assert sides == {True, False}
    x = np.random.default_rng(6).normal(size=(2, 3, 32, 32))
    assert np.array_equal(graph.forward(x), graph.static_twin().forward(x))


MOBILENET_X05_MATERIALISED_AT_32 = (["b0.project"] + [f"b{i}.{r}" for i in range(1, 6) for r in ("expand", "project")]
                                    + ["b6.expand"])


@pytest.mark.parametrize("name,resolution,materialised", [
    ("task_dcd", 16, ["mix"]),
    ("mobilenetv2_x0.5_dcd", 32, MOBILENET_X05_MATERIALISED_AT_32),
])
def test_static_twin_is_bit_identical_on_the_materialised_plan(name, resolution, materialised):
    """The pointwise layers that convolve with W(x) itself, W0 up to the sign
    of zero at initialization, still give the twin's logits bit for bit."""
    graph = resolve_model(name)
    assert [layer.name for layer, _, h_in, _ in graph.iter_layers(resolution)
            if isinstance(layer, DcdConv) and materialises(layer, h_in, h_in)] == materialised
    x = np.random.default_rng(4).normal(size=(2, graph.input_channels, resolution, resolution))
    assert np.array_equal(graph.forward(x), graph.static_twin().forward(x))


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


@pytest.mark.parametrize("name", ["task_dcd", "resnet10_dcd", "mobilenetv2_x0.5_dcd"])
def test_layer_hook_sees_every_layer_once_per_forward_in_order(name):
    """Under `layer_hook`, a forward of the model and of its twin calls the
    hook once per layer, downsamples and classifier included, in the order
    and at the input sizes `iter_layers` lists; the outputs are the hook's
    and keep their bits."""
    graph = resolve_model(name, seed=0, resolution=None if name.startswith("task") else 16)
    twin = graph.static_twin()
    x = np.random.default_rng(0).normal(size=(2, graph.input_channels, graph.resolution, graph.resolution))
    plain = graph.forward(x), twin.forward(x)
    seen = []

    def hook(layer, h, run):
        seen.append((layer, ad.value_of(h).shape[2]))
        return run()

    for model, out in zip((graph, twin), plain):
        seen.clear()
        with models.layer_hook(hook):
            assert np.array_equal(model.forward(x), out)
        assert seen == [(layer, h_in) for layer, _, h_in, _ in model.iter_layers()]
    roles = [role for _, role, *_ in graph.iter_layers()]
    assert "classifier" in roles and ("downsample" in roles) == (name == "resnet10_dcd")
    assert models._layer_hook is None


def test_layer_hook_is_set_again_on_exit_and_errors_still_name_the_layer():
    graph = build_task_model(kind="dcd", seed=0)
    x = np.random.default_rng(0).normal(size=(1, 8, 16, 16))
    outer, inner = [], []

    def hook_into(calls):
        return lambda layer, h, run: calls.append(layer.name) or run()

    def poisoned(layer, h, run):
        out = run()
        if layer.name == "mix":
            T.check_finite(np.array([np.nan]), "hooked value")
        return out

    with models.layer_hook(hook_into(outer)):
        with models.layer_hook(hook_into(inner)):
            graph.forward(x)
        with pytest.raises(T.NonFiniteError, match="^mix: non-finite values in hooked value$"):
            with models.layer_hook(poisoned):
                graph.forward(x)
        assert models._layer_hook is not None and not outer
        graph.forward(x)
    assert models._layer_hook is None
    assert inner == outer == ["mix", "pool", "fc"]


def test_taped_forward_takes_its_tape_from_the_input():
    graph = _seeded_resnet10()
    x = np.random.default_rng(3).normal(size=(2, 3, 16, 16))
    assert isinstance(graph.forward(x), np.ndarray)
    tape = ad.Tape()
    logits = graph.forward(tape.leaf(x), train=True)
    grads = ad.backward(ad.cross_entropy(logits, np.array([1, 3])))
    missing = [p.name for p in graph.parameters() if p not in grads]
    assert not missing, f"no gradient for {missing}"


@pytest.mark.parametrize("name", ["task_static", "task_dcd", "task_vanilla", "resnet10_dcd", "mobilenetv2_x0.5_dcd"])
def test_a_step_on_a_data_leaf_forms_no_input_adjoint_and_the_same_gradients(name, monkeypatch):
    """A plain data leaf reaches no parameter, so every conv computes its
    input adjoint except those whose input is the data, and every parameter
    gradient is byte-identical to that of a step whose input is a
    `Parameter` leaf."""
    graph = resolve_model(name, seed=2, resolution=16)
    rng = np.random.default_rng(9)
    for p in graph.parameters():  # input-dependent Λ, Φ and attention, and nonzero biases
        if not p.value.any():
            p.value = rng.normal(size=p.value.shape) * 0.1
    x = rng.normal(size=(3, graph.input_channels, 16, 16))
    y = rng.integers(graph.num_classes, size=3)
    conv_inputs, input_grads = [], []
    conv2d, input_grad = T.conv2d, ad._conv2d_input_grad
    monkeypatch.setattr(T, "conv2d", lambda a, *rest, **kw: (conv_inputs.append(a), conv2d(a, *rest, **kw))[1])
    monkeypatch.setattr(ad, "_conv2d_input_grad", lambda *args: (input_grads.append(1), input_grad(*args))[1])

    def step(leaf):
        conv_inputs.clear()
        input_grads.clear()
        grads = ad.backward(ad.cross_entropy(graph.forward(leaf, train=True), y))
        counts = sum(a is leaf.value for a in conv_inputs), len(conv_inputs), len(input_grads)
        return [grads[p].tobytes() for p in graph.parameters()], counts

    lifted, (on_data, convs, lifted_grads) = step(ad.Tape().leaf(x, param=ad.Parameter("input", x)))
    plain, plain_counts = step(ad.Tape().leaf(x))
    assert plain == lifted
    assert on_data >= 1 and lifted_grads == convs
    assert plain_counts == (on_data, convs, convs - on_data)


def test_static_twin_walks_the_same_layers():
    graph = _seeded_resnet10()
    rows = [(layer.name, role, h_in, h_out) for layer, role, h_in, h_out in graph.iter_layers()]
    twin = [(layer.name.removesuffix(".static"), role, h_in, h_out)
            for layer, role, h_in, h_out in graph.static_twin().iter_layers()]
    assert twin == rows


def test_non_finite_error_names_the_layer():
    graph = _seeded_resnet10()
    layer = next(layer for layer, _ in _conv_layers(graph) if layer.name == "s2b0.conv2")
    T.write_state(layer.w0.value, np.nan, (0, 0, 0))
    with pytest.raises(T.NonFiniteError) as info:
        graph.forward(np.random.default_rng(3).normal(size=(2, 3, 16, 16)))
    assert str(info.value).startswith("s2b0.conv2: ") and info.value.layer == "s2b0.conv2"
    assert isinstance(info.value.__cause__, T.NonFiniteError)
    assert str(info.value) == f"s2b0.conv2: {info.value.__cause__}"


def test_skip_sum_is_checked_before_the_block_relu():
    """-1e308 plus its own copy overflows to -inf, which the ReLU would turn into 0."""
    layer = StaticConv("s", 2, 2, with_bn=False, activation=None)
    T.write_state(layer.weight.value, np.eye(2).reshape(2, 2, 1, 1))
    block = Block([(layer, "conv")], skip=True, relu=True)
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError) as info:
        block.forward(np.full((1, 2, 3, 3), -1e308))
    assert str(info.value) == "s: non-finite values in skip sum" and info.value.layer == "s"


def test_an_eval_forward_checks_each_layer_once_and_each_branch_once(monkeypatch):
    """Batch-1 eval forward of `task_dcd`: the DCD layer's branch hidden layer
    and pre-activation, and the classifier's pre-activation; its twin has
    the two pre-activations.  `task_vanilla` adds the attention logits, and
    a depthwise DCD layer has two.  No op and no kernel is checked on its own."""
    checked = []
    check = T.check_finite
    monkeypatch.setattr(T, "check_finite", lambda a, what="tensor": checked.append(what) or check(a, what))
    graph = resolve_model("task_dcd")
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, graph.input_channels, graph.resolution, graph.resolution))
    dw = DcdConv("dw", 8, 8, k=3, variant="depthwise", padding=1)
    cases = ((graph, x, 3), (graph.static_twin(), x, 2), (resolve_model("task_vanilla"), x, 4),
             (dw, rng.normal(size=(1, 8, 6, 6)), 2))
    for model, x, want in cases:
        checked.clear()
        model.forward(x)
        assert len(checked) == want, checked


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
                         resolution=64, seed=4),
    lambda: build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9,
                         resolution=64, seed=4).static_twin(),
    # float arguments passed as ints are recorded as floats
    lambda: build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9, resolution=64, l_multiplier=1),
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


def test_resnet_config_with_a_branch_reduction_is_refused():
    """ResNet's branch squeeze is fixed at ⌊k²·C_in/16⌋, so it has no `r`;
    only MobileNetV2, whose depthwise and classifier branches use it, reads `model.r`."""
    cfg = build_resnet(depth=10, dcd="channel_only_3x3", num_classes=9, resolution=64).to_config()
    assert "model.r" not in cfg
    with pytest.raises(ConfigError, match="unknown key 'model.r' for model.family = resnet"):
        build_from_config(cfg | {"model.r": "8"})
    assert build_mobilenetv2(width=0.35, placement=("cls",), num_classes=9, resolution=32).config["model.r"] == "8.0"


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
    assert count_model(half).total_params < count_model(full).total_params


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


def _watch_kernel_operands(monkeypatch) -> list[str]:
    """Wrap `T.matmul`, `T.conv2d` and `T.im2col`; the returned list gets a
    line for each array operand that is not C-contiguous float64."""
    bad = []
    for name in ("matmul", "conv2d", "im2col"):
        def watched(*args, _kernel=getattr(T, name), _name=name, **kwargs):
            bad.extend(f"{_name} operand {j}: {a.dtype} {a.shape} {a.strides}" for j, a in enumerate(args)
                       if isinstance(a, np.ndarray) and not (a.dtype == np.float64 and a.flags.c_contiguous))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(T, name, watched)
    return bad


@pytest.mark.parametrize("zoo_id", ["task_dcd", "resnet10_dcd", "mobilenetv2_x0.5_dcd"])
def test_kernels_get_c_contiguous_float64_operands_in_eval_forwards(zoo_id, monkeypatch):
    """The kernels do not coerce: `value_of` and the ops hand them C-contiguous
    float64 arrays at batch 1 and 8, in the dynamic model and its twin."""
    rng = np.random.default_rng(97)
    graph = _seeded_branches(resolve_model(zoo_id), rng)
    bad = _watch_kernel_operands(monkeypatch)
    size = min(graph.resolution, 32)
    for g in (graph, graph.static_twin()):
        for n in (1, 8):
            g.forward(rng.normal(size=(n, graph.input_channels, size, size)))
    assert not bad, bad[:5]


@pytest.mark.parametrize("zoo_id", ["task_dcd", "task_vanilla", "resnet10_dcd"])
def test_kernels_get_c_contiguous_float64_operands_in_a_training_step(zoo_id, monkeypatch):
    """The same holds in a taped train-mode forward and its backward, whose
    matmul VJPs hand `T.matmul` transposed operands."""
    rng = np.random.default_rng(101)
    graph = _seeded_branches(resolve_model(zoo_id), rng)
    bad = _watch_kernel_operands(monkeypatch)
    size = min(graph.resolution, 32)
    tape = ad.Tape()
    logits = graph.forward(tape.leaf(rng.normal(size=(4, graph.input_channels, size, size))), train=True)
    grads = ad.backward(ad.cross_entropy(logits, rng.integers(graph.num_classes, size=4)))
    assert len(grads) == len(graph.parameters())
    assert not bad, bad[:5]


@pytest.mark.parametrize("zoo_id", ["resnet10_dcd", "resnet18_dcd", "mobilenetv2_x0.5_dcd"])
def test_split_batch_logits_equal_whole_and_stacked_single_sample_logits(split_and_serial, zoo_id):
    """At 32×32 with live branches, in the dynamic model and its twin.
    ResNet-18's stage-4 3×3 convs on 1×1 maps run as one-tap 1×1 convs."""
    rng = np.random.default_rng(79)
    graph = _seeded_branches(resolve_model(zoo_id, resolution=32), rng)
    x = rng.normal(size=(8, 3, 32, 32))
    for g in (graph, graph.static_twin()):
        split, serial = split_and_serial(lambda: np.asarray(g.forward(x)))
        stacked = np.concatenate([np.asarray(g.forward(x[i : i + 1])) for i in range(len(x))])
        assert np.array_equal(split, serial) and np.array_equal(split, stacked), g.name


def test_split_at_batch_1_is_by_block_never_by_sample(monkeypatch):
    """A batch-1 forward hands a worker only blocks of a shared operand
    (ResNet-10's 512-channel kernels), never a product within one block,
    however low the split threshold."""
    whole, handed = (slice(None), slice(None)), []

    class InlinePool:
        """Runs each submitted run of tiles at once and keeps its tiles."""

        def submit(self, fn, a, b, out, tiles):
            handed.extend(tiles)
            fn(a, b, out, tiles)
            done = concurrent.futures.Future()
            done.set_result(None)
            return done

    monkeypatch.setattr(T, "SPLIT_MIN_MADDS", 0)
    monkeypatch.setattr(T, "contraction_workers", lambda: 2)
    monkeypatch.setattr(T, "_split_pool", InlinePool)
    graph = _seeded_branches(resolve_model("resnet10_dcd", resolution=32), np.random.default_rng(83))
    graph.forward(np.random.default_rng(83).normal(size=(1, 3, 32, 32)))
    assert handed and all(tile[:2] != whole for tile in handed)


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
