import re

import numpy as np
import pytest

from dynconv import bench
from dynconv.bench import bench_rows
from dynconv.config import ConfigError, RunConfig
from dynconv.counting import count_model
from dynconv.layers import DcdConv, StaticConv, VanillaDynConv
from dynconv.models import build_from_config
from dynconv.task import (
    Dataset,
    build_task_model,
    load_image_folder,
    make_context_gated,
    make_linear_control,
    make_task_from_config,
)
from dynconv.train import train


def test_dataset_batches_cover_everything_in_order():
    data = Dataset(np.arange(10 * 2 * 2 * 2, dtype=float).reshape(10, 2, 2, 2),
                   np.arange(10, dtype=np.int64))
    batches = list(data.batches(4))
    assert [b[1].tolist() for b in batches] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    # in stored order a batch is a view of the arrays, not a copy
    assert all(np.shares_memory(xb, data.inputs) and np.shares_memory(yb, data.labels) for xb, yb in batches)
    order = np.array([3, 1, 2, 0])
    xb, yb = next(iter(data.batches(4, order)))
    assert yb.tolist() == [3, 1, 2, 0]
    assert np.array_equal(xb, data.inputs[order])


def test_generators_are_deterministic_per_seed():
    a1, _ = make_context_gated(n_train=32, n_val=8, seed=3)
    a2, _ = make_context_gated(n_train=32, n_val=8, seed=3)
    b1, _ = make_context_gated(n_train=32, n_val=8, seed=4)
    assert np.array_equal(a1.inputs, a2.inputs)
    assert np.array_equal(a1.labels, a2.labels)
    assert not np.array_equal(a1.inputs, b1.inputs)


def test_context_cue_is_recoverable_from_pooled_input():
    # reconstruct the cue directions the generator used (same stream prefix)
    rng = np.random.default_rng(np.random.SeedSequence((0, 202)))
    q, r = np.linalg.qr(rng.normal(size=(8, 8)))
    cues = (q * np.sign(np.diag(r)))[:4]

    tr, _ = make_context_gated(n_train=256, n_val=8, seed=0)
    pooled = tr.inputs.mean(axis=(2, 3))  # (N, C)
    projections = pooled @ cues.T  # (N, M)
    top = projections.max(axis=1)
    # the active cue carries strength about 1.5; every other projection is
    # pixel-noise sized because content is drawn orthogonal to all cues
    assert np.all(top > 1.2)
    second = np.sort(projections, axis=1)[:, -2]
    assert np.all(np.abs(second) < 0.5)


def test_context_labels_are_roughly_balanced():
    tr, va = make_context_gated(seed=0)
    for labels, n in ((tr.labels, len(tr)), (va.labels, len(va))):
        counts = np.bincount(labels, minlength=4)
        assert counts.max() <= 0.5 * n
        assert counts.min() >= 0.1 * n


def test_context_gated_validates_contexts():
    with pytest.raises(ValueError, match="contexts"):
        make_context_gated(contexts=8, channels=8)


@pytest.mark.parametrize("make", [make_linear_control, make_context_gated])
def test_generators_refuse_an_empty_split(make):
    with pytest.raises(ValueError, match="^n_train must be >= 1, got 0$"):
        make(n_train=0)
    with pytest.raises(ValueError, match="^n_val must be >= 1, got -1$"):
        make(n_val=-1)


def test_linear_control_refuses_more_classes_than_channels():
    with pytest.raises(ValueError, match=r"^num_classes must be <= channels \(3\), got 4$"):
        make_linear_control(channels=3, num_classes=4)
    tr, _ = make_linear_control(n_train=64, n_val=1, channels=3, num_classes=3)
    assert set(tr.labels) == {0, 1, 2}


def test_unknown_task_kind_raises():
    with pytest.raises(ValueError, match="unknown task"):
        make_task_from_config({"task.kind": "mystery"}, build_task_model())


@pytest.mark.parametrize("kind", ["context_gated", "linear_control"])
def test_the_model_keys_size_a_synthetic_task(kind):
    graph = build_from_config({"model.family": "task", "model.channels": "6", "model.resolution": "8",
                               "model.num_classes": "5"})
    tr, va = make_task_from_config({"task.kind": kind, "task.n_train": "128", "task.n_val": "2"}, graph)
    assert tr.inputs.shape == (128, 6, 8, 8) and va.inputs.shape == (2, 6, 8, 8)
    assert set(tr.labels) == set(range(5))
    for key in ("task.channels", "task.size", "task.num_classes"):
        with pytest.raises(ConfigError, match=f"^unknown key '{key}' for task.kind = {kind}$"):
            make_task_from_config({"task.kind": kind, key: "8"}, graph)


def test_model_resolution_sizes_the_data_the_count_and_the_bench(monkeypatch):
    graph = build_from_config({"model.family": "task", "model.resolution": "8"})
    tr, va = make_task_from_config({"task.n_train": "4", "task.n_val": "2"}, graph)
    assert tr.inputs.shape == (4, 8, 8, 8) and va.inputs.shape == (2, 8, 8, 8)
    report = count_model(graph)
    assert report.resolution == 8
    assert report.total_madds == count_model(graph, 8).total_madds < count_model(graph, 16).total_madds
    shapes = []
    monkeypatch.setattr(bench, "_second_forward_s", lambda g, x: shapes.append(x.shape) or 1.0)
    assert bench_rows([(graph, 1, None)], repeats=1, warmup=0)[0]["resolution"] == 8
    assert shapes == [(1, 8, 8, 8)] * 2


def test_linear_control_is_solved_by_static_model():
    tr, va = make_linear_control(n_train=128, n_val=32, seed=0)
    model = build_task_model(kind="static", seed=0)
    cfg = RunConfig(lr=0.3, epochs=30, batch=32, seed=0)
    result = train(model, tr, va, cfg)
    perfect = [row[0] for row in result.rows if row[2] == 1.0]
    assert perfect and perfect[0] <= 30, "static model should hit 100% train accuracy"


def _mix(model):
    return next(layer for layer, role, *_ in model.iter_layers() if role == "mix")


def test_task_model_kinds_use_the_right_mixing_layer():
    static = _mix(build_task_model(kind="static", seed=0))
    dcd = _mix(build_task_model(kind="dcd", seed=0))
    van = _mix(build_task_model(kind="vanilla", tau=30.0, seed=0))
    assert isinstance(static, StaticConv)
    assert isinstance(dcd, DcdConv) and dcd.variant == "pointwise"
    assert isinstance(van, VanillaDynConv) and van.tau == 30.0


def test_task_model_sparse_blocks_variant():
    model = build_task_model(kind="dcd", sparse_blocks=4, seed=0)
    mix = _mix(model)
    assert mix.variant == "block_sparse" and mix.blocks == 4
    assert mix.dims.l == 2  # 8 channels / 4 blocks


def test_task_model_l_multiplier_scales_latent():
    full = _mix(build_task_model(kind="dcd", seed=0))
    half = _mix(build_task_model(kind="dcd", l_multiplier=0.5, seed=0))
    assert full.dims.l == 8 and half.dims.l == 4


def test_task_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown task model kind"):
        build_task_model(kind="fancy")


def test_task_model_config_roundtrip():
    model = build_task_model(kind="dcd", sparse_blocks=2, num_classes=5,
                             l_multiplier=0.5, seed=9)
    rebuilt = build_from_config(model.config)
    assert rebuilt.name == model.name
    assert rebuilt.config == model.config
    for a, b in zip(model.parameters(), rebuilt.parameters()):
        assert a.name == b.name
        assert np.array_equal(a.value, b.value)


def test_mix_kernel_init_is_shared_across_kinds():
    static = _mix(build_task_model(kind="static", seed=7))
    dcd = _mix(build_task_model(kind="dcd", seed=7))
    # same per-layer stream: identical values, stored (C,C,1,1) vs (C,C)
    assert np.array_equal(static.weight.value.reshape(8, 8), dcd.w0.value)


def test_task_model_forward_shape():
    model = build_task_model(kind="dcd", seed=0)
    x = np.random.default_rng(0).normal(size=(3, 8, 16, 16))
    out = np.asarray(model.forward(x))
    assert out.shape == (3, 4) and np.all(np.isfinite(out))


def _write_ppm(path, rgb, comment=False):
    h, w = rgb.shape[1], rgb.shape[2]
    header = b"P6\n" + (b"# synthetic\n" if comment else b"")
    header += f"{w} {h}\n255\n".encode()
    body = (rgb.transpose(1, 2, 0) * 255).astype(np.uint8).tobytes()
    path.write_bytes(header + body)


def _write_pgm(path, gray):
    h, w = gray.shape[1], gray.shape[2]
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode()
                     + (gray[0] * 255).astype(np.uint8).tobytes())


def _image_tree(root, per_class=6, classes=("circle", "square")):
    rng = np.random.default_rng(0)
    for cname in classes:
        (root / cname).mkdir(parents=True)
        for i in range(per_class):
            _write_ppm(root / cname / f"img{i:02d}.ppm",
                       rng.uniform(size=(3, 32, 32)), comment=(i == 0))


def test_image_folder_loads_split_and_labels(tmp_path):
    _image_tree(tmp_path, per_class=6)
    tr, va = load_image_folder(tmp_path, val_every=3)
    # 6 files/class: indices 2 and 5 go to validation
    assert len(tr) == 8 and len(va) == 4
    assert tr.inputs.shape == (8, 3, 32, 32)
    assert tr.inputs.dtype == np.float64
    assert float(tr.inputs.min()) >= 0.0 and float(tr.inputs.max()) <= 1.0
    assert sorted(set(tr.labels)) == [0, 1] and sorted(set(va.labels)) == [0, 1]
    # deterministic: same directory -> identical arrays
    tr2, _ = load_image_folder(tmp_path, val_every=3)
    assert np.array_equal(tr.inputs, tr2.inputs)


def test_image_folder_roundtrips_pixel_values(tmp_path):
    (tmp_path / "a").mkdir()
    img = np.arange(3 * 32 * 32).reshape(3, 32, 32) % 256 / 255.0
    _write_ppm(tmp_path / "a" / "x.ppm", img)
    _write_ppm(tmp_path / "a" / "y.ppm", img)
    tr, _ = load_image_folder(tmp_path, val_every=2)
    assert np.allclose(tr.inputs[0], img, atol=1e-12)


def test_image_folder_grayscale_pgm(tmp_path):
    rng = np.random.default_rng(1)
    (tmp_path / "only").mkdir()
    for i in range(4):
        _write_pgm(tmp_path / "only" / f"g{i}.pgm", rng.uniform(size=(1, 32, 32)))
    tr, va = load_image_folder(tmp_path, val_every=2)
    assert tr.inputs.shape[1] == 1 and va.inputs.shape[1] == 1


def test_image_folder_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="subdirectories"):
        load_image_folder(tmp_path / "missing")
    (tmp_path / "c").mkdir()
    _write_ppm(tmp_path / "c" / "small.ppm", np.zeros((3, 16, 16)))
    _write_ppm(tmp_path / "c" / "ok.ppm", np.zeros((3, 32, 32)))
    with pytest.raises(ValueError, match="32×32"):
        load_image_folder(tmp_path)
    (tmp_path / "c" / "small.ppm").write_bytes(b"P3\n32 32\n255\n")
    with pytest.raises(ValueError, match="P5/P6"):
        load_image_folder(tmp_path)


@pytest.mark.parametrize("header,field", [
    (b"P5\nxx 32\n255\n", "width"),
    (b"P5\n32 3.5\n255\n", "height"),
    (b"P6\n32 32\nff\n", "maxval"),
], ids=["width", "height", "maxval"])
def test_image_folder_names_a_non_numeric_header_field(tmp_path, header, field):
    (tmp_path / "c").mkdir()
    path = tmp_path / "c" / "bad.ppm"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: netpbm {field} .* is not a decimal number"):
        load_image_folder(tmp_path)


def test_image_folder_config_wiring(tmp_path):
    _image_tree(tmp_path / "data", per_class=4)
    graph = build_task_model(channels=3, num_classes=2, resolution=32)
    cfg = {"task.kind": "image_folder", "task.dir": str(tmp_path / "data"), "task.val_every": "4", "task.seed": "7"}
    tr, va = make_task_from_config(cfg, graph)
    assert len(tr) == 6 and len(va) == 2
    with pytest.raises(ValueError, match="task.dir"):
        make_task_from_config({"task.kind": "image_folder"}, graph)


@pytest.mark.parametrize("model,expects", [
    ({"channels": 3, "num_classes": 2}, "3-channel 16×16 images in 2 classes"),
    ({"channels": 3, "resolution": 32}, "3-channel 32×32 images in 4 classes"),
], ids=["resolution", "classes"])
def test_an_image_folder_that_does_not_fit_the_model_is_refused(tmp_path, model, expects):
    _image_tree(tmp_path / "data", per_class=5)
    graph = build_task_model(**model)
    cfg = {"task.kind": "image_folder", "task.dir": str(tmp_path / "data")}
    holds = "holds 3-channel 32×32 images in 2 classes"
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'data'))}: {holds}; task/dcd expects {expects}$"):
        make_task_from_config(cfg, graph)
