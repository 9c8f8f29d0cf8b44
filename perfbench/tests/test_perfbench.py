"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, and that
every workload, smoke-sized, reports every metric BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans as S
import workloads as W
from dynconv import layers, models, task, tensor

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_same_track_descendants_only():
    spans = [
        ["root", 0.0, 10.0, None, 0, "call"],
        ["a", 1.0, 4.0, 0, 0, "call"],
        ["k", 2.0, 3.0, 1, 0, "kernel"],    # kernel inside a: a keeps its time
        ["b", 5.0, 9.0, 0, 0, "call"],
        ["p", 6.0, 8.0, 3, 0, "phase"],     # phase inside b: b keeps its time
        ["c", 6.5, 7.5, 4, 0, "call"],      # nearest call ancestor of c is b
        ["k2", 7.0, 7.25, 5, 0, "kernel"],  # nearest kernel ancestor: none
    ]
    assert S.self_times(spans) == pytest.approx([3.0, 3.0, 1.0, 3.0, 2.0, 1.0, 0.25])
    call_total = sum(s for s, span in zip(S.self_times(spans), spans) if span[5] == "call")
    assert call_total == pytest.approx(10.0)


def _small_models():
    mnv2 = models.build_mobilenetv2(width=0.5, placement=("pw", "cls"), num_classes=10, resolution=16, seed=3)
    W.seed_branches(mnv2, np.random.default_rng(0))
    return [mnv2, mnv2.static_twin(), task.build_task_model(kind="vanilla", seed=1)]


def test_wrappers_keep_outputs_bit_identical_and_are_removed():
    graphs = _small_models()
    xs = [np.random.default_rng(i).normal(size=(2, g.input_channels, g.resolution, g.resolution))
          for i, g in enumerate(graphs)]
    before = [g.forward(x) for g, x in zip(graphs, xs)]
    originals = {(owner, name): getattr(owner, name) for owner, name in
                 [(tensor, "matmul"), (tensor, "im2col"), (layers.DcdConv, "forward"),
                  (layers.BatchNorm2d, "forward")]}
    with S.Tracer() as tracer:
        patched = [(owner, attr, original) for owner, attr, original, _ in tracer._patches]
        assert tensor.matmul is not originals[(tensor, "matmul")]
        during = [g.forward(x) for g, x in zip(graphs, xs)]
    for b, d in zip(before, during):
        assert np.array_equal(b, d)
    assert {"layers.dcd_pointwise", "layers.dcd_classifier", "layers.static_depthwise",
            "layers.vanilla", "tensor.matmul"} <= {span[0] for span in tracer.spans}
    assert len(patched) >= len(originals)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("scratch")
    return W.make_workloads(resolution=16, resnet_depth=10, num_classes=10, scratch=scratch,
                            train_kw=dict(n_train=128, n_val=32, epochs=2, passes_per_arm=1))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_workload_reports_every_metric_with_its_unit(name, smoke, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUPS", 1)
    workload = smoke[name]
    rec, metrics, details = run.measure(workload, seed=5, seconds=0.0, import_s=0.0)
    assert rec.failed == 0, rec.failures
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())
    assert run.table(metrics, details, trace=False)

    rec, metrics, details = run.traced(workload, seed=5, seconds=0.0, trace_path=tmp_path / "t.jsonl")
    assert rec.failed == 0, rec.failures
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert sum(details["call_track_self_s"].values()) == pytest.approx(details["traced_s"], abs=1e-3)
    assert metrics["tensor.matmul.calls"][0] > 0
    assert (metrics["autodiff.backward.calls"][0] > 0) == (name == "train_sweep")
    assert (metrics["checkpoint.save.self_s"][0] > 0) == (name != "infer_resnet18")
    assert run.table(metrics, details, trace=True)
    first = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "run_id", "track"}


def test_speed_scales_wall_time_by_reference_over_probe(monkeypatch):
    import speed

    monkeypatch.setattr(speed, "kernel_s", lambda: 2 * speed.REF_S)  # a host at half the reference speed
    wall, normalised, out = speed.Speed().time(lambda: sum(range(10000)))
    assert out == sum(range(10000))
    assert normalised == pytest.approx(wall / 2)


def test_child_import_time_is_measured():
    assert 0 < run.child_import_s() < 60


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
