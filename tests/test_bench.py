import numpy as np
import pytest

from dynconv import bench
from dynconv.bench import BenchReport, bench_pairs
from dynconv.task import build_task_model


def test_timing_statistics_are_ordered():
    row = BenchReport("m", 16, 1, dyn=[0.1, 0.2, 0.3, 0.4, 10.0], twin=[0.1, 0.1, 0.2, 0.2, 0.2]).row()
    assert row["repeats"] == 5
    for side in (row["dyn"], row["twin"]):
        assert side["q25_s"] <= side["median_s"] <= side["q75_s"] <= side["p95_s"]
    assert row["dyn"]["median_s"] == 0.3 and row["twin"]["median_s"] == 0.2
    assert row["dyn_over_twin_median"] == 0.3 / 0.2


def test_bench_pairs_times_model_against_static_twin():
    model = build_task_model(kind="dcd", seed=0)
    (report,) = bench_pairs([(model, 1, None)], repeats=4, warmup=2, seed=0)
    assert (report.model, report.resolution, report.batch) == ("task/dcd", 16, 1)
    assert len(report.dyn) == len(report.twin) == 4
    assert all(t > 0 for t in report.dyn + report.twin)
    assert report.row()["dyn_over_twin_median"] > 0


def test_bench_pairs_times_every_case_in_alternating_rounds(monkeypatch):
    """Each round, warmup or timed, times every model once, case by case,
    the graph before its twin; only the timed rounds are kept."""
    calls = []

    def fake_second_forward_s(g, x):
        calls.append((g.name, x.shape))
        return len(calls)

    monkeypatch.setattr(bench, "_second_forward_s", fake_second_forward_s)
    dcd, static = build_task_model(kind="dcd", seed=0), build_task_model(kind="static", seed=0)
    reports = bench_pairs([(dcd, 2, None), (static, 1, 8)], repeats=2, warmup=1)
    one_round = [("task/dcd", (2, 8, 16, 16)), ("task/dcd-static-twin", (2, 8, 16, 16)),
                 ("task/static", (1, 8, 8, 8)), ("task/static-static-twin", (1, 8, 8, 8))]
    assert calls == one_round * 3
    assert [(r.dyn, r.twin, r.batch, r.resolution) for r in reports] == [
        ([5, 9], [6, 10], 2, 16), ([7, 11], [8, 12], 1, 8)]


def test_second_forward_s_times_the_second_of_two_eval_forwards(monkeypatch):
    model = build_task_model(kind="dcd", seed=0)
    modes = []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda x, train: modes.append(train) or forward(x, train=train))
    x = np.random.default_rng(0).normal(size=(1, 8, 16, 16))
    assert bench._second_forward_s(model, x) > 0
    assert modes == [False, False]


@pytest.mark.parametrize("kwargs,case,error", [
    ({"repeats": 0}, (1, None), "repeats must be >= 1, got 0"),
    ({"warmup": -1}, (1, None), "warmup must be >= 0, got -1"),
    ({}, (0, None), "batch must be >= 1, got 0"),
    ({}, (1, -5), "resolution must not be negative, got -5"),
], ids=["repeats-0", "warmup-negative", "batch-0", "resolution-negative"])
def test_bench_pairs_refuses_an_empty_run_from_a_library_caller(kwargs, case, error):
    """The CLI bounds these at their flags; `bench_pairs` keeps its own checks."""
    with pytest.raises(ValueError, match=f"^{error}$"):
        bench_pairs([(build_task_model(kind="dcd", seed=0), *case)], **kwargs)
