import numpy as np

from dynconv import bench
from dynconv.bench import Timing, bench_pair, bench_pairs, time_forward
from dynconv.task import build_task_model


def test_timing_statistics_are_ordered():
    t = Timing("m", [0.1, 0.2, 0.3, 0.4, 10.0])
    assert t.median <= t.mean <= t.p95 or t.median <= t.p95
    assert t.p95 >= t.median
    assert "mean" in t.line() and t.line().startswith("m:")


def test_time_forward_excludes_warmup_iterations():
    model = build_task_model(kind="dcd", seed=0)
    x = np.random.default_rng(0).normal(size=(1, 8, 16, 16))
    timing = time_forward(model, x, repeats=4, warmup=2)
    assert len(timing.times) == 4
    assert all(t > 0 for t in timing.times)


def test_bench_pair_times_model_against_static_twin():
    model = build_task_model(kind="dcd", seed=0)
    report = bench_pair(model, batch=1, repeats=3, warmup=1, seed=0)
    assert report.dynamic.name == "task/dcd"
    assert report.static.name.endswith("static-twin")
    assert report.ratio > 0
    lines = report.lines()
    assert len(lines) == 3 and "ratio" in lines[2]
    csv = report.csv_lines()
    assert csv[0] == "model,mean_s,median_s,p95_s" and len(csv) == 3


def test_bench_pairs_times_every_case_in_alternating_rounds(monkeypatch):
    """Each round, warmup or timed, times every model once, case by case,
    the graph before its twin, on its second of two forwards; only the timed
    rounds are kept."""
    calls = []

    def fake_time_forward(g, x, **kw):
        assert kw == {"repeats": 1, "warmup": 1}
        calls.append((g.name, x.shape))
        return Timing(g.name, [len(calls)])

    monkeypatch.setattr(bench, "time_forward", fake_time_forward)
    dcd, static = build_task_model(kind="dcd", seed=0), build_task_model(kind="static", seed=0)
    reports = bench_pairs([(dcd, 2, None), (static, 1, 8)], repeats=2, warmup=1)
    one_round = [("task/dcd", (2, 8, 16, 16)), ("task/dcd-static-twin", (2, 8, 16, 16)),
                 ("task/static", (1, 8, 8, 8)), ("task/static-static-twin", (1, 8, 8, 8))]
    assert calls == one_round * 3
    assert [(r.dynamic.times, r.static.times, r.batch, r.resolution) for r in reports] == [
        ([5, 9], [6, 10], 2, 16), ([7, 11], [8, 12], 1, 8)]
