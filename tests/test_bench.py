import numpy as np
import pytest

from dynconv import bench
from dynconv.bench import bench_rows
from dynconv.task import build_task_model


def test_timing_statistics_are_ordered(monkeypatch):
    times = iter([0.1, 0.1, 0.2, 0.1, 0.3, 0.2, 0.4, 0.2, 10.0, 0.2])  # dyn, twin, dyn, twin, ...
    monkeypatch.setattr(bench, "_second_forward_s", lambda g, x: next(times))
    (row,) = bench_rows([(build_task_model(kind="dcd", seed=0), 1, None)], repeats=5, warmup=0)
    assert row["repeats"] == 5
    for side in (row["dyn"], row["twin"]):
        assert side["q25_s"] <= side["median_s"] <= side["q75_s"] <= side["p95_s"]
    assert row["dyn"]["median_s"] == 0.3 and row["twin"]["median_s"] == 0.2
    assert row["dyn_over_twin_median"] == 0.3 / 0.2


def test_bench_rows_times_model_against_static_twin():
    model = build_task_model(kind="dcd", seed=0)
    (row,) = bench_rows([(model, 1, None)], repeats=4, warmup=2, seed=0)
    assert (row["model"], row["resolution"], row["batch"], row["repeats"]) == ("task/dcd", 16, 1, 4)
    assert all(row[side][key] > 0 for side in ("dyn", "twin") for key in row[side])
    assert row["dyn_over_twin_median"] > 0


def _recording(monkeypatch):
    """The (graph name, input shape) of each timed forward, in call order;
    the fake forward's time is its call count."""
    calls = []

    def fake_second_forward_s(g, x):
        calls.append((g.name, x.shape))
        return len(calls)

    monkeypatch.setattr(bench, "_second_forward_s", fake_second_forward_s)
    return calls


def test_bench_rows_times_every_case_in_alternating_rounds(monkeypatch):
    """Each round, warmup or timed, times every model once, case by case,
    the graph before its twin; only the timed rounds are kept."""
    calls = _recording(monkeypatch)
    dcd, static = build_task_model(kind="dcd", seed=0), build_task_model(kind="static", seed=0)
    rows = bench_rows([(dcd, 2, None), (static, 1, 8)], repeats=2, warmup=1)
    one_round = [("task/dcd", (2, 8, 16, 16)), ("task/dcd-static-twin", (2, 8, 16, 16)),
                 ("task/static", (1, 8, 8, 8)), ("task/static-static-twin", (1, 8, 8, 8))]
    assert calls == one_round * 3
    assert [(r["dyn"]["median_s"], r["twin"]["median_s"], r["batch"], r["resolution"]) for r in rows] == [
        (7.0, 8.0, 2, 16), (9.0, 10.0, 1, 8)]  # medians of [5, 9], [6, 10], [7, 11] and [8, 12]


def test_bench_rows_alternates_the_tree_that_runs_first_by_round(monkeypatch):
    """With two trees, each round, warmup or timed, runs case by case both
    trees, each its graph before its twin, and the tree that runs first
    alternates by round; each tree's timings are its own."""
    calls = _recording(monkeypatch)
    cases = []
    for kind, res in (("dcd", None), ("static", 8)):
        change, parent = build_task_model(kind=kind, seed=0), build_task_model(kind=kind, seed=0)
        parent.name = f"parent/{kind}"
        cases.append((change, parent, 1, res))
    rows = bench_rows(cases, repeats=2, warmup=1)

    def tree(name, res):
        return [(name, (1, 8, res, res)), (f"{name}-static-twin", (1, 8, res, res))]

    change_first = tree("task/dcd", 16) + tree("parent/dcd", 16) + tree("task/static", 8) + tree("parent/static", 8)
    parent_first = tree("parent/dcd", 16) + tree("task/dcd", 16) + tree("parent/static", 8) + tree("task/static", 8)
    assert calls == change_first + parent_first + change_first
    # timed: round 1 runs the parent first (dcd case: 9, 10, then 11, 12), round 2 the change (17, 18, then 19, 20)
    (dcd, _) = rows
    assert dcd["logits"] == "bit-equal" and dcd["repeats"] == 2
    for s, side in enumerate(("dyn", "twin")):
        change, parent = [11 + s, 17 + s], [9 + s, 19 + s]
        assert dcd[side]["change"]["median_s"] == np.median(change)
        assert dcd[side]["parent"]["median_s"] == np.median(parent)
        assert dcd[side]["ratio"] == np.median(change) / np.median(parent) and dcd[side]["won"] == 1


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
def test_bench_rows_refuses_an_empty_run_from_a_library_caller(kwargs, case, error):
    """The CLI bounds these at their flags; `bench_rows` keeps its own checks."""
    with pytest.raises(ValueError, match=f"^{error}$"):
        bench_rows([(build_task_model(kind="dcd", seed=0), *case)], **kwargs)
