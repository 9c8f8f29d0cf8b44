import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dynconv import tensor as T
from dynconv.cli import build_parser, main, resolve_model
from dynconv.layers import DcdConv, StaticConv


def test_resolve_model_zoo_identifiers():
    assert resolve_model("mobilenetv2_x0.5").name == "mobilenetv2_x0.5/static"
    dcd = resolve_model("mobilenetv2_x0.5_dcd")
    assert any(isinstance(layer, DcdConv) for layer, *_ in dcd.iter_layers())
    assert resolve_model("resnet18").name == "resnet18/static"
    assert resolve_model("resnet10_dcd").name == "resnet10/dcd"
    assert resolve_model("task_vanilla").name == "task/vanilla"
    static = resolve_model("resnet18")
    assert all(not isinstance(layer, DcdConv) for layer, *_ in static.iter_layers())


def test_resolve_model_rejects_unknown():
    with pytest.raises(ValueError, match="unknown model"):
        resolve_model("resnet18_dcdx")


def test_count_golden_passes(capsys):
    assert main(["count", "--golden"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7 and all(line.startswith("[ok] ") for line in lines)
    assert lines[-1].startswith("[ok] mobilenetv2_x1.0/static: params=")


def test_count_prints_table(capsys):
    assert main(["count", "task_dcd"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out and "mix" in out


def test_count_csv_to_file(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    assert main(["count", "task_dcd", "--csv", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "layer,kind,params,madds,executed_madds"
    assert lines[-1].startswith("TOTAL,")


def test_unknown_model_exits_nonzero(capsys):
    assert main(["count", "resnet19x"]) == 1
    assert "error:" in capsys.readouterr().err


def test_equivalence_writes_mechanism_csv(tmp_path, capsys):
    assert main(["equivalence", "--trials", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mechanisms.csv").read_text().splitlines()
    assert lines[0] == "mechanism,rank,term_count,static_params"
    assert len(lines) == 3
    out = capsys.readouterr().out
    assert out.count("[ok]") == 3


def test_gradcheck_single_variant(capsys):
    assert main(["gradcheck", "--variant", "dcd_pointwise"]) == 0
    assert "[ok] dcd_pointwise" in capsys.readouterr().out


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.family = task\n"
        "model.kind = dcd\n"
        "task.kind = context_gated\n"
        "task.n_train = 64\n"
        "task.n_val = 32\n"
        "train.epochs = 1\n"
        "train.batch = 32\n"
        "train.lr = 0.2\n"
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "model.ckpt").exists()
    assert "val acc" in capsys.readouterr().out


def test_train_abort_message_names_the_layer(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.family = task\n"
        "model.kind = static\n"
        "task.kind = linear_control\n"
        "task.n_train = 64\n"
        "task.n_val = 32\n"
        "train.epochs = 3\n"
        "train.batch = 16\n"
        "train.lr = 1e25\n"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "training aborted: non-finite values in layer mix at epoch" in capsys.readouterr().err


def test_train_rejects_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train.lr 0.5\n")
    assert main(["train", "--config", str(cfg)]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_rejects_negative_epochs_from_flag_and_config(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit, match="^2$"):  # argparse refuses the flag; see the parametrised test below
        main(["train", "--epochs", "-1", "--out", str(out)])
    assert "error: argument --epochs: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.epochs = -1\n")
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "error: epochs must be >= 0 and batch >= 1" in capsys.readouterr().err



def test_sweep_reads_the_config_task_and_model_keys(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("task.n_train = 16\ntask.n_val = 3\nmodel.family = task\n")
    out = tmp_path / "sweep"
    assert main(["train", "--sweep", "--config", str(cfg), "--epochs", "0", "--out", str(out)]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 12
    thirds = {"0.000000", "0.333333", "0.666667", "1.000000"}  # 3 validation samples
    assert {row.split(",")[2] for row in rows} <= thirds
    cfg.write_text("model.family = resnet\n")
    assert main(["train", "--sweep", "--config", str(cfg), "--epochs", "0", "--out", str(out)]) == 1
    assert "error: the sweep trains task models, not model.family = resnet" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,key", [
    (["count"], "model.family = mobilenetv2\nmodel.widht = 0.25\n", "model.widht"),
    (["train"], "task.fooo = 1\ntrain.epochs = 0\n", "task.fooo"),
    (["train"], "task.noise = 0.3\ntrain.epochs = 0\n", "task.noise"),
    (["count"], "model.kind = static\nmodel.widht = 3\n", "model.widht"),
    (["train"], "model.kind = static\ntrain.epochs = 0\n", "model.kind"),
    (["train"], "task.kind = image_folder\ntask.dir = d\ntask.root = d\ntrain.epochs = 0\n", "task.root"),
    # the model's keys size a task's data
    (["train"], "task.num_classes = 6\ntrain.epochs = 0\n", "task.num_classes"),
    (["train", "--sweep"], "task.size = 8\ntrain.epochs = 0\n", "task.size"),
    (["analyze-phi"], "task.kind = linear_control\ntask.channels = 3\n", "task.channels"),
], ids=["model.widht", "task.fooo", "task.noise", "count-model-key-without-family", "train-model-key-without-family",
        "image_folder-task.root", "task.num_classes", "sweep-task.size", "analyze-phi-task.channels"])
def test_unread_config_keys_are_refused_by_name(tmp_path, capsys, command, text, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert not (out / "model.ckpt").exists()
    if "model.family" not in text and key.startswith("model."):
        assert "model.family is required" in err


def test_malformed_task_value_is_reported_with_its_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for keys, error in [
        ("task.n_train = 1.5", "task.n_train: invalid literal for int() with base 10: '1.5'"),
        ("model.family = mobilenetv2\nmodel.width = abc", "model.width: could not convert string to float: 'abc'"),
        ("model.family = resnet\nmodel.depth = 1.5", "model.depth: invalid literal for int() with base 10: '1.5'"),
        ("model.family = task\nmodel.channels = x", "model.channels: invalid literal for int() with base 10: 'x'"),
    ]:
        cfg.write_text(f"{keys}\ntrain.epochs = 0\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


def test_analyze_phi_writes_csv(tmp_path):
    path = tmp_path / "phi.csv"
    assert main(["analyze-phi", "task_dcd", "--samples", "4", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert any(line.startswith("# pooling=") for line in lines)
    assert "layer,depth,entries,sigma_raw,sigma_normalized" in lines


def test_analyze_phi_requires_dynamic_model(capsys):
    assert main(["analyze-phi", "task_static"]) == 1
    assert "no dynamic-decomposed layers" in capsys.readouterr().err


def test_bench_reports_ratio(capsys):
    assert main(["bench", "task_dcd", "--repeats", "2", "--warmup", "1"]) == 0
    assert "ratio" in capsys.readouterr().out


def test_bench_prints_workers_and_blas_threads(capsys, monkeypatch):
    monkeypatch.setattr(T, "blas_threads", lambda: 1)
    assert main(["bench", "task_dcd", "--repeats", "2", "--warmup", "1"]) == 0
    workers = T.contraction_workers()
    assert f"contraction workers: {workers}, BLAS threads: 1" in capsys.readouterr().out.splitlines()
    monkeypatch.setattr(T, "blas_threads", lambda: None)
    assert main(["bench", "task_dcd", "--repeats", "1", "--warmup", "0"]) == 0
    assert f"contraction workers: {workers}, BLAS threads: unknown" in capsys.readouterr().out.splitlines()


def _bench_doc(tmp_path, argv):
    path = tmp_path / "bench" / "b.json"
    assert main(["bench"] + argv + ["--out", str(path)]) == 0
    return json.loads(path.read_text())


def test_bench_json_has_a_row_per_model_and_batch_and_the_environment(tmp_path, capsys):
    doc = _bench_doc(tmp_path, ["task_dcd", "task_static@8", "--batch", "1", "2", "--repeats", "2", "--warmup", "0"])
    env = doc["environment"]
    assert set(env) == {"numpy", "blas", "blas_threads", "contraction_workers", "cpus", "src_sha256"}
    assert env["numpy"] == np.__version__ and env["contraction_workers"] == T.contraction_workers()
    assert env["blas_threads"] == T.blas_threads() and env["cpus"] == T.usable_cpus() and len(env["src_sha256"]) == 16
    assert [(r["model"], r["resolution"], r["batch"]) for r in doc["rows"]] == [
        ("task/dcd", 16, 1), ("task/dcd", 16, 2), ("task/static", 8, 1), ("task/static", 8, 2)]
    for row in doc["rows"]:
        assert set(row) == {"model", "resolution", "batch", "repeats", "dyn", "twin", "dyn_over_twin_median"}
        assert row["repeats"] == 2
        for side in (row["dyn"], row["twin"]):
            assert set(side) == {"median_s", "q25_s", "q75_s", "p95_s"}
            assert 0 < side["q25_s"] <= side["median_s"] <= side["q75_s"] <= side["p95_s"]
        assert row["dyn_over_twin_median"] == row["dyn"]["median_s"] / row["twin"]["median_s"]


def test_bench_prints_the_rows_it_writes(tmp_path, capsys):
    doc = _bench_doc(tmp_path, ["task_dcd", "task_static@8", "--batch", "1", "2", "--repeats", "3", "--warmup", "0"])
    out = capsys.readouterr().out
    ratios = re.findall(r"^dyn/twin median ratio: ([0-9.]+)$", out, re.MULTILINE)
    medians = re.findall(r"^(dyn|twin): median ([0-9.]+) ms, q25 ([0-9.]+) ms, q75 ([0-9.]+) ms, p95 ([0-9.]+) ms$",
                         out, re.MULTILINE)
    assert ratios == [f"{row['dyn_over_twin_median']:.3f}" for row in doc["rows"]]
    assert medians == [(side, *(f"{row[side][key] * 1e3:.3f}" for key in ("median_s", "q25_s", "q75_s", "p95_s")))
                       for row in doc["rows"] for side in ("dyn", "twin")]


def _schema(doc):
    """The key sets of a `bench --out` document: its top level, environment, rows and each row's sides."""
    return (set(doc), set(doc["environment"]), {frozenset(row) for row in doc["rows"]},
            {frozenset(row[side]) for row in doc["rows"] for side in ("dyn", "twin")})


def test_every_committed_bench_file_has_the_keys_bench_out_writes(tmp_path, capsys):
    """`BENCH_serial.json` was written by a tree with the worker split deleted,
    to measure the split against it, so its environment lacks the worker
    count, ``contraction_workers``; no other key may differ."""
    written = _schema(_bench_doc(tmp_path, ["task_dcd", "--repeats", "1", "--warmup", "0"]))
    files = sorted((Path(__file__).resolve().parents[1]).glob("BENCH_*.json"))
    assert {"BENCH_baseline.json", "BENCH_depthwise.json", "BENCH_onetap.json", "BENCH_blocks.json",
            "BENCH_derived.json", "BENCH_split.json", "BENCH_serial.json"} <= {path.name for path in files}
    for path in files:
        top, env, rows, sides = _schema(json.loads(path.read_text()))
        if path.name == "BENCH_serial.json":
            assert "contraction_workers" not in env
            env = env | {"contraction_workers"}
        assert (top, env, rows, sides) == written, path.name


@pytest.mark.parametrize("argv,flag", [(["--seed", "-1", "count", "task_dcd"], "--seed"),
                                       (["count", "task_dcd", "--seed", "-1"], "--seed"),
                                       (["train", "--epochs", "-1"], "--epochs")],
                         ids=["seed-before", "seed-after", "train-epochs"])
def test_a_negative_seed_or_epoch_count_is_refused_at_its_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: dynconv") and err.endswith(f"error: argument {flag}: must be >= 0, got -1\n")


def _int_options():
    """(subcommand, flag, action) for every option of every subcommand that takes integers."""
    (sub,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    return [(name, action.option_strings[0], action) for name, parser in sub.choices.items()
            for action in parser._actions if getattr(action.type, "__name__", None) == "int"]


@pytest.mark.parametrize("value", [0, -1])
def test_every_int_option_declares_its_bound_at_the_flag(capsys, value):
    """Each integer option of each subcommand parses through `_at_least`:
    a value below its bound exits 2 with the usage, naming the flag, and no
    traceback; a value its declaration allows is not run here."""
    options = _int_options()
    assert {name for name, *_ in options} == {"train", "gradcheck", "equivalence", "count", "analyze-phi", "bench"}
    refused = 0
    for name, flag, action in options:
        assert action.type is not int, f"{name} {flag} declares no bound"
        try:
            action.type(str(value))
            continue
        except argparse.ArgumentTypeError:
            pass
        with pytest.raises(SystemExit) as exc:
            main([name, flag, str(value)])
        err = capsys.readouterr().err
        assert exc.value.code == 2, (name, flag)
        assert re.search(f"error: argument {flag}: must be >= [01], got {value}\n$", err), (name, flag, err)
        assert "Traceback" not in err
        refused += 1
    assert refused == len(options) - (value == 0) * sum(flag in ("--seed", "--epochs", "--warmup")
                                                        for _, flag, _ in options)


@pytest.mark.parametrize("argv", [["bench", "task_dcd", "resnet10_dcd"], ["count", "resnet10_dcd"],
                                  ["train", "--model", "resnet10", "--epochs", "0"]], ids=["bench", "count", "train"])
def test_a_named_model_and_a_config_model_are_refused_together(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.family = task\n")
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    name = argv[argv.index("--model") + 1] if "--model" in argv else argv[1]
    assert capsys.readouterr().err == f"error: {name!r} and the config's model.family both name the model; give one\n"


def test_bench_refuses_a_malformed_resolution_suffix(capsys):
    assert main(["bench", "task_dcd@x8", "--repeats", "1"]) == 1
    assert capsys.readouterr().err == "error: 'task_dcd@x8': expected MODEL or MODEL@RESOLUTION\n"


def test_global_flags_accepted_before_subcommand(tmp_path):
    path = tmp_path / "phi.csv"
    assert main(["--seed", "5", "--out", str(path),
                 "analyze-phi", "task_dcd", "--samples", "3"]) == 0
    assert path.exists()


def test_config_builds_model_for_count(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text("model.family = task\nmodel.kind = static\n")
    assert main(["count", "--config", str(cfg)]) == 0
    assert "mix" in capsys.readouterr().out


def test_analyze_phi_loads_checkpoint_and_reports_spread(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "task.n_train = 64\n"
        "task.n_val = 32\n"
        "train.epochs = 2\n"
        "train.batch = 32\n"
        "train.lr = 0.2\n"
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

    path = tmp_path / "phi.csv"
    assert main(["analyze-phi", "task_dcd", "--ckpt", str(out / "model.ckpt"),
                 "--samples", "8", "--out", str(path)]) == 0
    header_at = path.read_text().splitlines().index(
        "layer,depth,entries,sigma_raw,sigma_normalized")
    row = path.read_text().splitlines()[header_at + 1].split(",")
    assert row[0] == "mix"
    assert float(row[3]) > 0.0 and float(row[4]) > 0.0  # trained branch varies

    # fresh (untrained) weights give constant coefficients -> zero spread
    fresh = tmp_path / "fresh.csv"
    assert main(["analyze-phi", "task_dcd", "--samples", "8", "--out", str(fresh)]) == 0
    frow = fresh.read_text().splitlines()[header_at + 1].split(",")
    assert float(frow[3]) == 0.0


def _two_class_rgb_folder(root):
    rng = np.random.default_rng(0)
    for cname, lum in (("dark", 0.2), ("bright", 0.8)):
        (root / cname).mkdir(parents=True)
        for i in range(8):
            img = np.clip(rng.normal(lum, 0.05, size=(3, 32, 32)), 0, 1)
            body = (img.transpose(1, 2, 0) * 255).astype(np.uint8).tobytes()
            (root / cname / f"{i}.ppm").write_bytes(
                b"P6\n32 32\n255\n" + body)


def test_train_on_image_folder(tmp_path):
    _two_class_rgb_folder(tmp_path / "data")
    cfg = tmp_path / "img.cfg"
    cfg.write_text(
        "model.family = task\n"
        "model.kind = dcd\n"
        "model.channels = 3\n"
        "model.num_classes = 2\n"
        "model.resolution = 32\n"
        "task.kind = image_folder\n"
        f"task.dir = {tmp_path / 'data'}\n"
        "train.epochs = 2\n"
        "train.batch = 8\n"
        "train.lr = 0.2\n"
    )
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 4  # header + initial eval + 2 epochs


def test_an_image_folder_that_does_not_fit_the_model_is_refused_by_name(tmp_path, capsys):
    _two_class_rgb_folder(tmp_path / "data")
    cfg = tmp_path / "img.cfg"
    cfg.write_text(f"task.kind = image_folder\ntask.dir = {tmp_path / 'data'}\ntrain.epochs = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'data'}: holds 3-channel 32×32 images in 2 classes; "
                                       "task/dcd expects 8-channel 16×16 images in 4 classes\n")
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("kind,error", [
    ("context_gated", "task.kind = context_gated needs model.channels > task.contexts (4); "
                      "resnet10/static has 3 channels"),
    ("linear_control", "task.kind = linear_control needs model.num_classes <= model.channels; "
                       "resnet10/static has 1000 classes and 3 channels"),
])
def test_a_model_its_task_cannot_feed_is_refused_by_its_keys(tmp_path, capsys, kind, error):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"task.kind = {kind}\n")
    out = tmp_path / "run"
    assert main(["train", "--model", "resnet10", "--epochs", "0", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (out / "metrics.csv").exists()


def test_train_refuses_a_step_size_below_one(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.schedule = step\ntrain.step_size = 0\ntrain.epochs = 1\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: train.step_size must be >= 1, got 0\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("key", ["task.n_train", "task.n_val"])
def test_train_refuses_an_empty_task_split(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 0\ntrain.epochs = 0\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {key.split('.')[1]} must be >= 1, got 0\n"
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("argv,error", [
    (["bench", "task_dcd", "--repeats", "0"], "argument --repeats: must be >= 1, got 0"),
    (["analyze-phi", "task_dcd", "--samples", "0"], "argument --samples: must be >= 1, got 0"),
    (["analyze-phi", "mobilenetv2_x0.25_dcd", "--resolution", "8", "--samples", "0"],
     "argument --samples: must be >= 1, got 0"),
    (["bench", "task_dcd", "--batch", "0"], "argument --batch: must be >= 1, got 0"),
    (["bench", "task_dcd", "--resolution", "0"], "argument --resolution: must be >= 1, got 0"),
    (["analyze-phi", "mobilenetv2_x0.25_dcd", "--resolution", "0"], "argument --resolution: must be >= 1, got 0"),
    (["analyze-phi", "task_dcd", "--samples", "-1"], "argument --samples: must be >= 1, got -1"),
    (["equivalence", "--trials", "0"], "argument --trials: must be >= 1, got 0"),
    (["count", "resnet10_dcd", "--resolution", "-5"], "argument --resolution: must be >= 1, got -5"),
    (["count", "resnet10_dcd", "--resolution", "0"], "argument --resolution: must be >= 1, got 0"),
    (["equivalence", "--channels", "0"], "argument --channels: must be >= 1, got 0"),
    (["equivalence", "--kernels", "0"], "argument --kernels: must be >= 1, got 0"),
    (["equivalence", "--latent", "0"], "argument --latent: must be >= 1, got 0"),
    (["equivalence", "--channels", "-1"], "argument --channels: must be >= 1, got -1"),
    (["bench", "task_dcd", "--warmup", "-1"], "argument --warmup: must be >= 0, got -1"),
    (["bench", "task_dcd", "--resolution", "-5"], "argument --resolution: must be >= 1, got -5"),
    (["analyze-phi", "mobilenetv2_x0.25_dcd", "--resolution", "-5"], "argument --resolution: must be >= 1, got -5"),
    (["analyze-phi", "task_dcd", "--resolution", "8"],
     "--resolution does not apply to a task model; model.resolution sets its inputs"),
    (["gradcheck", "--variant", "dcd_pointwise", "--tol", "nan"], "tol must be finite and > 0, got nan"),
    (["gradcheck", "--variant", "dcd_pointwise", "--tol", "inf"], "tol must be finite and > 0, got inf"),
    (["gradcheck", "--tol", "0"], "tol must be finite and > 0, got 0.0"),
    (["gradcheck", "--tol", "-1"], "tol must be finite and > 0, got -1.0"),
], ids=["bench-repeats-0", "analyze-phi-task-samples-0", "analyze-phi-zoo-samples-0", "bench-batch-0",
        "bench-resolution-0", "analyze-phi-zoo-resolution-0", "analyze-phi-task-samples-negative",
        "equivalence-trials-0", "count-resolution-negative", "count-resolution-0", "equivalence-channels-0",
        "equivalence-kernels-0", "equivalence-latent-0", "equivalence-channels-negative", "bench-warmup-negative",
        "bench-resolution-negative", "analyze-phi-zoo-resolution-negative", "analyze-phi-task-resolution",
        "gradcheck-tol-nan", "gradcheck-tol-inf", "gradcheck-tol-0", "gradcheck-tol-negative"])
def test_an_empty_timing_or_phi_run_is_refused(tmp_path, capsys, argv, error):
    """A count out of its flag's range is refused by argparse at the flag,
    with the usage and exit 2; a value only the run can judge, with an
    error line and exit 1.  Neither writes its --out file."""
    out = tmp_path / "out.csv"
    if error.startswith("argument "):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage: ") and err.endswith(f" error: {error}\n")
    else:
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()
