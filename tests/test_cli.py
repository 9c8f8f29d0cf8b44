import numpy as np
import pytest

from dynconv import tensor as T
from dynconv.cli import main, resolve_model
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


def test_count_golden_passes():
    assert main(["count", "--golden"]) == 0


def test_count_prints_table(capsys):
    assert main(["count", "task_dcd"]) == 0
    out = capsys.readouterr().out
    assert "TOTAL" in out and "mix" in out


def test_count_csv_to_file(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    assert main(["count", "task_dcd", "--csv", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "layer,kind,params,madds"
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
    assert main(["train", "--epochs", "-1", "--out", str(out)]) == 1
    assert "error: epochs must be >= 0 and batch >= 1" in capsys.readouterr().err
    assert not (out / "model.ckpt").exists()
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
], ids=["model.widht", "task.fooo", "task.noise", "count-model-key-without-family", "train-model-key-without-family",
        "image_folder-task.root"])
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


def test_bench_prints_workers_and_blas_threads_and_keeps_csv_columns(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    path = tmp_path / "bench.csv"
    assert main(["bench", "task_dcd", "--repeats", "2", "--warmup", "1", "--out", str(path)]) == 0
    workers = T.contraction_workers()
    assert f"contraction workers: {workers}, OPENBLAS_NUM_THREADS: 1" in capsys.readouterr().out.splitlines()
    assert path.read_text().splitlines()[0] == "model,mean_s,median_s,p95_s"


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


def test_train_on_image_folder(tmp_path):
    rng = np.random.default_rng(0)
    for cname, lum in (("dark", 0.2), ("bright", 0.8)):
        (tmp_path / "data" / cname).mkdir(parents=True)
        for i in range(8):
            img = np.clip(rng.normal(lum, 0.05, size=(3, 32, 32)), 0, 1)
            body = (img.transpose(1, 2, 0) * 255).astype(np.uint8).tobytes()
            (tmp_path / "data" / cname / f"{i}.ppm").write_bytes(
                b"P6\n32 32\n255\n" + body)
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
