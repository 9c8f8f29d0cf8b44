import pytest

from dynconv.config import (
    ConfigError,
    RunConfig,
    format_config,
    keyword_args,
    keyword_config,
    load_config,
    parse_config,
    save_config,
)


def test_parse_basic_pairs():
    cfg = parse_config("train.lr = 0.5\nmodel.family = task\n")
    assert cfg == {"train.lr": "0.5", "model.family": "task"}


def test_parse_ignores_comments_and_blank_lines():
    text = "# full comment\n\ntrain.lr = 0.5  # trailing\n   \n"
    assert parse_config(text) == {"train.lr": "0.5"}


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError, match="duplicate key 'train.lr'"):
        parse_config("train.lr = 1\ntrain.lr = 2\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a pair\n")


def test_parse_rejects_empty_key():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(" = 3\n")


def test_format_parse_roundtrip():
    cfg = {"b.key": "2", "a.key": "hello world", "c.key": "0.125"}
    assert parse_config(format_config(cfg)) == cfg


def test_save_load_roundtrip(tmp_path):
    cfg = {"train.lr": "0.25", "model.family": "task"}
    path = tmp_path / "run.cfg"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_runconfig_from_mapping_types_and_groups():
    rc = RunConfig.from_mapping(
        {
            "train.lr": "0.3",
            "train.epochs": "7",
            "train.schedule": "step",
            "train.step_size": "3",
            "train.gamma": "0.5",
            "train.batch": "16",
            "train.momentum": "0.8",
            "train.seed": "11",
            "model.family": "task",
            "model.kind": "dcd",
            "task.kind": "context_gated",
            "run.out": "results",
        }
    )
    assert rc.lr == 0.3 and rc.epochs == 7 and rc.schedule == "step"
    assert rc.step_size == 3 and rc.gamma == 0.5 and rc.batch == 16
    assert rc.momentum == 0.8 and rc.seed == 11 and rc.out == "results"
    assert rc.model == {"model.family": "task", "model.kind": "dcd"}
    assert rc.task == {"task.kind": "context_gated"}


def test_runconfig_roundtrips_through_mapping():
    rc = RunConfig.from_mapping({"train.lr": "0.125", "model.family": "task"})
    again = RunConfig.from_mapping(rc.to_mapping())
    assert again == rc


@pytest.mark.parametrize("kwargs", [{"lr": 1, "gamma": 0}, {"momentum": 0, "epochs": 3, "out": "runs"}, {}])
def test_runconfig_to_mapping_is_a_fixed_point_of_from_mapping(kwargs):
    """A run config built in code with an int where a float is declared writes
    the float's text, so reading its mapping back writes the same mapping."""
    mapping = RunConfig(**kwargs).to_mapping()
    assert RunConfig.from_mapping(mapping).to_mapping() == mapping
    assert mapping["train.lr"] == repr(float(kwargs.get("lr", 0.1)))


def test_runconfig_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'trian.lr'"):
        RunConfig.from_mapping({"trian.lr": "0.5"})


def test_runconfig_rejects_bad_value_type():
    with pytest.raises(ConfigError, match="train.epochs"):
        RunConfig.from_mapping({"train.epochs": "three"})


def test_runconfig_rejects_unknown_schedule():
    with pytest.raises(ConfigError, match="unknown schedule"):
        RunConfig(schedule="linear")


def test_runconfig_rejects_nonpositive_batch():
    with pytest.raises(ConfigError):
        RunConfig(batch=0)


def _knobs(root, depth: int = 2, r: float | None = None, rate: float = 1.0, tags=(), mode: str = "off"):
    return locals()


def test_keyword_codec_types_each_key_like_its_default():
    cfg = {"k.root": "/d", "k.depth": "3", "k.r": "4", "k.rate": "2", "k.tags": "b,,a", "k.skip": "x", "j.other": "y"}
    kwargs = keyword_args(_knobs, cfg, "k", "k.kind = demo", {"k.skip": None})
    assert kwargs == {"root": "/d", "depth": 3, "r": 4.0, "rate": 2.0, "tags": ("b", "a")}
    written = keyword_config(_knobs, "k", _knobs(**kwargs))
    assert written == {"k.root": "/d", "k.depth": "3", "k.r": "4.0", "k.rate": "2.0", "k.tags": "a,b", "k.mode": "off"}
    assert keyword_config(_knobs, "k", _knobs(**keyword_args(_knobs, written, "k", "k.kind = demo"))) == written

