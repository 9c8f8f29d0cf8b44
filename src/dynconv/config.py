"""Flat dotted-key configuration files.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment (whole
line or trailing); blank lines are ignored; keys are dotted paths
(``train.lr``); values are uninterpreted strings until a consumer types
them.  Duplicate keys are an error, not a silent override.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_config(cfg: dict[str, str]) -> str:
    return "".join(f"{key} = {cfg[key]}\n" for key in sorted(cfg))


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text())


def save_config(path: str | Path, cfg: dict[str, str]) -> None:
    Path(path).write_text(format_config(cfg))


SCHEDULES = ("step", "cosine")

_TRAIN_KEYS = {
    "train.lr": ("lr", float),
    "train.momentum": ("momentum", float),
    "train.schedule": ("schedule", str),
    "train.step_size": ("step_size", int),
    "train.gamma": ("gamma", float),
    "train.batch": ("batch", int),
    "train.epochs": ("epochs", int),
    "train.seed": ("seed", int),
}


@dataclass
class RunConfig:
    """One experiment: a model, a task, and the optimization recipe."""

    model: dict[str, str] = field(default_factory=dict)
    task: dict[str, str] = field(default_factory=dict)
    lr: float = 0.1
    momentum: float = 0.9
    schedule: str = "cosine"
    step_size: int = 10
    gamma: float = 0.1
    batch: int = 32
    epochs: int = 10
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}; choose from {SCHEDULES}")
        if self.epochs < 0 or self.batch < 1:
            raise ConfigError("epochs must be >= 0 and batch >= 1")

    @classmethod
    def from_mapping(cls, cfg: dict[str, str]) -> "RunConfig":
        kwargs = {}
        model, task = {}, {}
        for key, value in cfg.items():
            if key.startswith("model."):
                model[key] = value
            elif key.startswith("task."):
                task[key] = value
            elif key in _TRAIN_KEYS:
                attr, typ = _TRAIN_KEYS[key]
                try:
                    kwargs[attr] = typ(value)
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from None
            elif key == "run.out":
                kwargs["out"] = value
            else:
                raise ConfigError(f"unknown key {key!r}")
        return cls(model=model, task=task, **kwargs)

    def to_mapping(self) -> dict[str, str]:
        out = dict(self.model) | dict(self.task)
        for key, (attr, _) in _TRAIN_KEYS.items():
            out[key] = repr(getattr(self, attr)) if isinstance(getattr(self, attr), float) else str(getattr(self, attr))
        if self.out is not None:
            out["run.out"] = self.out
        return out
