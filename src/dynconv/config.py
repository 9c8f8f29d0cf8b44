"""Flat dotted-key configuration files.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment (whole
line or trailing); blank lines are ignored; keys are dotted paths
(``train.lr``); values are uninterpreted strings until a consumer types
them.  Duplicate keys are an error, not a silent override.

A ``model.*`` or ``task.*`` key names a keyword of the builder or generator
it configures: `keyword_args` reads those keys into keyword arguments and
`keyword_config` writes them back, both from the function's own signature.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
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


def _key_type(default) -> type:
    """A keyword's config value is typed like its default; one without a
    default reads as a string, and one that defaults to None as a float."""
    if default is inspect.Parameter.empty:
        return str
    return float if default is None else type(default)


def keyword_args(fn, cfg: dict[str, str], prefix: str, owner: str, aliases=None) -> dict:
    """`fn`'s keyword arguments from the ``prefix.*`` keys of `cfg`.

    ``prefix.name`` sets parameter ``name``, typed like its default (a tuple
    reads a comma list).  `aliases` maps more keys to a parameter, which then
    loses its own key, or to None for a key that is accepted and ignored.  Any
    other ``prefix.*`` key is refused as unknown for `owner`, and a value that
    does not parse is refused under its key.
    """
    params = inspect.signature(fn).parameters
    aliases = aliases or {}
    names = {f"{prefix}.{name}": name for name in params if name not in aliases.values()} | aliases
    kwargs = {}
    for key, value in cfg.items():
        if not key.startswith(f"{prefix}."):
            continue
        if key not in names:
            raise ConfigError(f"unknown key {key!r} for {owner}")
        if (name := names[key]) is None:
            continue
        typ = _key_type(params[name].default)
        try:
            kwargs[name] = tuple(part for part in value.split(",") if part) if typ is tuple else typ(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return kwargs


def keyword_config(fn, prefix: str, values: dict) -> dict[str, str]:
    """The ``prefix.*`` key of every parameter of `fn`, holding its entry in
    `values` (the caller's ``locals()``) formatted so `keyword_args` reads it
    back: a float by ``repr``, a tuple or set as a sorted comma list."""
    out = {}
    for name, param in inspect.signature(fn).parameters.items():
        typ, value = _key_type(param.default), values[name]
        if typ is float:
            value = repr(float(value))
        elif typ is tuple:
            value = ",".join(sorted(value))
        out[f"{prefix}.{name}"] = str(value)
    return out


SCHEDULES = ("step", "cosine")


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
        if self.step_size < 1:
            raise ConfigError(f"train.step_size must be >= 1, got {self.step_size}")

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
        for key, (attr, typ) in _TRAIN_KEYS.items():
            value = typ(getattr(self, attr))
            out[key] = repr(value) if typ is float else str(value)
        if self.out is not None:
            out["run.out"] = self.out
        return out


# ``train.<field>`` for each recipe field of `RunConfig`, typed like its default
_TRAIN_KEYS = {f"train.{f.name}": (f.name, type(f.default)) for f in fields(RunConfig)
               if isinstance(f.default, (int, float, str))}
