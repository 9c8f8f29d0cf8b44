"""Command-line front end.

Subcommands:

* ``train``        — fit a model on a synthetic task (or run the full sweep)
* ``gradcheck``    — finite-difference gradient checks per mechanism variant
* ``equivalence``  — algebraic identity checks + mechanism comparison CSV
* ``count``        — parameter/MAdds tables; ``--golden`` checks reference budgets
* ``analyze-phi``  — coefficient-variation statistics across a sample batch
* ``bench``        — wall-clock forward timing against the static twin, and
                     with ``--against DIR`` against another source tree

Common flags (``--config``, ``--seed``, ``--out``) are accepted both before
and after the subcommand, and a subcommand refuses each one it does not read.
Every failed check exits nonzero with a message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import decompose
from .analysis import phi_statistics
from .bench import bench_rows, environment, load_tree, source_hash
from .config import ConfigError, RunConfig, load_config
from .counting import count_model
from .gradcheck import VARIANTS, variant_gradcheck
from .models import STATIC_ROW, build_from_config, check_golden
from .task import make_task_from_config
from .train import run_sweep, train

_MOBILENET_RE = re.compile(r"^mobilenetv2_x([0-9.]+?)(_dcd)?$")
_RESNET_RE = re.compile(r"^resnet(\d+)(_dcd)?$")
_TASK_RE = re.compile(r"^task_(static|dcd|vanilla)$")


def resolve_model(name: str, seed: int = 0, resolution: int | None = None):
    """Build a model from a zoo identifier like ``resnet18_dcd``, which is
    shorthand for its ``model.*`` keys."""
    if (m := _MOBILENET_RE.match(name)):
        cfg = {"model.family": "mobilenetv2", "model.width": m.group(1)}
        cfg |= {"model.placement": "cls,pw"} if m.group(2) else {}
    elif (m := _RESNET_RE.match(name)):
        cfg = {"model.family": "resnet", "model.depth": m.group(1)}
        cfg |= {"model.dcd": "channel_only_3x3"} if m.group(2) else {}
    elif (m := _TASK_RE.match(name)):
        cfg = {"model.family": "task", "model.kind": m.group(1)}
    else:
        raise ValueError(
            f"unknown model {name!r}; expected mobilenetv2_x<width>[_dcd], "
            "resnet<depth>[_dcd], or task_<static|dcd|vanilla>"
        )
    cfg["model.seed"] = str(seed)
    if resolution:
        cfg["model.resolution"] = str(resolution)
    return build_from_config(cfg)


def _load_cfg(args) -> dict[str, str]:
    path = getattr(args, "config", None)
    return load_config(path) if path else {}


def _model_from_args(args, cfg: dict[str, str], seed: int | None = None, name: str | None = None):
    seed = getattr(args, "seed", None) if seed is None else seed
    name = getattr(args, "model", None) if name is None else name
    if cfg.get("model.family"):
        if name:
            raise ConfigError(f"{name!r} and the config's model.family both name the model; give one")
        if seed is not None:
            cfg = dict(cfg) | {"model.seed": str(seed)}
        return build_from_config(cfg)
    if keys := sorted(key for key in cfg if key.startswith("model.")):
        raise ConfigError(f"model.family is required to read {', '.join(map(repr, keys))}")
    return resolve_model(name or "task_dcd", seed=seed or 0)


def _refuse(what: str, args, *flags: str) -> None:
    """Refuse each of `flags` that was given (one not given reads None), since
    `what` does not read it; a name without dashes is a positional argument."""
    if given := [flag for flag in flags if getattr(args, flag.lstrip("-"), None) is not None]:
        raise ValueError(f"{what} takes no {', '.join(given)}")


def _out_dir(args, default: str = "out") -> Path:
    out = Path(getattr(args, "out", None) or default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_or_print(args, name: str, lines: list[str]) -> None:
    """Write `lines` to the file ``--out`` names, creating its directory, or print them."""
    out = getattr(args, "out", None)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print(f"{name}: wrote {path}")
    else:
        print("\n".join(lines))


# -- subcommand bodies ------------------------------------------------------


def cmd_train(args) -> int:
    if args.sweep:  # every task model, for seeds 0, 1 and 2
        _refuse("train --sweep", args, "--model", "--seed")
    cfg_map = _load_cfg(args)
    if args.sweep and (seeds := [key for key in ("train.seed", "model.seed", "task.seed") if key in cfg_map]):
        raise ConfigError(f"train --sweep takes no {', '.join(seeds)}: it sets the seeds of its runs")
    run_cfg = RunConfig.from_mapping(cfg_map)
    if getattr(args, "seed", None) is not None:
        run_cfg = dataclasses.replace(run_cfg, seed=args.seed)
    if args.epochs is not None:
        run_cfg = dataclasses.replace(run_cfg, epochs=args.epochs)

    if args.sweep:  # `run_sweep` makes the directory once it has checked the config
        results = run_sweep(Path(getattr(args, "out", None) or run_cfg.out or "out"), cfg=run_cfg)
        for arm, accs in results.items():
            fmt = ", ".join(f"{a:.4f}" for a in accs)
            print(f"{arm}: final val acc [{fmt}]")
        return 0

    out = _out_dir(args, run_cfg.out or "out")
    model = _model_from_args(args, cfg_map, seed=run_cfg.seed)
    train_set, val_set = make_task_from_config(dict(cfg_map) | {"task.seed": str(run_cfg.seed)}, model)

    result = train(model, train_set, val_set, run_cfg, csv_path=out / "metrics.csv")
    if result.aborted:
        what = f"values in layer {result.abort_layer}" if result.abort_layer else "loss"
        print(
            f"training aborted: non-finite {what} at epoch {result.abort_epoch} "
            f"step {result.abort_step}; partial metrics in {out / 'metrics.csv'}",
            file=sys.stderr,
        )
        return 1
    ckpt.save_model(model, out / "model.ckpt")
    print(
        f"{model.name}: train acc {result.final_train_acc:.4f}, "
        f"val acc {result.final_val_acc:.4f} "
        f"(metrics: {out / 'metrics.csv'}, checkpoint: {out / 'model.ckpt'})"
    )
    return 0


def cmd_gradcheck(args) -> int:
    _refuse("gradcheck", args, "--config", "--out")
    variants = [args.variant] if args.variant else list(VARIANTS)
    seed = getattr(args, "seed", None) or 0
    failed = False
    for variant in variants:
        report = variant_gradcheck(variant, seed=seed, tol=args.tol)
        state = "ok" if report.passed else "FAIL"
        print(f"[{state}] {variant}: max rel err {report.max_rel_err:.3e} (tol {report.tol:g})")
        if not report.passed:
            failed = True
            for entry in report.entries:
                if not entry.passed:
                    print(f"    {entry.name}: {len(entry.failures)} bad coords", file=sys.stderr)
    return 1 if failed else 0


def cmd_equivalence(args) -> int:
    _refuse("equivalence", args, "--config")
    checks, rows = decompose.compare_aggregation_mechanisms(
        c=args.channels, k=args.kernels, l=args.latent, trials=args.trials, seed=getattr(args, "seed", None) or 0)
    out = _out_dir(args)
    failed = False
    for name, err, tol in checks:
        state = "ok" if err < tol else "FAIL"
        failed = failed or err >= tol
        print(f"[{state}] {name}: max |err| = {err:.3e} (tol {tol:g})")
    lines = ["mechanism,rank,term_count,static_params"]
    for row in rows:
        lines.append(f"{row.mechanism},{row.rank},{row.term_count},{row.static_params}")
        if row.rank > row.rank_bound:
            print(f"[FAIL] {row.mechanism}: rank {row.rank} exceeds bound {row.rank_bound}",
                  file=sys.stderr)
            failed = True
    path = out / "mechanisms.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"mechanism comparison written to {path}")
    return 1 if failed else 0


def cmd_count(args) -> int:
    if args.golden:
        _refuse("count --golden", args, "model", "--csv", "--resolution", "--config", "--out", "--seed")
        results = check_golden() + [STATIC_ROW.check()]
        for result in results:
            print(result.line())
        return 0 if all(result.ok for result in results) else 1

    model = _model_from_args(args, _load_cfg(args))
    report = count_model(model, args.resolution)
    _write_or_print(args, model.name, report.csv_lines() if args.csv else report.table_lines())
    return 0


def cmd_analyze_phi(args) -> int:
    cfg = _load_cfg(args)
    model = _model_from_args(args, cfg)
    if getattr(args, "ckpt", None):
        ckpt.load_into(model, args.ckpt)
    seed = getattr(args, "seed", None) or 0
    if model.name.startswith("task/"):
        if args.resolution is not None:
            raise ValueError("--resolution does not apply to a task model; model.resolution sets its inputs")
        _, val_set = make_task_from_config(dict(cfg) | {"task.seed": str(seed)}, model)
        x = val_set.inputs[: args.samples]
    else:
        rng = np.random.default_rng(seed)
        res = model.resolution if args.resolution is None else args.resolution
        x = rng.normal(size=(args.samples, model.input_channels, res, res))
    _write_or_print(args, model.name, phi_statistics(model, x).csv_lines())
    return 0


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    seed = getattr(args, "seed", None) or 0
    parent = None if args.against is None else load_tree(args.against)
    cases = []
    for spec in args.model or [""]:  # no model: the config's, or task_dcd
        name, at, res = spec.partition("@")
        if at and not res.isdigit():
            raise ValueError(f"{spec!r}: expected MODEL or MODEL@RESOLUTION")
        models = [_model_from_args(args, cfg, name=name)]
        if parent is not None:  # the same model, built by the other tree's own front end
            models.append(parent._model_from_args(args, cfg, name=name))
        cases += [(*models, batch, int(res) if at else args.resolution) for batch in args.batch]
    doc = {"environment": environment()}
    if parent is not None:
        doc["against"] = {"path": str(args.against), "src_sha256": source_hash(args.against / "src" / "dynconv")}
    doc["rows"] = bench_rows(cases, args.repeats, args.warmup, seed)
    for row in doc["rows"]:
        head = f"== {row['model']}, {row['resolution']}×{row['resolution']}, batch {row['batch']}"
        if parent is None:
            print(head)
            for side in ("dyn", "twin"):
                print(f"{side}: " + ", ".join(f"{key[:-2]} {row[side][key] * 1e3:.3f} ms" for key in row[side]))
            print(f"dyn/twin median ratio: {row['dyn_over_twin_median']:.3f}")
            continue
        logits = row["logits"] if row["logits"] == "bit-equal" else f"max rel diff {row['logits']:.3e}"
        print(f"{head}: logits {logits}")
        for side in ("dyn", "twin"):
            change, base = (row[side][tree]["median_s"] * 1e3 for tree in ("change", "parent"))
            print(f"{side}: median {change:.3f} ms, parent {base:.3f} ms, change/parent {row[side]['ratio']:.3f}, "
                  f"won {row[side]['won']}/{row['repeats']}")
    env = doc["environment"]
    blas = "unknown" if env["blas_threads"] is None else env["blas_threads"]
    print(f"contraction workers: {env['contraction_workers']}, BLAS threads: {blas}")
    if parent is not None:
        print(f"source: {env['src_sha256']}, parent source: {doc['against']['src_sha256']}")
    out = getattr(args, "out", None)
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


# -- parser -----------------------------------------------------------------


def _at_least(low: int):
    """An argparse ``type=`` for an integer flag bounded below: argparse then
    refuses a value out of range with the flag's name and the usage."""
    def parse(text: str) -> int:
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", type=Path, help="run configuration file")
    common.add_argument("--seed", type=_at_least(0), help="override the RNG seed")
    common.add_argument("--out", type=Path, help="output file or directory")

    parser = argparse.ArgumentParser(prog="dynconv", parents=[common],
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common], help="fit a model on a synthetic task")
    p.add_argument("--model", default=None, help="zoo id (default task_dcd)")
    p.add_argument("--epochs", type=_at_least(0), default=None, help="override train.epochs")
    p.add_argument("--sweep", action="store_true",
                   help="run the static/dcd/vanilla comparison sweep")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference checks per mechanism variant")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("equivalence", parents=[common],
                       help="algebraic identity checks and mechanism CSV")
    p.add_argument("--trials", type=_at_least(1), default=25)
    p.add_argument("--channels", type=_at_least(1), default=16)
    p.add_argument("--kernels", type=_at_least(1), default=4)
    p.add_argument("--latent", type=_at_least(1), default=4)
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("count", parents=[common], help="parameter and MAdds tables")
    p.add_argument("model", nargs="?", default=None, help="zoo id")
    p.add_argument("--csv", action="store_true", default=None, help="emit CSV instead of a table")
    p.add_argument("--golden", action="store_true", help="check the reference budgets; takes no other argument")
    p.add_argument("--resolution", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("analyze-phi", parents=[common],
                       help="coefficient-variation statistics")
    p.add_argument("model", nargs="?", default=None, help="zoo id (default task_dcd)")
    p.add_argument("--ckpt", type=Path, default=None,
                   help="load trained weights before analyzing")
    p.add_argument("--samples", type=_at_least(1), default=16)
    p.add_argument("--resolution", type=_at_least(1), default=None)
    p.set_defaults(func=cmd_analyze_phi)

    p = sub.add_parser("bench", parents=[common],
                       help="forward timing against the static twin")
    p.add_argument("model", nargs="*", default=[],
                   help="zoo ids, each MODEL or MODEL@RESOLUTION (default task_dcd)")
    p.add_argument("--batch", type=_at_least(1), nargs="+", default=[1], help="one or more batch sizes")
    p.add_argument("--repeats", type=_at_least(1), default=20)
    p.add_argument("--warmup", type=_at_least(0), default=3)
    p.add_argument("--resolution", type=_at_least(1), default=None,
                   help="input size of a MODEL without @RESOLUTION (default: its own)")
    p.add_argument("--against", type=Path, default=None, metavar="DIR",
                   help="time each model against the same model built by the source tree DIR, in this process")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConfigError, ckpt.CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
