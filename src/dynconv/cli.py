"""Command-line front end.

Subcommands:

* ``train``        — fit a model on a synthetic task (or run the full sweep)
* ``gradcheck``    — finite-difference gradient checks per mechanism variant
* ``equivalence``  — algebraic identity checks + mechanism comparison CSV
* ``count``        — parameter/MAdds tables; ``--golden`` checks reference budgets
* ``analyze-phi``  — coefficient-variation statistics across a sample batch
* ``bench``        — wall-clock forward timing against the static twin

Common flags (``--config``, ``--seed``, ``--out``, ``--golden``) are accepted
both before and after the subcommand.  Every failed check exits nonzero with
a message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import decompose
from .analysis import phi_statistics
from .bench import bench_pair, environment_line
from .config import ConfigError, RunConfig, load_config
from .counting import count_model, count_params
from .gradcheck import VARIANTS, variant_gradcheck
from .models import STATIC_INVARIANTS, build_from_config, check_golden
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


def _model_from_args(args, cfg: dict[str, str], seed: int | None = None):
    seed = getattr(args, "seed", None) if seed is None else seed
    if cfg.get("model.family"):
        if seed is not None:
            cfg = dict(cfg) | {"model.seed": str(seed)}
        return build_from_config(cfg)
    if keys := sorted(key for key in cfg if key.startswith("model.")):
        raise ConfigError(f"model.family is required to read {', '.join(map(repr, keys))}")
    name = getattr(args, "model", None) or "task_dcd"
    return resolve_model(name, seed=seed or 0, resolution=getattr(args, "resolution", None))


def _out_dir(args, default: str = "out") -> Path:
    out = Path(getattr(args, "out", None) or default)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- subcommand bodies ------------------------------------------------------


def cmd_train(args) -> int:
    cfg_map = _load_cfg(args)
    run_cfg = RunConfig.from_mapping(cfg_map)
    if getattr(args, "seed", None) is not None:
        run_cfg = dataclasses.replace(run_cfg, seed=args.seed)
    if args.epochs is not None:
        run_cfg = dataclasses.replace(run_cfg, epochs=args.epochs)
    out = _out_dir(args, run_cfg.out or "out")

    if args.sweep:
        results = run_sweep(out, cfg=run_cfg)
        for arm, accs in results.items():
            fmt = ", ".join(f"{a:.4f}" for a in accs)
            print(f"{arm}: final val acc [{fmt}]")
        return 0

    model = _model_from_args(args, cfg_map, seed=run_cfg.seed)
    train_set, val_set = make_task_from_config(
        dict(cfg_map) | {"task.seed": str(run_cfg.seed)}
    )

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


def _equivalence_checks(trials: int, seed: int) -> list[tuple[str, float, float]]:
    """(check name, max abs error, tolerance) over random instances."""
    rng = np.random.default_rng(seed)
    direct_err = 0.0
    kc_err = 0.0
    l2_err = 0.0
    for _ in range(trials):
        c, k = int(rng.choice([4, 8, 16])), int(rng.choice([2, 4]))
        kernels = rng.standard_normal((k, c, c))
        att = np.exp(rng.standard_normal((1, k)))
        att /= att.sum(axis=1, keepdims=True)
        direct = np.einsum("nk,kij->nij", att, kernels)
        d = decompose.residual_decompose(kernels)
        reformed = decompose.aggregate_decomposed(att, d)
        direct_err = max(direct_err, float(np.abs(direct - reformed).max()))

        residual = reformed[0] - d.w0
        expanded = decompose.rank1_expand(att[0], d)
        kc_err = max(kc_err, float(np.abs(expanded - residual).max()))

        l = int(rng.integers(2, 5))
        p = rng.standard_normal((c, l))
        q = rng.standard_normal((c, l))
        phi = rng.standard_normal((l, l))
        product = p @ phi @ q.T
        summed = np.zeros((c, c))
        for i in range(l):
            for j in range(l):
                summed += phi[i, j] * np.outer(p[:, i], q[:, j])
        l2_err = max(l2_err, float(np.abs(summed - product).max()))
    return [
        ("direct_vs_reformulated", direct_err, 1e-8),
        ("rank1_expansion_kernel_terms", kc_err, 1e-9),
        ("rank1_expansion_latent_terms", l2_err, 1e-9),
    ]


def cmd_equivalence(args) -> int:
    seed = getattr(args, "seed", None) or 0
    out = _out_dir(args)
    failed = False
    for name, err, tol in _equivalence_checks(args.trials, seed):
        state = "ok" if err < tol else "FAIL"
        failed = failed or err >= tol
        print(f"[{state}] {name}: max |err| = {err:.3e} (tol {tol:g})")
    rows = decompose.compare_aggregation_mechanisms(
        c=args.channels, k=args.kernels, l=args.latent, seed=seed
    )
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
    if getattr(args, "golden", False):
        failed = False
        for result in check_golden():
            print(result.line())
            failed = failed or not result.ok
        for row_id, build, target, tol in STATIC_INVARIANTS:
            params = count_params(build()).total_params
            ok = abs(params - target) <= tol
            state = "ok" if ok else "FAIL"
            print(f"[{state}] {row_id}: params={params} in [{target - tol}, {target + tol}]")
            failed = failed or not ok
        return 1 if failed else 0

    model = _model_from_args(args, _load_cfg(args))
    report = count_model(model, args.resolution or model.resolution)
    lines = report.csv_lines() if args.csv else report.table_lines()
    out = getattr(args, "out", None)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text("\n".join(lines) + "\n")
        print(f"{model.name}: wrote {Path(out)}")
    else:
        print("\n".join(lines))
    return 0


def cmd_analyze_phi(args) -> int:
    cfg = _load_cfg(args)
    model = _model_from_args(args, cfg)
    if getattr(args, "ckpt", None):
        ckpt.load_into(model, args.ckpt)
    seed = getattr(args, "seed", None) or 0
    if model.name.startswith("task/"):
        _, val_set = make_task_from_config(dict(cfg) | {"task.seed": str(seed)})
        x = val_set.inputs[: args.samples]
    else:
        rng = np.random.default_rng(seed)
        res = args.resolution or model.resolution
        x = rng.normal(size=(args.samples, model.input_channels, res, res))
    report = phi_statistics(model, x)
    lines = report.csv_lines()
    out = getattr(args, "out", None)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print(f"{model.name}: wrote {path}")
    else:
        print("\n".join(lines))
    return 0


def cmd_bench(args) -> int:
    model = _model_from_args(args, _load_cfg(args))
    seed = getattr(args, "seed", None) or 0
    report = bench_pair(model, batch=args.batch, resolution=args.resolution,
                        repeats=args.repeats, warmup=args.warmup, seed=seed)
    print("\n".join(report.lines() + [environment_line()]))
    out = getattr(args, "out", None)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(report.csv_lines()) + "\n")
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", type=Path, help="run configuration file")
    common.add_argument("--seed", type=int, help="override the RNG seed")
    common.add_argument("--out", type=Path, help="output file or directory")
    common.add_argument("--golden", action="store_true",
                        help="check reference budgets (count subcommand)")

    parser = argparse.ArgumentParser(prog="dynconv", parents=[common],
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common], help="fit a model on a synthetic task")
    p.add_argument("--model", default=None, help="zoo id (default task_dcd)")
    p.add_argument("--epochs", type=int, default=None, help="override train.epochs")
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
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--kernels", type=int, default=4)
    p.add_argument("--latent", type=int, default=4)
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("count", parents=[common], help="parameter and MAdds tables")
    p.add_argument("model", nargs="?", default=None, help="zoo id")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p.add_argument("--resolution", type=int, default=None)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("analyze-phi", parents=[common],
                       help="coefficient-variation statistics")
    p.add_argument("model", nargs="?", default=None, help="zoo id (default task_dcd)")
    p.add_argument("--ckpt", type=Path, default=None,
                   help="load trained weights before analyzing")
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--resolution", type=int, default=None)
    p.set_defaults(func=cmd_analyze_phi)

    p = sub.add_parser("bench", parents=[common],
                       help="forward timing against the static twin")
    p.add_argument("model", nargs="?", default=None, help="zoo id (default task_dcd)")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--repeats", type=int, default=20)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--resolution", type=int, default=None)
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
