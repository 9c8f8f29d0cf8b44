"""Run one benchmark workload against the dynconv sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics, measured with no
wrappers installed; with ``--trace 1`` it prints the per-layer metrics of a
traced run.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the environment block and run details.  See perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pinned before numpy is imported; same-seed logs are only byte-identical at
# a fixed BLAS thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(SRC))
WORKLOADS = ("train_sweep", "infer_resnet18", "serve_mobilenetv2")
SETUPS = 3  # set-ups (and imports) per untraced run; setup_s reports their median
# The tail is p75: higher percentiles of normalised sub-millisecond forwards
# follow bursts of host stalls and spread by 0.2-0.36 between runs.
TAIL_PCT = 75.0


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def nearest_rank(xs: list[float], pct: float) -> float:
    """Smallest sample with at least pct% of the samples at or below it."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered) - 1e-9), 1) - 1]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dynconv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        revision = proc.stdout.strip() or revision
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
    }


def merge(into, rec) -> None:
    into.attempted += rec.attempted
    into.failed += rec.failed
    into.failures += rec.failures
    for key, n in rec.counts.items():
        into.counts[key] = into.counts.get(key, 0) + n


def child_import_s() -> float:
    """Import time of this file in a fresh interpreter (``--import-only``)."""
    proc = subprocess.run([sys.executable, __file__, "--import-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def end_to_end(samples: dict, setups: list[float], rec) -> dict:
    """The end-to-end metrics of one run, from normalised or from wall timings."""
    from workloads import BATCH

    def images_per_s(key: str) -> float:
        return BATCH / median(samples[key]) if samples.get(key) else 0.0

    return {
        "setup_s": (median(setups), "s"),
        # every round does the same work, so this is work over time in all rounds
        "samples_per_s": (statistics.harmonic_mean(samples["samples_per_s"]), "1/s"),
        "dyn_b1_ms_p50": (1e3 * median(samples.get("dyn_b1", [])), "ms"),
        "dyn_b1_ms_p75": (1e3 * nearest_rank(samples.get("dyn_b1", []), TAIL_PCT), "ms"),
        "dyn_b8_images_per_s": (images_per_s("dyn_b8"), "1/s"),
        "twin_b1_ms_p50": (1e3 * median(samples.get("twin_b1", [])), "ms"),
        "twin_b8_images_per_s": (images_per_s("twin_b8"), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "success_rate": ((rec.attempted - rec.failed) / max(rec.attempted, 1), "ratio"),
    }


def measure(workload, seed: int, seconds: float, import_s: float):
    """Untraced run: SETUPS imports and set-ups, then closed-loop rounds for `seconds`.

    The first import is this process's own; the others run in child
    processes, so that setup_s is a median of whole set-ups.  Metrics come
    from host-speed-normalised timings (speed.py); details["wall_metrics"]
    has them from wall times.
    """
    import workloads as W
    from speed import REF_S, SPEED

    rec = W.Record()
    imports = [(import_s, import_s * REF_S / SPEED.probe())]  # (wall, normalised)
    for _ in range(SETUPS - 1):
        wall, t, child_s = SPEED.time(child_import_s)
        imports.append((child_s, child_s * t / wall))
    setups = []
    for import_wall, import_t in imports:
        wall, t, state = SPEED.time(workload.setup, seed)
        setups.append((import_wall + wall, import_t + t))
        if "setup_record" in state:
            merge(rec, state["setup_record"])
    rounds, start = 0, time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        workload.round(state, rounds, rec)
        rounds += 1
    measured_s = time.perf_counter() - start

    metrics = end_to_end(rec.samples, [t for _, t in setups], rec)
    wall_metrics = end_to_end(rec.wall, [wall for wall, _ in setups], rec)
    details = {
        "wall_metrics": {name: value for name, (value, _) in wall_metrics.items()},
        "probe_ms": {"median": 1e3 * median(SPEED.probes), "count": len(SPEED.probes)},
        "import_s": [wall for wall, _ in imports],
        "setup_wall_s": [wall for wall, _ in setups],
        "rounds": rounds,
        "measured_s": measured_s,
        "samples": {key: len(v) for key, v in rec.samples.items()},
        "error_rate": rec.failed / max(rec.attempted, 1),
    }
    return rec, metrics, details


def traced(workload, seed: int, seconds: float, trace_path: Path):
    """Pairs of one untraced and one traced (set-up + round) until `seconds` pass."""
    import spans as S
    import workloads as W

    plain, rec = W.Record(), W.Record()
    tracer = S.Tracer()
    pairs, untraced_s, traced_s = 0, 0.0, 0.0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        state = workload.setup(seed)
        workload.round(state, 0, plain)
        untraced_s += time.perf_counter() - t0
        merge(plain, state.get("setup_record", W.Record()))

        tracer.run_id = pairs
        with tracer:
            t0 = time.perf_counter()
            root = tracer.open("bench.run")
            idx = tracer.open("bench.setup")
            state = workload.setup(seed)
            tracer.close(idx)
            idx = tracer.open("bench.round")
            workload.round(state, 0, rec)
            tracer.close(idx)
            tracer.close(root)
            traced_s += time.perf_counter() - t0
        merge(rec, state.get("setup_record", W.Record()))
        pairs += 1
    tracer.write(trace_path)

    metrics = S.per_layer_metrics(tracer, pairs)
    ps = plain.samples
    metrics["train.aborted_arms"] = (rec.counts.get("train.aborted_arms", 0) / pairs, "count")
    metrics["checkpoint.errors"] = (
        (tracer.counters["checkpoint.errors"] + rec.counts.get("checkpoint.errors", 0)) / pairs, "count")
    metrics["models.dyn_over_twin_time_b1"] = (median(ps["dyn_b1"]) / median(ps["twin_b1"]), "ratio")
    metrics["models.dyn_over_twin_time_b8"] = (median(ps["dyn_b8"]) / median(ps["twin_b8"]), "ratio")
    metrics["models.dyn_over_twin_counted_madds"] = (W.counted_ratio(*state["pair"]), "ratio")
    shares = S.module_shares(tracer)
    attributed = sum(v for k, v in shares.items() if k != "bench")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.attributed_frac"] = (attributed / traced_s, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / pairs, "count")

    merge(rec, plain)
    details = {
        "pairs": pairs,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "call_track_self_s": shares,
        "trace_file": trace_path.name,
        "error_rate": rec.failed / max(rec.attempted, 1),
    }
    return rec, metrics, details


def table(metrics: dict, details: dict, trace: bool) -> list[str]:
    if not trace:
        wall = details["wall_metrics"]
        lines = [f"{'metric':<24} {'normalised':>14} {'wall':>14}"]
        lines += [f"{name:<24} {value:>14.6g} {wall[name]:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines.append(f"host-speed probe median {details['probe_ms']['median']:.4f} ms over"
                     f" {details['probe_ms']['count']} probes")
        lines.append(f"{'error_rate':<24} {details['error_rate']:>14.6g} ratio")
        lines.append(f"{details['samples'].get('dyn_b1', 0)} dyn b1 samples;"
                     f" {details['rounds']} rounds in {details['measured_s']:.1f} s")
        return lines
    from spans import LAYER_KINDS

    m = {name: value for name, (value, _) in metrics.items()}
    lines = ["counted vs executed, per traced run:",
             f"{'layer kind':<18}{'calls':>8}{'counted MAdds':>16}{'self s':>10}{'weight_for s':>14}{'MAdds/s':>12}"]
    for kind in LAYER_KINDS:
        p = f"layers.{kind}"
        wf = m.get(f"{p}.weight_for_s")
        lines.append(f"{kind:<18}{m[p + '.calls']:>8.0f}{m[p + '.counted_madds']:>16.4g}{m[p + '.self_s']:>10.4f}"
                     f"{'-' if wf is None else format(wf, '.4f'):>14}{m[p + '.madds_per_s']:>12.4g}")
    lines.append(f"dyn/twin: counted MAdds {m['models.dyn_over_twin_counted_madds']:.3f}, "
                 f"measured b1 {m['models.dyn_over_twin_time_b1']:.3f}, b8 {m['models.dyn_over_twin_time_b8']:.3f}")
    total = details["traced_s"]
    lines.append(f"call-track self time over {total:.2f} s traced ({m['trace.overhead_frac']:+.1%} vs untraced):")
    for module, secs in sorted(details["call_track_self_s"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {module:<12}{secs:>10.3f} s {secs / total:>8.1%}")
    return lines


def load_program() -> str | None:
    """Import dynconv from this checkout's src/ and the workloads; the problem, if any."""
    try:
        import dynconv
    except ImportError as exc:
        return f"cannot import dynconv from {SRC}: {exc}"
    if Path(dynconv.__file__).resolve().parent != (SRC / "dynconv").resolve():
        return f"imported dynconv from {dynconv.__file__}, not {SRC}"
    import workloads  # noqa: F401
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--import-only"]:  # a child of measure(): time the imports and exit
        load_program()
        print(time.perf_counter() - T_START)
        return 0
    args = parser.parse_args(argv)

    problem = load_program()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - T_START
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.make_workloads(scratch=scratch)[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            rec, metrics, details = traced(workload, args.seed, args.seconds, OUT / f"{stem}.spans.jsonl")
        else:
            rec, metrics, details = measure(workload, args.seed, args.seconds, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    details["failures"] = rec.failures[:20]
    env = environment()
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    saved = {"environment": env, "details": details, **result, "samples": rec.samples, "wall_samples": rec.wall}
    (OUT / f"{stem}.json").write_text(json.dumps(saved, indent=1))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("\n".join(table(metrics, details, bool(args.trace))))
    print(json.dumps({"environment": env, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
