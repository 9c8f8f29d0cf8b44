"""End-to-end acceptance checks.

Each test verifies one acceptance criterion and records exactly one
``[PASS]``/``[FAIL]`` line, echoed in the terminal summary (see
``conftest.record_criterion``), then asserts.  Tolerances are pinned in
the assertions.
"""

import time

import numpy as np

from dynconv import decompose
from dynconv.counting import dcd_complexity_formula
from dynconv.gradcheck import VARIANTS, variant_gradcheck
from dynconv.layers import DcdConv, LatentDims, default_latent_dim
from dynconv.models import check_golden, golden_rows
from dynconv.task import build_task_model, make_context_gated
from dynconv.train import run_sweep, train
from dynconv.config import RunConfig
from dynconv.checkpoint import load_into, save_model


def _report(ok: bool, label: str, detail: str) -> None:
    from conftest import record_criterion

    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    record_criterion(line)
    assert ok, line


def _value_lift(p):
    return p.value


def test_criterion_1_attention_aggregation_equals_reformulation():
    """Mixing K kernels by attention equals the mean-plus-SVD-residual form."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    worst = 0.0
    for i in range(100):
        c = (4, 8, 16)[i % 3]
        k = (2, 4)[i % 2]
        kernels = rng.standard_normal((k, c, c))
        att = np.exp(rng.standard_normal((5, k)))
        att /= att.sum(axis=1, keepdims=True)
        direct = np.einsum("nk,kij->nij", att, kernels)
        reformed = decompose.aggregate_decomposed(att, decompose.residual_decompose(kernels))
        worst = max(worst, float(np.abs(direct - reformed).max()))
    elapsed = time.perf_counter() - start
    _report(
        worst < 1e-8 and elapsed < 10.0,
        "criterion 1 — aggregation reformulation identity",
        f"100 instances (C in 4/8/16, K in 2/4), max |err| = {worst:.3e} < 1e-8, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_rank1_expansions_match():
    """Both rank-1 expansions — K·C kernel terms and L² latent terms — resum exactly."""
    rng = np.random.default_rng(23)
    worst_kc = 0.0
    for i in range(50):
        c = (4, 8, 16)[i % 3]
        k = (2, 4)[i % 2]
        d = decompose.residual_decompose(rng.standard_normal((k, c, c)))
        att = np.exp(rng.standard_normal(k))
        att /= att.sum()
        residual = decompose.aggregate_decomposed(att[None, :], d)[0] - d.w0
        worst_kc = max(worst_kc, float(np.abs(decompose.rank1_expand(att, d) - residual).max()))

    worst_latent = 0.0
    layer = DcdConv("m", 12, 12, variant="pointwise", dims=LatentDims(l=3),
                    with_bn=False, activation=None,
                    rng=np.random.default_rng(3))
    layer.branch.w2.value = rng.normal(size=layer.branch.w2.value.shape)
    p, q = layer.p.value, layer.q.value
    for _ in range(50):
        pooled = rng.normal(size=(1, 12))
        lam, phi = layer.coefficients(pooled, _value_lift)
        weights = layer.weight_for(pooled, _value_lift)[..., 0, 0]
        residual = weights[0] - lam[0][:, None] * layer.w0.value
        phi_m = phi[0].reshape(3, 3)
        summed = np.zeros((12, 12))
        for i in range(3):
            for j in range(3):
                summed += phi_m[i, j] * np.outer(p[:, i], q[:, j])
        worst_latent = max(worst_latent, float(np.abs(summed - residual).max()))

    _report(
        worst_kc < 1e-9 and worst_latent < 1e-9,
        "criterion 2 — rank-1 expansions",
        f"50 instances each: K·C terms max |err| = {worst_kc:.3e}, "
        f"L² terms max |err| = {worst_latent:.3e}, both < 1e-9",
    )


def test_criterion_3_gradcheck_every_variant():
    """Analytic gradients match central differences for all seven mechanisms."""
    start = time.perf_counter()
    worst = 0.0
    failed = []
    for variant in VARIANTS:
        report = variant_gradcheck(variant, seed=0, tol=1e-6)
        worst = max(worst, report.max_rel_err)
        if not report.passed:
            failed.append(variant)
    elapsed = time.perf_counter() - start
    _report(
        not failed and elapsed < 300.0,
        "criterion 3 — gradient checks (7 variants, params + inputs)",
        f"max rel err = {worst:.3e} < 1e-6, {elapsed:.1f}s < 300s"
        + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_4_complexity_formula():
    """Cost formula: reference value, perfect-square closed form, and 4C² bound."""
    ref = dcd_complexity_formula(64, 8, 16)
    square_ok = all(
        dcd_complexity_formula(c, int(np.sqrt(c)), 16)
        == c * c + 3 * (c * c) // 16 + 2 * c * int(np.sqrt(c))
        for c in (16, 64, 256, 1024)
    )
    bound_ok = all(
        dcd_complexity_formula(c, default_latent_dim(c), 16) < 4 * c * c
        for c in range(8, 1025)
    )
    _report(
        ref == 5888 and square_ok and bound_ok,
        "criterion 4 — complexity formula",
        f"f(64,8,16) = {ref} == 5888; closed form holds at perfect squares; "
        "f(C, default L, 16) < 4C² for C in 8..1024",
    )


def test_criterion_5_golden_budget_rows():
    """Parameter and MAdds totals hit the reference windows for all six builds."""
    results = check_golden()
    bad = [r.row_id for r in results if not r.ok]
    summary = "; ".join(
        f"{r.row_id} params={r.params}" + (f" madds={r.madds}" if r.madds is not None else "")
        for r in results
    )
    _report(
        len(results) == 6 and not bad,
        "criterion 5 — reference budgets (6 rows)",
        summary + (f"; FAILED: {bad}" if bad else ""),
    )


def test_criterion_6_static_twin_bit_identity():
    """At init every dynamic model and its static twin produce identical logits."""
    rng = np.random.default_rng(7)
    checked = []
    ok = True
    for row in golden_rows():
        if not row.row_id.endswith("/dcd"):
            continue
        graph = row.build()
        twin = graph.static_twin()
        x = rng.normal(size=(2, graph.input_channels, 32, 32))
        same = np.array_equal(
            np.asarray(graph.forward(x, train=False)),
            np.asarray(twin.forward(x, train=False)),
        )
        ok = ok and same
        checked.append(f"{row.row_id}={'bit-identical' if same else 'DIFFERS'}")
    _report(
        ok and len(checked) == 4,
        "criterion 6 — static-twin logits at initialization (32×32, batch 2)",
        "; ".join(checked),
    )


def test_criterion_7_structural_weight_properties():
    """Block sparsity, center-slice confinement, and the rank-L residual bound."""
    rng = np.random.default_rng(31)

    sparse_ok = True
    for blocks in (2, 4, 8):
        layer = DcdConv("s", 16, 16, variant="block_sparse", blocks=blocks,
                        lambda_enabled=False, with_bn=False, activation=None,
                        rng=np.random.default_rng(blocks))
        layer.branch.w2.value = rng.normal(size=layer.branch.w2.value.shape)
        pooled = rng.normal(size=(3, 16))
        residual = layer.weight_for(pooled, _value_lift)[..., 0, 0] - layer.w0.value
        cb = 16 // blocks
        mask = np.zeros((16, 16), dtype=bool)
        for b in range(blocks):
            mask[b * cb : (b + 1) * cb, b * cb : (b + 1) * cb] = True
        sparse_ok = sparse_ok and np.all(residual[:, ~mask] == 0.0) and np.any(residual[:, mask] != 0.0)

    layer = DcdConv("c", 8, 8, k=3, variant="channel_only_kxk", padding=1,
                    lambda_enabled=False, with_bn=False, activation=None,
                    rng=np.random.default_rng(5))
    layer.branch.w2.value = rng.normal(size=layer.branch.w2.value.shape)
    pooled = rng.normal(size=(3, 8))
    weights = layer.weight_for(pooled, _value_lift).reshape(3, 8, 8, 9)  # (N, C_out, C_in, k²)
    center = (3 * 3) // 2
    w0 = layer.w0.value.reshape(8, 8, 9)  # (C_out, C_in, k²)
    center_ok = all(
        np.array_equal(weights[:, :, :, j], np.broadcast_to(w0[:, :, j], weights.shape[:3]))
        for j in range(9)
        if j != center
    ) and not np.array_equal(weights[:, :, :, center], np.broadcast_to(w0[:, :, center], weights.shape[:3]))

    layer = DcdConv("r", 16, 16, variant="pointwise", dims=LatentDims(l=4),
                    with_bn=False, activation=None,
                    rng=np.random.default_rng(9))
    layer.branch.w2.value = rng.normal(size=layer.branch.w2.value.shape)
    max_rank = 0
    for _ in range(50):
        pooled = rng.normal(size=(1, 16))
        lam, _ = layer.coefficients(pooled, _value_lift)
        weights = layer.weight_for(pooled, _value_lift)[..., 0, 0]
        residual = weights[0] - lam[0][:, None] * layer.w0.value
        max_rank = max(max_rank, decompose.numerical_rank(residual))
    rank_ok = max_rank <= 4

    _report(
        bool(sparse_ok and center_ok and rank_ok),
        "criterion 7 — structural weight properties",
        f"block-diagonal zero pattern exact for B=2/4/8; off-center slices static "
        f"for channel-only 3×3; residual rank ≤ 4 on 50 inputs (max seen {max_rank})",
    )


def test_criterion_8_context_gated_task_advantage(tmp_path):
    """Dynamic mixing beats the matched static net by ≥ 5 points on average."""
    start = time.perf_counter()
    results = run_sweep(tmp_path, seeds=(0, 1, 2))
    elapsed = time.perf_counter() - start
    static_mean = float(np.mean(results["static"]))
    dcd_mean = float(np.mean(results["dcd"]))
    curves = [tmp_path / f"vanilla_tau30_seed{s}.csv" for s in (0, 1, 2)]
    curves_ok = all(p.exists() and len(p.read_text().splitlines()) == 22 for p in curves)
    _report(
        dcd_mean >= static_mean + 0.05 and curves_ok and elapsed < 900.0,
        "criterion 8 — context-gated task (3 seeds, 20 epochs)",
        f"val acc static {static_mean:.4f} vs dynamic {dcd_mean:.4f} "
        f"(gap {dcd_mean - static_mean:+.4f} ≥ +0.05); "
        f"sharp-attention curves emitted; {elapsed:.0f}s < 900s",
    )


def test_criterion_9_checkpoint_and_log_reproducibility(tmp_path):
    """Checkpoints restore state bit-exactly; rerunning training reproduces logs byte-for-byte."""
    tr, va = make_context_gated(n_train=64, n_val=32, seed=0)
    cfg = RunConfig(lr=0.2, epochs=2, batch=32, seed=0)

    model = build_task_model(kind="dcd", seed=0)
    train(model, tr, va, cfg, csv_path=tmp_path / "a.csv")
    save_model(model, tmp_path / "m.ckpt")
    fresh = build_task_model(kind="dcd", seed=123)
    load_into(fresh, tmp_path / "m.ckpt")
    x = va.inputs[:8]
    bit_exact = np.array_equal(
        np.asarray(model.forward(x, train=False)),
        np.asarray(fresh.forward(x, train=False)),
    ) and all(
        a[0] == b[0] and np.array_equal(a[1], b[1])
        for a, b in zip(model.state_items(), fresh.state_items())
    )

    rerun = build_task_model(kind="dcd", seed=0)
    train(rerun, tr, va, cfg, csv_path=tmp_path / "b.csv")
    bytes_equal = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    _report(
        bit_exact and bytes_equal,
        "criterion 9 — persistence and reproducibility",
        f"checkpoint round-trip bit-exact: {bit_exact}; "
        f"repeated run metrics byte-identical: {bytes_equal}",
    )
