"""Accounting tests: closed-form complexity, introspected parameter counts,
and per-layer multiply-add tallies under the declared conventions."""

import math

import numpy as np
import pytest

from dynconv.counting import (
    CountReport,
    LayerCount,
    count_model,
    count_params,
    dcd_complexity_formula,
    layer_madds,
)
from dynconv.layers import DcdConv, LatentDims, StaticConv, VanillaDynConv, default_latent_dim
from dynconv.models import build_mobilenetv2, build_resnet


# ---------------------------------------------------------------------------
# closed-form complexity


def test_complexity_formula_reference_value():
    assert dcd_complexity_formula(64, 8, 16) == 5888


def test_complexity_formula_matches_term_by_term_sum():
    for c, l, r in [(16, 4, 4), (64, 8, 16), (128, 16, 16), (96, 6, 8)]:
        w0 = c * c
        projections = 2 * c * l
        branch = (c // r) * (2 * c + l * l)
        assert dcd_complexity_formula(c, l, r) == w0 + projections + branch


def test_complexity_formula_sqrt_latent_closed_form():
    # with L = √C and r = 16 the total collapses to (1 + 3/16)·C² + 2·C^1.5
    for c in (16, 64, 256, 1024):
        l = math.isqrt(c)
        assert l * l == c
        expected = c * c + 3 * c * c // 16 + 2 * c * l
        assert dcd_complexity_formula(c, l, 16) == expected


def test_complexity_formula_stays_below_four_static_kernels():
    for c in range(8, 1025):
        l = default_latent_dim(c)
        assert dcd_complexity_formula(c, l, 16) < 4 * c * c


def test_complexity_formula_matches_introspection():
    c, l, r = 64, 8, 16
    layer = DcdConv("m", c, c, k=1, variant="pointwise", dims=LatentDims(l=l), r=float(r),
                    with_bn=False, rng=np.random.default_rng(3))
    weights = sum(p.value.size for p in layer.parameters() if not p.name.endswith((".b1", ".b2")))
    assert weights == dcd_complexity_formula(c, l, r)


# ---------------------------------------------------------------------------
# parameter introspection and categories


def test_static_conv_param_categories():
    layer = StaticConv("s", 8, 16, k=3, padding=1, bias=True, rng=np.random.default_rng(0))
    report = CountReport(rows=[])
    from dynconv.counting import _bucket_params

    total, cats = _bucket_params(layer, is_classifier=False)
    assert total == 16 * 8 * 9 + 16 + 32
    assert cats["static_kernel"] == 16 * 8 * 9 + 16
    assert cats["batch_norm"] == 32
    report.rows.append(LayerCount("s", "static", total, 0, cats))
    assert report.total_params == total


def test_dcd_param_categories_cover_every_scalar():
    layer = DcdConv("d", 16, 16, k=1, variant="pointwise", rng=np.random.default_rng(1))
    from dynconv.counting import _bucket_params

    total, cats = _bucket_params(layer, is_classifier=False)
    assert total == sum(p.value.size for p in layer.parameters())
    assert set(cats) <= {"static_kernel", "projections", "dynamic_branch", "batch_norm"}
    assert cats["static_kernel"] == 256
    assert cats["projections"] == 2 * 16 * layer.dims.l


def test_classifier_flag_rebuckets_everything():
    layer = StaticConv("fc", 32, 10, k=1, bias=True, with_bn=False, activation=None,
                       rng=np.random.default_rng(2))
    from dynconv.counting import _bucket_params

    total, cats = _bucket_params(layer, is_classifier=True)
    assert total == 32 * 10 + 10
    assert cats == {"classifier": total}


def test_vanilla_dynamic_param_categories():
    layer = VanillaDynConv("v", 16, 16, kernels=4, rng=np.random.default_rng(3))
    from dynconv.counting import _bucket_params

    total, cats = _bucket_params(layer, is_classifier=False)
    assert cats["static_kernel"] == 4 * 16 * 16
    assert total == sum(p.value.size for p in layer.parameters())


# ---------------------------------------------------------------------------
# multiply-add conventions


def test_static_conv_madds_formula():
    layer = StaticConv("s", 8, 16, k=3, stride=2, padding=1, rng=np.random.default_rng(0))
    madds, h_out = layer_madds(layer, 32)
    assert h_out == 16
    assert madds == 16 * 8 * 9 * 16 * 16


def test_grouped_conv_divides_by_groups():
    layer = StaticConv("g", 16, 16, k=3, padding=1, groups=16, rng=np.random.default_rng(0))
    madds, _ = layer_madds(layer, 8)
    assert madds == 16 * 1 * 9 * 64


def test_dcd_pointwise_madds_breakdown():
    c, l = 16, 4
    layer = DcdConv("d", c, c, k=1, variant="pointwise", dims=LatentDims(l=l), squeeze=2,
                    rng=np.random.default_rng(1))
    madds, _ = layer_madds(layer, 8)
    conv = c * c * 64
    branch = c + c * 2 + 2 * layer.branch.d_out
    assembly = min(l * l * c, c * l * l) + c * l * c
    lam = min(c * c, 64 * c)
    assert madds == conv + branch + assembly + lam


def test_dcd_assembly_uses_cheaper_association_order():
    wide = DcdConv("w", 8, 64, k=1, variant="pointwise", dims=LatentDims(l=4), squeeze=2,
                   rng=np.random.default_rng(2), enforce_budget=False)
    narrow = DcdConv("n", 64, 8, k=1, variant="pointwise", dims=LatentDims(l=4), squeeze=2,
                     rng=np.random.default_rng(2), enforce_budget=False)
    from dynconv.counting import _assembly_madds

    assert _assembly_madds(wide) == 4 * 4 * 8 + 64 * 4 * 8     # Φ·Qᵀ first
    assert _assembly_madds(narrow) == 8 * 4 * 4 + 8 * 4 * 64   # P·Φ first


def test_dcd_lambda_uses_cheaper_of_kernel_and_output_side():
    layer = DcdConv("d", 512, 512, k=3, variant="channel_only_kxk", dims=LatentDims(l=16),
                    padding=1, squeeze=32, rng=np.random.default_rng(3), enforce_budget=False)
    madds_small, _ = layer_madds(layer, 7)     # 49·512 < 512·512·9
    madds_large, _ = layer_madds(layer, 112)   # kernel side wins
    from dynconv.counting import _assembly_madds, _branch_madds

    conv7 = 512 * 512 * 9 * 49
    conv112 = 512 * 512 * 9 * 112 * 112
    common = _assembly_madds(layer) + _branch_madds(layer)
    assert madds_small == conv7 + common + 49 * 512
    assert madds_large == conv112 + common + 512 * 512 * 9


def test_dcd_classifier_head_counted_by_associativity():
    layer = DcdConv("cls", 64, 10, k=1, variant="pointwise", dims=LatentDims(l=8), squeeze=8,
                    bias=True, with_bn=False, activation=None, rng=np.random.default_rng(4),
                    enforce_budget=False)
    madds, h_out = layer_madds(layer, 1)
    assert h_out == 1
    conv = 10 * 64
    branch = 64 + 64 * 8 + 8 * layer.branch.d_out
    dynamic = 64 * 8 + 8 * 8 + 8 * 10
    assert madds == conv + branch + dynamic + 10


def test_depthwise_dcd_madds():
    layer = DcdConv("dw", 16, 16, k=3, variant="depthwise", padding=1, squeeze=2,
                    rng=np.random.default_rng(5))
    l_k = layer.dims.l_k
    madds, _ = layer_madds(layer, 8)
    conv = 16 * 1 * 9 * 64
    branch = 16 + 16 * 2 + 2 * layer.branch.d_out
    assembly = l_k * l_k * 9 + 16 * l_k * 9
    lam = min(16 * 9, 64 * 16)
    assert madds == conv + branch + assembly + lam


def test_full_kxk_dcd_madds_mode_chain():
    layer = DcdConv("t", 16, 16, k=3, variant="full_kxk", dims=LatentDims(l=4, l_k=4),
                    padding=1, squeeze=2, rng=np.random.default_rng(6), enforce_budget=False)
    madds, _ = layer_madds(layer, 8)
    conv = 16 * 16 * 9 * 64
    branch = 16 + 16 * 2 + 2 * layer.branch.d_out
    assembly = 16 * 4 * 4 * 4 + 16 * 16 * 4 * 4 + 16 * 16 * 4 * 9
    lam = min(16 * 16 * 9, 64 * 16)
    assert madds == conv + branch + assembly + lam


def test_vanilla_dynamic_madds():
    layer = VanillaDynConv("v", 16, 32, kernels=4, reduction=4, rng=np.random.default_rng(7))
    madds, _ = layer_madds(layer, 8)
    conv = 32 * 16 * 64
    branch = 16 + 16 * 4 + 4 * 4
    mixing = 4 * 32 * 16
    assert madds == conv + branch + mixing


def test_block_sparse_assembly_counts_per_block():
    layer = DcdConv("bs", 16, 16, k=1, variant="block_sparse", blocks=4, squeeze=2,
                    rng=np.random.default_rng(8))
    from dynconv.counting import _assembly_madds

    l = layer.dims.l
    assert _assembly_madds(layer) == 4 * (l * l * 4 + 4 * l * 4)


# ---------------------------------------------------------------------------
# whole-model reports


def test_count_report_totals_and_csv():
    graph = build_mobilenetv2(width=0.35, resolution=32, seed=1)
    report = count_model(graph, 32)
    assert report.total_params == sum(r.params for r in report.rows)
    assert report.total_madds == sum(r.madds for r in report.rows)
    cats = report.category_totals()
    assert sum(cats.values()) == report.total_params
    assert cats["classifier"] > 0
    lines = report.csv_lines()
    assert lines[0] == "layer,kind,params,madds"
    assert lines[-1].startswith("TOTAL,")
    assert len(lines) == len(report.rows) + 2


def test_params_only_report_skips_madds():
    graph = build_mobilenetv2(width=0.35, resolution=32, seed=1)
    report = count_params(graph)
    assert report.resolution is None
    assert report.total_madds == 0
    assert report.total_params > 0


def test_classifier_exclusion_matches_manual_subtraction():
    graph = build_resnet(depth=10, resolution=32, seed=0)
    report = count_model(graph, 32)
    fc_rows = [r for r in report.rows if "classifier" in r.categories]
    assert len(fc_rows) == 1
    assert report.params_excluding_classifier() == report.total_params - fc_rows[0].params
    assert report.madds_excluding_classifier() == report.total_madds - fc_rows[0].madds


def test_global_pool_counts_channel_reads():
    graph = build_resnet(depth=10, resolution=32, seed=0)
    report = count_model(graph, 32)
    pool_rows = [r for r in report.rows if r.kind == "global_pool"]
    assert len(pool_rows) == 1
    assert pool_rows[0].madds == 512
    max_rows = [r for r in report.rows if r.kind == "max_pool"]
    assert len(max_rows) == 1 and max_rows[0].madds == 0


def test_table_lines_render():
    graph = build_resnet(depth=10, resolution=32, seed=0)
    lines = count_model(graph, 32).table_lines()
    assert any(line.startswith("categories:") for line in lines)
    assert any("TOTAL" in line for line in lines)
