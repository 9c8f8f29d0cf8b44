"""Accounting tests: closed-form complexity, introspected parameter counts,
and per-layer multiply-add tallies under the declared conventions."""

import math

import numpy as np
import pytest

from dynconv.cli import resolve_model
from dynconv.counting import (
    CountReport,
    LayerCount,
    count_model,
    dcd_complexity_formula,
    executed_madds,
    layer_madds,
)
from dynconv.layers import (
    DcdConv,
    LatentDims,
    StaticConv,
    VanillaDynConv,
    default_latent_dim,
    materialises,
    plan_madds,
)
from dynconv.models import build_from_config, build_mobilenetv2, build_resnet


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
                   rng=np.random.default_rng(2))
    narrow = DcdConv("n", 64, 8, k=1, variant="pointwise", dims=LatentDims(l=4), squeeze=2,
                     rng=np.random.default_rng(2))
    from dynconv.counting import _assembly_madds

    assert _assembly_madds(wide) == 4 * 4 * 8 + 64 * 4 * 8     # Φ·Qᵀ first
    assert _assembly_madds(narrow) == 8 * 4 * 4 + 8 * 4 * 64   # P·Φ first
    # depthwise's P·Φ·Rᵀ by the same rule, Rᵀ (L_k × k²) in Qᵀ's place: Φ·Rᵀ first above k² = 9 channels
    for c, small in ((16, 4 * 4 * 9), (8, 8 * 4 * 4)):
        layer = DcdConv("d", c, c, k=3, variant="depthwise", dims=LatentDims(l=1, l_k=4), padding=1,
                        rng=np.random.default_rng(2))
        assert _assembly_madds(layer) == small + c * 4 * 9


def test_dcd_lambda_uses_cheaper_of_kernel_and_output_side():
    layer = DcdConv("d", 512, 512, k=3, variant="channel_only_kxk", dims=LatentDims(l=16),
                    padding=1, squeeze=32, rng=np.random.default_rng(3))
    madds_small, _ = layer_madds(layer, 7)     # 49·512 < 512·512·9
    madds_large, _ = layer_madds(layer, 112)   # kernel side wins
    from dynconv.counting import _assembly_madds

    conv7 = 512 * 512 * 9 * 49
    conv112 = 512 * 512 * 9 * 112 * 112
    common = _assembly_madds(layer) + 512 + 512 * 32 + 32 * layer.branch.d_out
    assert madds_small == conv7 + common + 49 * 512
    assert madds_large == conv112 + common + 512 * 512 * 9


def test_dcd_classifier_head_counted_by_associativity():
    layer = DcdConv("cls", 64, 10, k=1, variant="pointwise", dims=LatentDims(l=8), squeeze=8,
                    bias=True, with_bn=False, activation=None, rng=np.random.default_rng(4))
    madds, h_out = layer_madds(layer, 1)
    assert h_out == 1
    conv = 10 * 64
    branch = 64 + 64 * 8 + 8 * layer.branch.d_out
    dynamic = 64 * 8 + 8 * 8 + 8 * 10
    assert madds == executed_madds(layer, 1) == conv + branch + dynamic + 10
    # the block-sparse task layer (C = 8, B = 2, L = 4, squeeze 4) at 1×1: its conv (64),
    # branch (200) and factored chain C·L + B·L² + L·C + Λ's C = 104, each block's Φ counted
    graph = build_from_config({"model.family": "task", "model.sparse_blocks": "2"})
    mix = count_model(graph, 1).rows[0]
    assert (mix.name, mix.kind) == ("mix", "DcdConv/block_sparse")
    assert mix.madds == mix.executed_madds == 64 + 200 + 8 * 4 + 2 * 4 * 4 + 4 * 8 + 8


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
                    padding=1, squeeze=2, rng=np.random.default_rng(6))
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


def test_executed_madds_count_the_plan_the_forward_runs():
    """Conv and branch, then the materialised plan's assembly and Λ on the
    kernel at 8×8, or the factored chain Qᵀ, Φ, P and Λ on the output at
    2×2; depthwise charges Λ to its kernel even where the paper's count
    charges the smaller output; full k×k runs its factored chain."""
    layer = DcdConv("d", 16, 16, variant="pointwise", dims=LatentDims(l=4), squeeze=2,
                    rng=np.random.default_rng(1))
    branch = 16 + 16 * 2 + 2 * layer.branch.d_out
    assembly = 4 * 4 * 16 + 16 * 4 * 16
    assert executed_madds(layer, 8) == 16 * 16 * 64 + branch + assembly + 16 * 16
    assert executed_madds(layer, 2) == 16 * 16 * 4 + branch + 4 * (16 * 4 + 4 * 4 + 4 * 16) + 4 * 16
    dw = DcdConv("dw", 16, 16, k=3, variant="depthwise", padding=1, squeeze=2, rng=np.random.default_rng(5))
    l_k = dw.dims.l_k
    dw_branch = 16 + 16 * 2 + 2 * dw.branch.d_out
    assert executed_madds(dw, 2) == 16 * 9 * 4 + dw_branch + l_k * l_k * 9 + 16 * l_k * 9 + 16 * 9
    assert executed_madds(dw, 2) > layer_madds(dw, 2)[0]
    kxk = DcdConv("t", 16, 16, k=3, variant="full_kxk", dims=LatentDims(l=4, l_k=4), padding=1, squeeze=2,
                  rng=np.random.default_rng(6))
    kxk_branch = 16 + 16 * 2 + 2 * kxk.branch.d_out
    chain = 64 * 16 * 4 + 4 * 4 * 4 * 9 + 64 * (4 * 4 * 9 + 4 * 16)  # Qᵀ, Φ·Rᵀ, the k×k Φ conv, P
    assert executed_madds(kxk, 8) == 16 * 16 * 9 * 64 + kxk_branch + chain + 64 * 16
    # on a 1×1 input the W0 conv and the k×k Φ conv each run their one real tap
    assert executed_madds(kxk, 1) == 16 * 16 + kxk_branch + 16 * 4 + 4 * 4 * 4 * 9 + (4 * 4 + 4 * 16) + 16


@pytest.mark.parametrize("name,resolution,on_kernel", [("task_dcd", 16, 1), ("mobilenetv2_x0.5_dcd", 32, 12)])
def test_executed_madds_follow_the_plan_the_forward_picks(name, resolution, on_kernel):
    """Every pointwise DCD row executes its conv and branch plus the cheaper
    plan: task_dcd's layer at 16×16 materialises W(x), below its factored
    plan's count, and so do 12 of MobileNetV2-0.5-DCD's layers at 32×32."""
    graph = resolve_model(name)
    rows = {row.name: row for row in count_model(graph, resolution).rows}
    materialised_rows = 0
    for layer, _, h_in, _ in graph.iter_layers(resolution):
        if isinstance(layer, DcdConv):
            assert layer.variant == "pointwise"
            factored, materialised = plan_madds(layer, h_in, h_in)
            branch = layer.c_in + layer.c_in * layer.branch.squeeze + layer.branch.squeeze * layer.branch.d_out
            common = layer_madds(layer.static_equivalent(), h_in)[0] + branch
            assert rows[layer.name].executed_madds == common + min(factored, materialised)
            if materialises(layer, h_in, h_in):
                materialised_rows += 1
                assert rows[layer.name].executed_madds < common + factored
    assert materialised_rows == on_kernel


def test_executed_madds_charge_only_the_taps_the_conv_runs():
    """At 32×32, ResNet-18-DCD's stage-4 3×3 convs on 1×1 maps run one tap:
    C_out·C_in, then the branch and the factored chain Qᵀx, Φ, P and Λ,
    while the paper's count keeps all nine.  The stride-2 conv into stage 4
    reads four real pixels and runs those four taps; MobileNetV2-0.5's
    depthwise convs on 1×1 maps run one tap each, and the stride-2 one on a
    2×2 map the four its tap sum reaches."""
    graph = resolve_model("resnet18_dcd")
    rows = {row.name: row for row in count_model(graph, 32).rows}
    layers = {layer.name: (layer, h_in) for layer, _, h_in, _ in graph.iter_layers(32)}
    one_tap = [name for name, (layer, h_in) in layers.items() if getattr(layer, "k", 1) == 3 and h_in == 1]
    assert one_tap == ["s4b0.conv2", "s4b1.conv1", "s4b1.conv2"]
    for name in one_tap:
        layer = layers[name][0]
        c, l, s = 512, layer.dims.l, layer.branch.squeeze
        branch = c + c * s + s * layer.branch.d_out
        chain = c * l + l * l + l * c + c
        assert rows[name].executed_madds == c * c + branch + chain
        assert rows[name].madds == layer_madds(layer, 1)[0] > 9 * c * c
    layer, h_in = layers["s4b0.conv1"]
    c_in, c, l, s = 256, 512, layer.dims.l, layer.branch.squeeze
    assert h_in == 2 and layer.out_size(h_in) == 1
    branch = c_in + c_in * s + s * layer.branch.d_out
    chain = c_in * l + l * l + l * c + c
    assert rows["s4b0.conv1"].executed_madds == 4 * c * c_in + branch + chain
    assert rows["s4b0.conv1"].madds > 9 * c * c_in
    depthwise = {row.name: (row.madds, row.executed_madds)
                 for row in count_model(resolve_model("mobilenetv2_x0.5_dcd"), 32).rows if row.name.endswith(".dw")}
    assert depthwise["b13.dw"] == (288 * 9, 288 * 4)
    assert all(depthwise[f"b{i}.dw"] == (480 * 9, 480) for i in (14, 15, 16))


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
    assert lines[0] == "layer,kind,params,madds,executed_madds"
    assert lines[-1].startswith("TOTAL,")
    assert len(lines) == len(report.rows) + 2


def test_count_model_defaults_to_the_graph_resolution():
    graph = build_mobilenetv2(width=0.35, resolution=32, seed=1)
    report = count_model(graph)
    assert report.resolution == 32
    assert report.rows == count_model(graph, 32).rows
    assert report.total_madds > 0


@pytest.mark.parametrize("resolution", [0, -5])
def test_count_model_refuses_a_resolution_below_one(resolution):
    with pytest.raises(ValueError, match=f"^resolution must be >= 1, got {resolution}$"):
        count_model(build_resnet(depth=10, resolution=32, seed=0), resolution)


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
