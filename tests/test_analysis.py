import numpy as np
import pytest

from dynconv import models
from dynconv.analysis import PhiReport, phi_statistics, two_pass_std
from dynconv.task import build_task_model


def test_two_pass_std_matches_explicit_loop():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(13, 5)) * 3.0 + 1.0
    got = two_pass_std(mat)
    for j in range(5):
        col = mat[:, j]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        assert abs(got[j] - var**0.5) < 1e-10


def test_two_pass_std_of_constant_column_is_zero():
    mat = np.full((6, 3), 2.5)
    assert np.all(two_pass_std(mat) == 0.0)


def _woken_model(seed=0):
    """Task model whose coefficient branch produces input-dependent output."""
    model = build_task_model(kind="dcd", seed=seed)
    mix = next(layer for layer, role, *_ in model.iter_layers() if role == "mix")
    rng = np.random.default_rng(42)
    mix.branch.w2.value = rng.normal(size=mix.branch.w2.value.shape) * 0.5
    return model, mix


def test_phi_statistics_reads_the_coefficients_the_forward_computes():
    model, mix = _woken_model()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 8, 16, 16))

    captured, coefficients = {}, mix.coefficients

    def spy(pooled, lift):
        lam, phi = coefficients(pooled, lift)
        captured.update(pooled=pooled, phi=phi)
        return lam, phi

    mix.coefficients = spy
    model.forward(x, train=False)
    del mix.coefficients

    report = phi_statistics(model, x)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.layer == "mix" and row.depth == 0
    assert row.entries == captured["phi"].shape[1]

    sigma = float(two_pass_std(captured["phi"]).mean())
    norm = float(two_pass_std(captured["pooled"]).mean())
    assert row.sigma_raw == sigma and row.sigma_normalized == sigma / norm
    assert row.sigma_raw > 0.0


def test_phi_statistics_single_sample_is_zero():
    model, _ = _woken_model()
    x = np.random.default_rng(2).normal(size=(1, 8, 16, 16))
    report = phi_statistics(model, x)
    assert report.rows[0].sigma_raw == 0.0
    assert report.rows[0].sigma_normalized == 0.0


def test_phi_statistics_requires_dynamic_layers():
    model = build_task_model(kind="static", seed=0)
    x = np.zeros((2, 8, 16, 16))
    with pytest.raises(ValueError, match="no dynamic-decomposed layers"):
        phi_statistics(model, x)


def test_phi_statistics_refuses_an_empty_batch():
    model, _ = _woken_model()
    with pytest.raises(ValueError, match="^phi statistics need at least one sample, got an empty batch$"):
        phi_statistics(model, np.zeros((0, 8, 16, 16)))


def test_phi_statistics_sets_the_layer_hook_it_found_again():
    model, _ = _woken_model()
    x = np.random.default_rng(3).normal(size=(2, 8, 16, 16))
    seen = []

    def hook(layer, h, run):
        seen.append(layer.name)
        return run()

    with models.layer_hook(hook):
        phi_statistics(model, x)
        with pytest.raises(ValueError, match="expects"):
            phi_statistics(model, x[:, :4])
        assert models._layer_hook is hook and not seen
    assert models._layer_hook is None


def test_csv_lines_carry_metadata_then_header():
    model, _ = _woken_model()
    x = np.random.default_rng(4).normal(size=(3, 8, 16, 16))
    lines = phi_statistics(model, x).csv_lines()
    meta = [line for line in lines if line.startswith("# ")]
    assert any("pooling=global-average" in line for line in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "layer,depth,entries,sigma_raw,sigma_normalized"
    assert len(lines) == header_idx + 2  # one dcd layer


def test_zero_variation_normalizer_guard():
    report = PhiReport()
    # direct check of the guard convention: zero spread and zero normalizer
    # must not divide; the report stores 0 for both fields
    model, mix = _woken_model()
    x = np.ones((4, 8, 16, 16))  # identical samples -> zero variation
    report = phi_statistics(model, x)
    assert report.rows[0].sigma_raw == 0.0
    assert report.rows[0].sigma_normalized == 0.0
