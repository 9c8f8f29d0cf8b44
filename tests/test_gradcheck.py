import numpy as np
import pytest

from dynconv.gradcheck import VARIANTS, variant_gradcheck


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_gradients_match_finite_differences(variant):
    report = variant_gradcheck(variant, seed=0, tol=1e-6, max_coords=24)
    assert report.passed, report
    assert report.max_rel_err < 1e-6


def test_input_gradient_is_checked():
    report = variant_gradcheck("dcd_pointwise", seed=0, max_coords=8)
    assert any(e.name == "input" for e in report.entries)


def test_every_learnable_tensor_is_checked():
    report = variant_gradcheck("dcd_full_kxk", seed=0, max_coords=4)
    names = {e.name for e in report.entries}
    for expected in ("d.w0", "d.p", "d.q", "d.r", "d.branch.w1", "d.branch.w2"):
        assert expected in names


def test_unknown_variant_raises():
    with pytest.raises(ValueError, match="unknown gradcheck variant"):
        variant_gradcheck("dcd_mystery")


@pytest.mark.parametrize("name,value", [("tol", float("nan")), ("tol", float("inf")), ("tol", 0.0), ("tol", -1.0),
                                        ("step", float("nan")), ("step", 0.0), ("step", -1e-5)])
def test_a_tolerance_or_step_that_certifies_nothing_is_refused(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {value}$"):
        variant_gradcheck("dcd_pointwise", seed=0, max_coords=1, **{name: value})
