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
