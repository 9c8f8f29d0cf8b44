"""Tensor kernel tests: reference kernels against independent loop oracles
(bit-exact), BLAS kernels against reference kernels (tolerance)."""

import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynconv import autodiff as ad
from dynconv import tensor as T


# ---------------------------------------------------------------------------
# oracles


def matmul_oracle(a, b):
    """Scalar triple loop, summing left-to-right over the inner index."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_oracle(x, w, stride=1, padding=0):
    """Seven explicit loops; accumulation ordered (c_in, dy, dx)."""
    n, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    out = np.zeros((n, co, ho, wo))
    for b in range(n):
        for o in range(co):
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for c_i in range(ci):
                        for dy in range(kh):
                            for dx in range(kw):
                                acc += w[o, c_i, dy, dx] * xp[b, c_i, y * stride + dy, xx * stride + dx]
                    out[b, o, y, xx] = acc
    return out


def jacobi_eigvals(sym, sweeps=100, tol=1e-14):
    """Two-sided cyclic Jacobi eigenvalues of a symmetric matrix.

    Independent of the library's one-sided SVD: rotates the matrix itself,
    not a column basis.
    """
    a = sym.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol * max(1.0, math.sqrt(sum(a[p, p] ** 2 for p in range(n)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


# ---------------------------------------------------------------------------
# matmul


def test_matmul_matches_triple_loop_exactly():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    got = T.matmul_reference(a, b)
    want = matmul_oracle(a, b)
    assert got.shape == (5, 3)
    assert np.array_equal(got, want)


def test_matmul_associativity_within_tolerance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 5))
        c = rng.standard_normal((5, 3))
        left = T.matmul(T.matmul(a, b), c)
        right = T.matmul(a, T.matmul(b, c))
        denom = max(np.max(np.abs(left)), 1e-30)
        assert np.max(np.abs(left - right)) / denom < 1e-9


def test_matmul_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


def test_matmul_identity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    assert np.array_equal(T.matmul(a, np.eye(6)), a)


# ---------------------------------------------------------------------------
# svd


def svd_invariants(a, res):
    m, n = a.shape
    r = res.s.shape[0]
    recon = res.u @ np.diag(res.s) @ res.v.T
    assert np.max(np.abs(recon - a)) < 1e-10
    assert np.max(np.abs(res.u.T @ res.u - np.eye(r))) < 1e-10
    assert np.max(np.abs(res.v.T @ res.v - np.eye(r))) < 1e-10
    assert np.all(res.s >= 0)
    assert np.all(np.diff(res.s) <= 1e-12)


def test_svd_reconstruction_and_eigenvalue_oracle():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((8, 5))
    res = T.svd(a)
    svd_invariants(a, res)
    eig = jacobi_eigvals(a.T @ a)
    eig = np.clip(eig, 0.0, None)
    assert np.max(np.abs(np.sqrt(eig) - res.s)) < 1e-8


def test_svd_rank_deficient_trailing_zeros():
    rng = np.random.default_rng(29)
    b = rng.standard_normal((6, 3))
    c = rng.standard_normal((3, 6))
    a = b @ c  # rank 3
    res = T.svd(a)
    svd_invariants(a, res)
    assert np.all(res.s[3:] == 0.0)
    assert np.all(res.s[:3] > 1e-8)


def test_svd_wide_matrix():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 9))
    res = T.svd(a)
    svd_invariants(a, res)


def test_svd_random_square_sweep():
    rng = np.random.default_rng(37)
    for n in (2, 5, 16):
        a = rng.standard_normal((n, n))
        res = T.svd(a)
        svd_invariants(a, res)
        eig = np.clip(jacobi_eigvals(a.T @ a), 0.0, None)
        assert np.max(np.abs(np.sqrt(eig) - res.s)) < 1e-8


# ---------------------------------------------------------------------------
# conv2d


def test_conv1x1_equals_per_pixel_matmul_exactly():
    rng = np.random.default_rng(41)
    x = rng.standard_normal((2, 6, 5, 4))
    w = rng.standard_normal((3, 6, 1, 1))
    got = T.conv2d_reference(x, w)
    n, c, h, wd = x.shape
    for b in range(n):
        pix = x[b].reshape(c, h * wd)
        want = T.matmul_reference(w.reshape(3, 6), pix).reshape(3, h, wd)
        assert np.array_equal(got[b], want)


def test_conv2d_matches_seven_loop_oracle():
    rng = np.random.default_rng(43)
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((4, 3, 3, 3))
    got = T.conv2d_reference(x, w, stride=1, padding=1)
    want = conv2d_oracle(x, w, stride=1, padding=1)
    assert got.shape == want.shape == (2, 4, 8, 8)
    assert np.array_equal(got, want)


def test_conv2d_stride_padding_shape_law():
    rng = np.random.default_rng(47)
    for h, k, s, p in [(8, 3, 2, 1), (7, 3, 1, 0), (16, 5, 2, 2), (9, 1, 2, 0)]:
        x = rng.standard_normal((1, 2, h, h))
        w = rng.standard_normal((3, 2, k, k))
        out = T.conv2d_reference(x, w, stride=s, padding=p)
        expect = (h + 2 * p - k) // s + 1
        assert out.shape == (1, 3, expect, expect)
        assert np.array_equal(out, conv2d_oracle(x, w, stride=s, padding=p))


def test_depthwise_conv_matches_per_channel_oracle():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((2, 4, 6, 6))
    w = rng.standard_normal((4, 1, 3, 3))
    got = T.conv2d_reference(x, w, stride=1, padding=1, groups=4)
    for c in range(4):
        want = conv2d_oracle(x[:, c : c + 1], w[c : c + 1], stride=1, padding=1)
        assert np.array_equal(got[:, c : c + 1], want)


def _reference_conv(x, w, stride, padding, groups):
    """conv2d_reference per sample for a per-sample (5-d) kernel."""
    if w.ndim == 4:
        return T.conv2d_reference(x, w, stride, padding, groups)
    return np.concatenate([T.conv2d_reference(x[i : i + 1], w[i], stride, padding, groups) for i in range(len(x))])


def _reference_grad(f, shape, g):
    """Gradient of <g, f(v)> for a linear f, one reference conv per basis tensor."""
    out = np.empty(math.prod(shape))
    for j in range(out.size):
        e = np.zeros(out.size)
        e[j] = 1.0
        out[j] = np.sum(g * f(e.reshape(shape)))
    return out.reshape(shape)


def assert_rel_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize(
    "xshape,wshape,stride,padding,groups",
    [
        pytest.param((2, 4, 5, 5), (3, 4, 1, 1), 1, 0, 1, id="k1"),
        pytest.param((2, 4, 7, 7), (6, 4, 3, 3), 2, 1, 1, id="k3-stride2-pad1"),
        pytest.param((2, 4, 6, 6), (4, 1, 3, 3), 1, 1, 4, id="depthwise"),
        pytest.param((2, 4, 6, 6), (6, 2, 3, 3), 2, 0, 2, id="groups2-stride2"),
        pytest.param((3, 4, 5, 5), (3, 5, 4, 3, 3), 1, 1, 1, id="per-sample-k3"),
        pytest.param((2, 4, 5, 5), (2, 4, 1, 3, 3), 2, 1, 4, id="per-sample-depthwise"),
        pytest.param((2, 4, 5, 5), (2, 3, 4, 1, 1), 1, 0, 1, id="per-sample-k1"),
        pytest.param((2, 4, 1, 1), (5, 4, 3, 3), 1, 1, 1, id="1x1-spatial"),
        pytest.param((2, 4, 1, 1), (2, 5, 4, 1, 1), 1, 0, 1, id="1x1-spatial-per-sample"),
    ],
)
def test_blas_kernels_and_conv_vjps_match_reference_kernels(xshape, wshape, stride, padding, groups):
    rng = np.random.default_rng(59)
    x = rng.standard_normal(xshape)
    w = rng.standard_normal(wshape)
    kh, kw = wshape[-2:]
    cols = T.im2col(x, kh, kw, stride, padding)
    kg = cols.shape[1] // groups
    for i in range(len(x)):
        wi = (w[i] if w.ndim == 5 else w).reshape(groups, -1, kg)
        for grp in range(groups):
            a, b = wi[grp], cols[i, grp * kg : (grp + 1) * kg]
            assert_rel_close(T.matmul(a, b), T.matmul_reference(a, b))
            assert_rel_close(T.matmul(b.T, a.T), T.matmul_reference(b.T, a.T))

    want = _reference_conv(x, w, stride, padding, groups)
    assert_rel_close(T.conv2d(x, w, stride, padding, groups), want)

    g = rng.standard_normal(want.shape)
    xp, wp = ad.Parameter("x", x), ad.Parameter("w", w)
    tape = ad.Tape()
    out = ad.conv2d(tape.leaf(x, param=xp), tape.leaf(w, param=wp), stride, padding, groups)
    grads = ad.backward(ad.sum_all(ad.mul(out, g)))
    assert_rel_close(grads[xp], _reference_grad(lambda e: _reference_conv(e, w, stride, padding, groups), xshape, g))
    assert_rel_close(grads[wp], _reference_grad(lambda e: _reference_conv(x, e, stride, padding, groups), wshape, g))


@pytest.mark.parametrize("wshape,groups", [((6, 4, 1, 1), 1), ((8, 6, 4, 1, 1), 1), ((4, 2, 1, 1), 2)],
                         ids=["shared", "per-sample", "grouped"])
def test_pointwise_conv_is_one_matmul_on_a_view_of_x(wshape, groups):
    """A 1×1 stride-1 unpadded conv contracts a reshaped view of `x`,
    matches the reference kernel, keeps the bits of the patch-matrix product,
    and a batch of 8 equals the 8 stacked single-sample convs bit for bit."""
    rng = np.random.default_rng(67)
    x = rng.standard_normal((8, 4, 5, 3))
    w = rng.standard_normal(wshape)
    cols = T.im2col(x, 1, 1, 1, 0)
    assert np.shares_memory(cols, x)
    got = T.conv2d(x, w, groups=groups)
    assert_rel_close(got, _reference_conv(x, w, 1, 0, groups))
    wmat = w.reshape(w.shape[:-4] + (groups, wshape[-4] // groups, 4 // groups))
    assert np.array_equal(got, np.matmul(wmat, x.reshape(8, groups, 4 // groups, 15)).reshape(got.shape))
    rows = [T.conv2d(x[i : i + 1], w[i : i + 1] if w.ndim == 5 else w, groups=groups) for i in range(8)]
    assert np.array_equal(got, np.concatenate(rows))


def test_as_tensor_keeps_the_shape_and_copies_only_when_needed():
    assert T.as_tensor(np.asarray(3)).shape == () and T.as_tensor(np.asarray(3)).dtype == np.float64
    c = np.arange(4.0)
    assert T.as_tensor(c) is c
    for raw in (np.arange(12.0).reshape(3, 4)[:, ::2], np.asfortranarray(np.arange(6.0).reshape(2, 3))):
        out = T.as_tensor(raw)
        assert out.flags.c_contiguous and np.array_equal(out, raw) and not np.shares_memory(out, raw)


def test_conv2d_and_im2col_reject_an_empty_output():
    for x, k in ((np.zeros((1, 2, 0, 4)), 1), (np.zeros((1, 2, 2, 2)), 3)):
        with pytest.raises(ValueError, match="empty conv output"):
            T.conv2d(x, np.zeros((3, 2, k, k)))
        with pytest.raises(ValueError, match="empty conv output"):
            T.im2col(x, k, k, 1, 0)


def im2col_oracle(x, kh, kw, stride, padding):
    """Patch rows read one entry at a time; positions outside `x` read 0."""
    n, c, h, w = x.shape
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c, kh, kw, ho, wo))
    for ci, dy, dx, y, xx in itertools.product(range(c), range(kh), range(kw), range(ho), range(wo)):
        sy, sx = y * stride + dy - padding, xx * stride + dx - padding
        if 0 <= sy < h and 0 <= sx < w:
            out[:, ci, dy, dx, y, xx] = x[:, ci, sy, sx]
    return out.reshape(n, c * kh * kw, ho * wo)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3])
def test_im2col_pads_with_zeros_and_leaves_input_unchanged(k, padding, stride):
    x = np.random.default_rng(61).standard_normal((2, 3, 5, 4))
    before = x.copy()
    got = T.im2col(x, k, k, stride, padding)
    assert got.tobytes() == im2col_oracle(x, k, k, stride, padding).tobytes()
    assert x.tobytes() == before.tobytes()


def test_conv2d_rejects_mismatched_per_sample_kernels():
    with pytest.raises(ValueError):
        T.conv2d(np.zeros((2, 3, 4, 4)), np.zeros((3, 5, 3, 1, 1)))
    with pytest.raises(ValueError):
        T.conv2d(np.zeros((2, 3, 4, 4)), np.zeros((5, 3, 1)))


# ---------------------------------------------------------------------------
# stacked products split by sample


@pytest.mark.parametrize(
    "xshape,wshape,padding,groups",
    [
        pytest.param((8, 512, 4, 4), (512, 512, 3, 3), 1, 1, id="512to512-k3"),
        pytest.param((8, 16, 6, 6), (8, 12, 16, 3, 3), 1, 1, id="per-sample-k3"),
        pytest.param((3, 16, 6, 6), (3, 12, 16, 3, 3), 0, 1, id="per-sample-k3-batch3"),
        pytest.param((8, 32, 8, 8), (32, 1, 3, 3), 1, 32, id="depthwise"),
    ],
)
def test_split_conv2d_and_its_vjps_keep_every_bit(split_and_serial, xshape, wshape, padding, groups):
    rng = np.random.default_rng(71)
    x, w = rng.standard_normal(xshape), rng.standard_normal(wshape)
    g = rng.standard_normal(T.conv2d(x, w, 1, padding, groups).shape)

    def conv_and_grads():
        xp, wp = ad.Parameter("x", x), ad.Parameter("w", w)
        tape = ad.Tape()
        out = ad.conv2d(tape.leaf(x, param=xp), tape.leaf(w, param=wp), 1, padding, groups)
        grads = ad.backward(ad.sum_all(ad.mul(out, g)))
        return out.value, grads[xp], grads[wp]

    split, serial = split_and_serial(conv_and_grads)
    for got, want in zip(split, serial):
        assert np.array_equal(got, want)
    rows = [T.conv2d(x[i : i + 1], w[i : i + 1] if w.ndim == 5 else w, 1, padding, groups) for i in range(len(x))]
    assert np.array_equal(split[0], np.concatenate(rows))


def test_split_classifier_row_product_keeps_every_bit(split_and_serial):
    rng = np.random.default_rng(73)
    a, b = rng.standard_normal((8, 1280)), rng.standard_normal((1280, 1000))
    split, serial = split_and_serial(lambda: T.matmul(a, b))
    assert np.array_equal(split, serial)
    assert np.array_equal(split, np.concatenate([T.matmul(a[i : i + 1], b) for i in range(8)]))


def test_split_products_from_many_threads_share_one_pool(monkeypatch):
    """Six threads split products into five chunks each at once, on a pool
    they create together: every result equals the whole product."""
    monkeypatch.setattr(T, "SPLIT_MIN_MADDS", 0)
    monkeypatch.setattr(T, "contraction_workers", lambda: 5)
    monkeypatch.setattr(T, "_pool", None)
    rng = np.random.default_rng(97)
    a, b = rng.standard_normal((7, 64)), rng.standard_normal((64, 48))
    want = np.matmul(a[:, None, :], b)[:, 0, :]
    results = []

    def work():
        results.extend(np.array_equal(T.matmul(a, b), want) for _ in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        pool = T._pool
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 300
    pool.shutdown()


_SPLIT_THEN_FORK = """
import os, signal, numpy as np
from dynconv import tensor as T
T.SPLIT_MIN_MADDS = 0
a, b = np.random.default_rng(101).standard_normal((2, 8, 8))
want = T.matmul(a, b)
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child stuck on the parent's pool ends here
    os._exit(0 if np.array_equal(T.matmul(a, b), want) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_split_in_a_forked_child_makes_its_own_pool():
    """A child forked after a split inherits the pool object but none of its
    threads; its own splits must not wait on them."""
    src = str(Path(T.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _SPLIT_THEN_FORK], capture_output=True, text=True,
                         cwd=src, timeout=60)
    assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr


# ---------------------------------------------------------------------------
# pooling / attention / batchnorm / assembly


def test_global_avg_pool_matches_means():
    rng = np.random.default_rng(59)
    x = rng.standard_normal((3, 5, 4, 7))
    got = ad.global_avg_pool(x)
    for n in range(3):
        for c in range(5):
            assert abs(got[n, c] - x[n, c].mean()) < 1e-12


def test_softmax_rows_sum_to_one_and_bounds():
    rng = np.random.default_rng(61)
    z = rng.standard_normal((10, 4)) * 5
    a = ad.attention_activation(z, "softmax", tau=1.0)
    assert np.max(np.abs(a.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(a >= 0) and np.all(a <= 1)


def test_softmax_high_temperature_near_uniform():
    rng = np.random.default_rng(67)
    z = rng.standard_normal((6, 4))
    a = ad.attention_activation(z, "softmax", tau=1e6)
    assert np.max(np.abs(a - 0.25)) < 1e-5


def test_sigmoid_attention_ignores_tau():
    rng = np.random.default_rng(71)
    z = rng.standard_normal((5, 3))
    a1 = ad.attention_activation(z, "sigmoid", tau=1.0)
    a2 = ad.attention_activation(z, "sigmoid", tau=30.0)
    assert np.array_equal(a1, a2)
    assert np.all((a1 > 0) & (a1 < 1))


def test_softmax_temperature_flattens():
    z = np.array([[3.0, 0.0, -1.0]])
    sharp = ad.attention_activation(z, "softmax", tau=1.0)
    flat = ad.attention_activation(z, "softmax", tau=30.0)
    assert sharp.max() > flat.max()


def test_batchnorm_train_stats_normalize():
    rng = np.random.default_rng(73)
    x = rng.standard_normal((8, 3, 5, 5)) * 4 + 2
    mean, var = T.batchnorm_stats(x)
    y = T.batchnorm_apply(x, np.ones(3), np.zeros(3), mean, var)
    ym, yv = T.batchnorm_stats(y)
    assert np.max(np.abs(ym)) < 1e-9
    assert np.max(np.abs(yv - 1.0)) < 1e-4  # eps-deflated variance
    g = np.array([2.0, 0.5, 1.5])
    b = np.array([1.0, -1.0, 0.0])
    y2 = T.batchnorm_apply(x, g, b, mean, var)
    assert np.max(np.abs(y2 - (y * g.reshape(1, 3, 1, 1) + b.reshape(1, 3, 1, 1)))) < 1e-12


def _strided(a):
    """`a` as a non-contiguous view: every other entry of a twice-as-long row."""
    return np.stack([a, np.zeros_like(a)], axis=-1)[..., 0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("layout", ["strided", "0-d"])
def test_check_finite_rejects_nan_and_inf(bad, layout):
    a = _strided(np.array([[1.0, 2.0], [3.0, bad]])) if layout == "strided" else np.array(bad)
    with pytest.raises(T.NonFiniteError, match="non-finite values in probe"):
        T.check_finite(a, "probe")


@pytest.mark.parametrize("a", [np.zeros((0, 3)), np.array([1e308, 1e308]), _strided(np.full((2, 3), -1e308))],
                         ids=["empty", "huge", "huge-strided"])
def test_check_finite_passes_finite_arrays_without_warnings(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert T.check_finite(a) is a


def test_nonfinite_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(T.NonFiniteError):
        T.matmul(bad, np.eye(2))
    with pytest.raises(T.NonFiniteError):
        ad.add(bad, bad)
