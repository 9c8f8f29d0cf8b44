"""Deterministic float64 tensor kernels: the contractions and their
reference loops, im2col, max pooling, batch-norm statistics and SVD.
The differentiable ops, elementwise ones included, are defined once, in
`dynconv.autodiff`, and call these kernels.

Every differentiable op returns a C-contiguous float64 ndarray, so an op
coerces a raw operand once, in `autodiff.value_of`.  The contractions run
as ``np.matmul`` with the sample (and, in conv2d, the group) as a stack
axis, so each sample's product is the same BLAS call whatever the batch
size.  Two kinds of contract rest on this:

* bit-exact: ``matmul_reference``/``conv2d_reference`` equal naive loop
  oracles summing left to right over the contraction axis; a dynamic model
  equals its static twin at initialization; a batch-N forward equals the
  stacked batch-1 forwards; a checkpoint round-trips; the same config and
  seed give byte-identical logs at a fixed BLAS thread count.
* tolerance: the BLAS kernels ``matmul``/``conv2d`` (and the conv VJPs in
  ``dynconv.autodiff``) against the reference kernels, to 1e-12 relative.

Everything else relies on numpy's deterministic elementwise semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


class NonFiniteError(ValueError):
    """Raised when an operation produces NaN or +/-Inf; `layer` names the
    model layer it came from, once a model block has re-raised it."""

    def __init__(self, message: str, layer: str | None = None):
        super().__init__(message)
        self.layer = layer


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array of the same shape (0-d stays 0-d)."""
    return np.asarray(x, dtype=np.float64, order="C")


def check_finite(a: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return a


def _check_matmul(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = as_tensor(a)
    b = as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return a, b


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) @ (k,n), each row of `a` contracted as its own (1,k) stack item.

    Row i of the result is the same BLAS call whether `a` has 1 row or
    many, so a batch of rows gives the stacked single-row results bit for
    bit.  A plain 2-d product would switch between gemv and gemm with m.
    """
    a, b = _check_matmul(a, b)
    return check_finite(np.matmul(a[:, None, :], b)[:, 0, :], "matmul result")


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) @ (k,n) with a fixed left-to-right sum over k.

    Each output entry accumulates a[i,0]*b[0,j], then a[i,1]*b[1,j], ...
    exactly as a scalar triple loop would, so an oracle using that order
    reproduces the result bit-for-bit.  The reference `matmul` is tested
    against; nothing else calls it.
    """
    a, b = _check_matmul(a, b)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[1]):
        out += a[:, i : i + 1] * b[i : i + 1, :]
    return check_finite(out, "matmul result")


def max_pool2d(x: np.ndarray, k: int, stride: int, padding: int = 0) -> np.ndarray:
    """(N,C,H,W) max pooling; padded border positions never win the max."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    ho, wo = conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding)
    padded = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf)
    padded[:, :, padding:padding + h, padding:padding + w] = x
    out = np.full((n, c, ho, wo), -np.inf)
    for dy in range(k):
        for dx in range(k):
            out = np.maximum(out, padded[:, :, dy:dy + ho * stride:stride, dx:dx + wo * stride:stride])
    return check_finite(out, "max_pool2d")


def max_pool2d_backward(x: np.ndarray, grad: np.ndarray, k: int, stride: int, padding: int = 0) -> np.ndarray:
    """Scatter grad to the first window position (in (dy,dx) scan order)
    attaining each pooled maximum — the deterministic tie-break."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    ho, wo = conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding)
    padded = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf)
    padded[:, :, padding:padding + h, padding:padding + w] = x
    out = max_pool2d(x, k, stride, padding)
    gp = np.zeros_like(padded)
    taken = np.zeros((n, c, ho, wo), dtype=bool)
    for dy in range(k):
        for dx in range(k):
            patch = padded[:, :, dy:dy + ho * stride:stride, dx:dx + wo * stride:stride]
            wins = (patch == out) & ~taken
            gp[:, :, dy:dy + ho * stride:stride, dx:dx + wo * stride:stride] += np.where(wins, grad, 0.0)
            taken |= wins
    return gp[:, :, padding:padding + h, padding:padding + w]


# ---------------------------------------------------------------------------
# convolution


def conv_out_size(h: int, k: int, stride: int, padding: int) -> int:
    return (h + 2 * padding - k) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """(N,C,H,W) -> (N, C*kh*kw, Ho*Wo) per-sample patch matrices.

    Rows are ordered (c, dy, dx) row-major, the reduction order of the
    naive seven-loop convolution.  A 1×1 stride-1 unpadded kernel needs no
    copy, so the result is then a view of `x`; padding fills a zero buffer.
    """
    x = as_tensor(x)
    n, c, h, w = x.shape
    ho = conv_out_size(h, kh, stride, padding)
    wo = conv_out_size(w, kw, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ValueError(f"empty conv output for input {x.shape} kernel {(kh, kw)}")
    if kh == kw == stride == 1 and not padding:
        return x.reshape(n, c, h * w)
    xp = x
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding:padding + h, padding:padding + w] = x
    sn, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, ho, wo), (sn, sc, sh, sw, sh * stride, sw * stride), writeable=False
    )
    return patches.reshape(n, c * kh * kw, ho * wo)


def _conv_shapes(x: np.ndarray, weight: np.ndarray, stride: int, padding: int, groups: int):
    """Validate a conv and return (n, c_out, c_in/groups, kh, kw, ho, wo)."""
    n, c, h, w = x.shape
    if weight.ndim not in (4, 5) or (weight.ndim == 5 and weight.shape[0] != n):
        raise ValueError(f"conv weight {weight.shape} is neither shared nor one kernel per sample of {x.shape}")
    c_out, c_in_g, kh, kw = weight.shape[-4:]
    if c % groups or c_out % groups or c_in_g != c // groups:
        raise ValueError(f"bad group structure: input {c} ch, weight {weight.shape}, groups {groups}")
    return n, c_out, c_in_g, kh, kw, conv_out_size(h, kh, stride, padding), conv_out_size(w, kw, stride, padding)


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Cross-correlation of NCHW input with a (C_out, C_in/groups, kh, kw)
    kernel, or with one such kernel per sample, (N, C_out, C_in/groups, kh, kw).

    One ``np.matmul`` contracts (c_in, dy, dx) with samples and groups as
    stack axes, so each sample's output is the same BLAS call at any batch
    size and with a shared or a per-sample kernel.  For a 1×1 stride-1
    unpadded conv the patch matrix is a reshaped view of `x`, so the product
    is one reshape and that `np.matmul`.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    n, c_out, c_in_g, kh, kw, ho, wo = _conv_shapes(x, weight, stride, padding, groups)
    cols = im2col(x, kh, kw, stride, padding).reshape(n, groups, c_in_g * kh * kw, ho * wo)
    wmat = weight.reshape(weight.shape[:-4] + (groups, c_out // groups, c_in_g * kh * kw))
    return check_finite(np.matmul(wmat, cols).reshape(n, c_out, ho, wo), "conv2d result")


def conv2d_reference(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """conv2d with a shared kernel, as `matmul_reference` over the patch rows.

    Per group, the contraction over (c_in, dy, dx) runs in that row-major
    order, left to right, so a scalar loop oracle matches exactly.  The
    reference `conv2d` is tested against; nothing else calls it.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if weight.ndim != 4:
        raise ValueError(f"conv2d_reference takes a shared (C_out, C_in/groups, kh, kw) kernel, got {weight.shape}")
    n, c_out, c_in_g, kh, kw, ho, wo = _conv_shapes(x, weight, stride, padding, groups)
    cols = im2col(x, kh, kw, stride, padding).transpose(1, 0, 2).reshape(-1, n * ho * wo)
    og, kg = c_out // groups, c_in_g * kh * kw
    flat = np.concatenate([
        matmul_reference(weight[g * og : (g + 1) * og].reshape(og, kg), cols[g * kg : (g + 1) * kg])
        for g in range(groups)
    ])
    return np.ascontiguousarray(flat.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3))


# ---------------------------------------------------------------------------
# batch norm (functional; state lives with the layer)


def batchnorm_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and biased variance over (N,H,W)."""
    x = as_tensor(x)
    n, c, h, w = x.shape
    m = float(n * h * w)
    mean = x.sum(axis=(0, 2, 3)) / m
    var = ((x - mean.reshape(1, c, 1, 1)) ** 2).sum(axis=(0, 2, 3)) / m
    return mean, var


def batchnorm_apply(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = BN_EPS,
) -> np.ndarray:
    c = x.shape[1]
    inv = 1.0 / np.sqrt(var + eps)
    out = (x - mean.reshape(1, c, 1, 1)) * (gamma * inv).reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)
    return check_finite(out, "batchnorm output")


# ---------------------------------------------------------------------------
# SVD: thin LAPACK decomposition with exact zeros below the rank cutoff


@dataclass
class SvdResult:
    u: np.ndarray  # (m, r) column-orthonormal
    s: np.ndarray  # (r,) descending, non-negative
    v: np.ndarray  # (n, r) column-orthonormal


def svd(a: np.ndarray) -> SvdResult:
    """Thin SVD a = u @ diag(s) @ v.T with r = min(m, n).

    Singular values at or below ``max(m, n) * eps * s[0]`` are rounding
    noise of a rank-deficient input and are set to exact zeros.
    """
    a = as_tensor(a)
    if a.ndim != 2:
        raise ValueError(f"svd expects a matrix, got {a.shape}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size:
        s[s <= max(a.shape) * np.finfo(np.float64).eps * s[0]] = 0.0
    return SvdResult(u=u, s=s, v=np.ascontiguousarray(vt.T))
