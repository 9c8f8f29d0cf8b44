"""The reference kernels that `dynconv.tensor`'s BLAS kernels are tested
against: a matmul and a shared-kernel conv2d whose sums run left to right
over the contraction axis, so naive loop oracles reproduce them bit for bit."""

import numpy as np

from dynconv.tensor import _conv_shapes, as_tensor, im2col


def matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) @ (k,n) with a fixed left-to-right sum over k.

    Each output entry accumulates a[i,0]*b[0,j], then a[i,1]*b[1,j], ...
    exactly as a scalar triple loop would, so an oracle using that order
    reproduces the result bit-for-bit.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[1]):
        out += a[:, i : i + 1] * b[i : i + 1, :]
    return out


def conv2d_reference(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """conv2d with a shared kernel, as `matmul_reference` over the patch rows.

    Per group, the contraction over (c_in, dy, dx) runs in that row-major
    order, left to right, so a scalar loop oracle matches exactly.
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
