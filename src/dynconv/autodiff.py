"""Tape-based reverse-mode differentiation: every differentiable op.

Each op is defined once, here, and dispatches on its inputs: with only
plain ndarrays it returns the eager result, and with a `Node` among them
it records the same result on that node's tape through `_record`, with an
explicit adjoint rule.  A layer written against these functions therefore
produces bit-identical forwards whether or not a tape is attached.  The
contractions call `dynconv.tensor`'s kernels, looked up at call time.  A
taped forward starts from a leaf, as in
``graph.forward(tape.leaf(x), train=True)``: each op finds the tape
through its inputs.  Every op returns a C-contiguous float64 array, so
`value_of` is the one place where an operand is coerced.  `affine`, one op for
``a * w + b``, is the tail of eval batch norm and of the DCD layer, Λ ⊙ (W0∗x) + residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T


class Parameter:
    """Named learnable array; gradient dictionaries key on identity."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value):
        self.name = name
        self.value = T.as_tensor(value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Node:
    __slots__ = ("value", "tape", "parents", "vjp", "param", "op")

    def __init__(self, value, tape, parents, vjp, param=None, op=""):
        self.value = value
        self.tape = tape
        self.parents = parents
        self.vjp = vjp
        self.param = param
        self.op = op

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Ordered record of executed primitives."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, param: Parameter | None = None) -> Node:
        node = Node(T.as_tensor(value), self, [], None, param=param, op="leaf")
        self.nodes.append(node)
        return node


def value_of(x):
    """A node's value as it is, or a raw operand coerced by `T.as_tensor`."""
    return x.value if isinstance(x, Node) else T.as_tensor(x)


def _tape(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if isinstance(x, Node):
            if tape is None:
                tape = x.tape
            elif tape is not x.tape:
                raise ValueError("inputs recorded on different tapes")
    return tape


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _record(tape: Tape, name: str, out, inputs, vjp) -> Node:
    """Append op `name` with result `out` to `tape`; every op records here.

    Only the taped `inputs` become parents, in input order; ``vjp(g, j)``
    returns the gradient of input j given the output gradient g, and is
    called for taped inputs only.
    """
    taped = [j for j, x in enumerate(inputs) if isinstance(x, Node)]
    node = Node(out, tape, [inputs[j] for j in taped], lambda g: [vjp(g, j) for j in taped], op=name)
    tape.nodes.append(node)
    return node


def add(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = T.check_finite(av + bv, "add result")
    if tape is None:
        return out
    return _record(tape, "add", out, (a, b), lambda g, j: _unbroadcast(g, av.shape if j == 0 else bv.shape))


def mul(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = T.check_finite(av * bv, "mul result")
    if tape is None:
        return out
    return _record(tape, "mul", out, (a, b),
                   lambda g, j: _unbroadcast(g * bv, av.shape) if j == 0 else _unbroadcast(g * av, bv.shape))


def affine(a, w, b):
    """``a * w + b`` with one finite check, rounding exactly as `add(mul(a, w), b)`;
    `b` is added in place, so it must broadcast to the shape of ``a * w``."""
    tape = _tape(a, w, b)
    av, wv, bv = value_of(a), value_of(w), value_of(b)
    out = av * wv
    out += bv
    T.check_finite(out, "affine result")
    if tape is None:
        return out
    return _record(tape, "affine", out, (a, w, b), lambda g, j: _unbroadcast(g, bv.shape) if j == 2
                   else _unbroadcast(g * wv, av.shape) if j == 0 else _unbroadcast(g * av, wv.shape))


def scale(a, alpha: float):
    tape = _tape(a)
    av = value_of(a)
    out = T.check_finite(av * float(alpha), "scale result")
    if tape is None:
        return out
    return _record(tape, "scale", out, (a,), lambda g, j: g * alpha)


def matmul(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = T.matmul(av, bv)
    if tape is None:
        return out
    return _record(tape, "matmul", out, (a, b), lambda g, j: T.matmul(g, bv.T) if j == 0 else T.matmul(av.T, g))


def relu(a):
    tape = _tape(a)
    av = value_of(a)
    out = np.maximum(av, 0.0)
    if tape is None:
        return out
    mask = (av > 0).astype(np.float64)
    return _record(tape, "relu", out, (a,), lambda g, j: g * mask)


def sigmoid(a):
    tape = _tape(a)
    av = value_of(a)
    # split by sign to stay stable for large |a|
    out = np.empty_like(av)
    pos = av >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ea = np.exp(av[~pos])
    out[~pos] = ea / (1.0 + ea)
    if tape is None:
        return out
    return _record(tape, "sigmoid", out, (a,), lambda g, j: g * out * (1.0 - out))


def softmax_rows(a):
    tape = _tape(a)
    z = value_of(a)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / np.sum(e, axis=-1, keepdims=True)
    if tape is None:
        return out
    return _record(tape, "softmax", out, (a,), lambda g, j: (g - np.sum(g * out, axis=-1, keepdims=True)) * out)


def attention_activation(logits, mode: str = "softmax", tau: float = 1.0):
    """Row-wise attention over K kernels.

    softmax: rows in [0,1] and summing to 1; temperature divides the
    logits.  sigmoid: independent gates in [0,1]; tau is ignored (it only
    parameterizes the softmax).
    """
    if mode == "softmax":
        if tau <= 0:
            raise ValueError("softmax temperature must be positive")
        z = scale(logits, 1.0 / float(tau)) if tau != 1.0 else logits
        return softmax_rows(z)
    if mode == "sigmoid":
        return sigmoid(logits)
    raise ValueError(f"unknown attention mode {mode!r}")


def reshape(a, shape):
    tape = _tape(a)
    av = value_of(a)
    out = av.reshape(shape)
    if tape is None:
        return out
    return _record(tape, "reshape", out, (a,), lambda g, j: np.ascontiguousarray(g.reshape(av.shape)))


def transpose_axes(a, axes):
    tape = _tape(a)
    av = value_of(a)
    out = np.ascontiguousarray(np.transpose(av, axes))
    if tape is None:
        return out
    inv = np.argsort(axes)
    return _record(tape, "transpose", out, (a,), lambda g, j: np.ascontiguousarray(np.transpose(g, inv)))


def narrow(a, axis: int, start: int, stop: int):
    """Contiguous slice along one axis."""
    tape = _tape(a)
    av = value_of(a)
    sl = (slice(None),) * axis + (slice(start, stop),)
    out = np.ascontiguousarray(av[sl])
    if tape is None:
        return out

    def vjp(g, j):
        full = np.zeros(av.shape)
        full[sl] = g
        return full

    return _record(tape, "narrow", out, (a,), vjp)


def sum_all(a):
    tape = _tape(a)
    av = value_of(a)
    out = np.asarray(av.sum())
    if tape is None:
        return out
    return _record(tape, "sum", out, (a,),
                   lambda g, j: np.broadcast_to(np.asarray(g), av.shape).astype(np.float64).copy())


def mean_all(a):
    av = value_of(a)
    return scale(sum_all(a), 1.0 / av.size)


def global_avg_pool(a):
    """(N,C,H,W) -> (N,C) spatial mean."""
    tape = _tape(a)
    av = value_of(a)
    if av.ndim != 4:
        raise ValueError(f"expected NCHW, got shape {av.shape}")
    n, c, h, w = av.shape
    out = T.check_finite(av.reshape(n, c, h * w).sum(axis=2) / float(h * w), "pooled")
    if tape is None:
        return out
    return _record(tape, "gap", out, (a,),
                   lambda g, j: np.broadcast_to(g.reshape(n, c, 1, 1) / (h * w), (n, c, h, w)).copy())


def max_pool2d(a, k: int, stride: int, padding: int = 0):
    tape = _tape(a)
    av = value_of(a)
    out = T.max_pool2d(av, k, stride, padding)
    if tape is None:
        return out
    return _record(tape, "max_pool2d", out, (a,), lambda g, j: T.max_pool2d_backward(av, g, k, stride, padding))


def conv2d(x, weight, stride: int = 1, padding: int = 0, groups: int = 1):
    tape = _tape(x, weight)
    xv, wv = value_of(x), value_of(weight)
    out = T.conv2d(xv, wv, stride=stride, padding=padding, groups=groups)
    if tape is None:
        return out
    return _record(tape, "conv2d", out, (x, weight),
                   lambda g, j: _conv2d_input_grad(g, xv.shape, wv, stride, padding, groups) if j == 0
                   else _conv2d_weight_grad(g, xv, wv.shape, stride, padding, groups))


def _conv2d_weight_grad(g, xv, wshape, stride, padding, groups):
    """dL/dW: patch rows against output gradients, per sample for a
    per-sample kernel and summed over samples and positions for a shared one."""
    c_out, c_in_g, kh, kw = wshape[-4:]
    n, og, kg = xv.shape[0], c_out // groups, c_in_g * kh * kw
    cols = T.im2col(xv, kh, kw, stride, padding).reshape(n, groups, kg, -1)
    gq = g.reshape(n, groups, og, -1)
    if len(wshape) == 5:
        return np.matmul(gq, cols.transpose(0, 1, 3, 2)).reshape(wshape)
    gq = gq.transpose(1, 2, 0, 3).reshape(groups, og, -1)
    cols = cols.transpose(1, 0, 3, 2).reshape(groups, -1, kg)
    return np.matmul(gq, cols).reshape(wshape)


def _conv2d_input_grad(g, xshape, wv, stride, padding, groups):
    """dL/dx: kernel-transposed contraction to patch gradients, then col2im
    as one strided add per kernel element."""
    n, c, h, w = xshape
    c_out, c_in_g, kh, kw = wv.shape[-4:]
    ho, wo = g.shape[2], g.shape[3]
    wmat = wv.reshape(wv.shape[:-4] + (groups, c_out // groups, c_in_g * kh * kw))
    dcols = np.matmul(wmat.swapaxes(-1, -2), g.reshape(n, groups, c_out // groups, ho * wo))
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for dy in range(kh):
        for dx in range(kw):
            dxp[:, :, dy : dy + ho * stride : stride, dx : dx + wo * stride : stride] += dcols[:, :, dy, dx]
    if padding:
        return np.ascontiguousarray(dxp[:, :, padding : padding + h, padding : padding + w])
    return dxp


def batchnorm_train(x, gamma, beta, eps: float = T.BN_EPS):
    """Batch-stat normalization; returns (out, batch_mean, batch_var).

    The returned stats are plain arrays (running-average bookkeeping is the
    caller's job and carries no gradient).
    """
    tape = _tape(x, gamma, beta)
    xv, gv, bv = value_of(x), value_of(gamma), value_of(beta)
    mean, var = T.batchnorm_stats(xv)
    out = T.batchnorm_apply(xv, gv, bv, mean, var, eps)
    if tape is None:
        return out, mean, var
    n, c, h, w = xv.shape
    m = float(n * h * w)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mean.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)

    def vjp(g, j):
        if j == 0:
            dxhat = g * gv.reshape(1, c, 1, 1)
            s1 = dxhat.sum(axis=(0, 2, 3))
            s2 = (dxhat * xhat).sum(axis=(0, 2, 3))
            return (inv.reshape(1, c, 1, 1) / m) * (m * dxhat - s1.reshape(1, c, 1, 1) - xhat * s2.reshape(1, c, 1, 1))
        if j == 1:
            return (g * xhat).sum(axis=(0, 2, 3))
        return g.sum(axis=(0, 2, 3))

    return _record(tape, "batchnorm", out, (x, gamma, beta), vjp), mean, var


def einsum(spec: str, *operands):
    """``np.einsum(spec, *operands)`` for an explicit spec such as ``"ij,jk->ik"``.

    The adjoint of each taped operand is again an einsum, of the output
    gradient with the other operands, so every subscript of an operand must
    appear in another operand or in the output.  Untaped operands (constants
    such as ``np.eye(B)``) get no gradient.
    """
    tape = _tape(*operands)
    vals = [value_of(x) for x in operands]
    out = T.check_finite(np.asarray(np.einsum(spec, *vals, optimize=True), order="C"), "einsum result")
    if tape is None:
        return out
    ins, out_sub = spec.split("->")
    ins = ins.split(",")

    def vjp(g, j):
        return np.einsum(",".join([out_sub, *ins[:j], *ins[j + 1:]]) + "->" + ins[j],
                         g, *vals[:j], *vals[j + 1:], optimize=True)

    return _record(tape, "einsum", out, operands, vjp)


def cross_entropy(logits, labels: np.ndarray):
    """Mean softmax cross-entropy over the batch; labels are int indices."""
    tape = _tape(logits)
    zv = value_of(logits)
    labels = np.asarray(labels, dtype=np.int64)
    n = zv.shape[0]
    zmax = zv.max(axis=1, keepdims=True)
    lse = np.log(np.exp(zv - zmax).sum(axis=1, keepdims=True)) + zmax
    picked = zv[np.arange(n), labels]
    out = np.asarray((lse.ravel() - picked).sum() / n)
    if tape is None:
        return out
    probs = np.exp(zv - lse)

    def vjp(g, j):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return d * (float(g) / n)

    return _record(tape, "cross_entropy", out, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward / gradcheck


def backward(loss: Node, seed: float = 1.0) -> dict[Parameter, np.ndarray]:
    """Accumulate adjoints from `loss` back to parameter leaves.

    The walk visits recorded nodes in strict reverse order, so gradient
    accumulation order is deterministic.  The result maps each touched
    Parameter to an array of its shape.
    """
    tape = loss.tape
    adj: dict[int, np.ndarray] = {id(loss): np.broadcast_to(np.asarray(float(seed)), loss.value.shape).copy()}
    grads: dict[Parameter, np.ndarray] = {}
    seen = False
    for node in reversed(tape.nodes):
        if node is loss:
            seen = True
        if not seen:
            continue
        g = adj.pop(id(node), None)
        if g is None:
            continue
        if node.param is not None:
            if node.param in grads:
                grads[node.param] = grads[node.param] + g
            else:
                grads[node.param] = g
        if node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for p, pg in zip(node.parents, parent_grads):
            if id(p) in adj:
                adj[id(p)] = adj[id(p)] + pg
            else:
                adj[id(p)] = pg
    return grads


@dataclass
class GradCheckEntry:
    name: str
    checked: int
    max_rel_err: float
    failures: list = field(default_factory=list)  # (flat_index, analytic, numeric, rel_err)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class GradCheckReport:
    tol: float
    step: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def summary_lines(self) -> list[str]:
        lines = []
        for e in self.entries:
            status = "ok" if e.passed else "FAIL"
            lines.append(f"{status} {e.name}: {e.checked} coords, max rel err {e.max_rel_err:.3e}")
        return lines


def coord_sample(size: int, max_coords: int = 256) -> list[int]:
    """Deterministic stride subsample of flat indices."""
    if size <= max_coords:
        return list(range(size))
    stride = math.ceil(size / max_coords)
    return list(range(0, size, stride))[:max_coords]


def finite_diff_check(
    loss_fn: Callable[[], Node],
    params: list[Parameter],
    step: float = 1e-5,
    tol: float = 1e-6,
    max_coords: int = 256,
) -> GradCheckReport:
    """Central-difference check of `backward` against `loss_fn`.

    `loss_fn` must rebuild its tape on every call and read parameter
    values at call time, so in-place perturbation is visible.
    """
    node = loss_fn()
    if node.value.shape not in ((), (1,)):
        raise ValueError("gradcheck target must be scalar")
    analytic = backward(node, 1.0)
    report = GradCheckReport(tol=tol, step=step)
    for p in params:
        a = analytic.get(p)
        if a is None:
            a = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        aflat = a.reshape(-1)
        entry = GradCheckEntry(name=p.name, checked=0, max_rel_err=0.0)
        for idx in coord_sample(flat.size, max_coords):
            orig = flat[idx]
            flat[idx] = orig + step
            lp = loss_fn().value.item()
            flat[idx] = orig - step
            lm = loss_fn().value.item()
            flat[idx] = orig
            numeric = (lp - lm) / (2.0 * step)
            rel = abs(aflat[idx] - numeric) / max(abs(aflat[idx]), abs(numeric), 1e-8)
            entry.checked += 1
            entry.max_rel_err = max(entry.max_rel_err, rel)
            if rel > tol:
                entry.failures.append((idx, float(aflat[idx]), numeric, rel))
        report.entries.append(entry)
    return report
