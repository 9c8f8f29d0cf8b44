"""Tape-based reverse-mode differentiation over the tensor kernels.

Ops mirror `dynconv.tensor` and dispatch on their inputs: plain ndarrays
flow through the eager kernels, `Node` inputs are recorded on their tape
with an explicit adjoint rule.  A layer written against these functions
therefore produces bit-identical forwards whether or not a tape is
attached.  A taped forward starts from a leaf, as in
``graph.forward(tape.leaf(x), train=True)``: each op finds the tape
through its inputs.
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

    def record(self, value, parents: list[Node], vjp, op="") -> Node:
        node = Node(value, self, parents, vjp, op=op)
        self.nodes.append(node)
        return node


def _is_node(x) -> bool:
    return isinstance(x, Node)


def value_of(x):
    return x.value if _is_node(x) else T.as_tensor(x)


def _tape(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if _is_node(x):
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


def _binary(op_name, fwd, vjp_builder):
    def op(a, b):
        tape = _tape(a, b)
        av, bv = value_of(a), value_of(b)
        out = fwd(av, bv)
        if tape is None:
            return out
        parents = [x for x in (a, b) if _is_node(x)]
        vjp = vjp_builder(a, b, av, bv, out)
        if _is_node(a) and _is_node(b):
            full = vjp
        elif _is_node(a):
            full = lambda g: vjp(g)[:1]
        else:
            full = lambda g: vjp(g)[1:]
        return tape.record(out, parents, full, op=op_name)

    return op


add = _binary(
    "add",
    T.add,
    lambda a, b, av, bv, out: lambda g: [_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)],
)

mul = _binary(
    "mul",
    T.mul,
    lambda a, b, av, bv, out: lambda g: [_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)],
)


def scale(a, alpha: float):
    tape = _tape(a)
    av = value_of(a)
    out = T.scale(av, alpha)
    if tape is None:
        return out
    return tape.record(out, [a], lambda g: [g * alpha], op="scale")


def matmul(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = T.matmul(av, bv)
    if tape is None:
        return out
    parents = [x for x in (a, b) if _is_node(x)]

    def vjp(g):
        grads = []
        if _is_node(a):
            grads.append(T.matmul(g, bv.T))
        if _is_node(b):
            grads.append(T.matmul(av.T, g))
        return grads

    return tape.record(out, parents, vjp, op="matmul")


def relu(a):
    tape = _tape(a)
    av = value_of(a)
    out = T.relu(av)
    if tape is None:
        return out
    mask = (av > 0).astype(np.float64)
    return tape.record(out, [a], lambda g: [g * mask], op="relu")


def sigmoid(a):
    tape = _tape(a)
    av = value_of(a)
    out = T.sigmoid(av)
    if tape is None:
        return out
    return tape.record(out, [a], lambda g: [g * out * (1.0 - out)], op="sigmoid")


def softmax_rows(a):
    tape = _tape(a)
    av = value_of(a)
    out = T.softmax_rows(av)
    if tape is None:
        return out

    def vjp(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return [(g - dot) * out]

    return tape.record(out, [a], vjp, op="softmax")


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
    out = T.reshape(av, shape)
    if tape is None:
        return out
    orig = av.shape
    return tape.record(out, [a], lambda g: [np.ascontiguousarray(g.reshape(orig))], op="reshape")


def transpose_axes(a, axes):
    tape = _tape(a)
    av = value_of(a)
    out = np.ascontiguousarray(np.transpose(av, axes))
    if tape is None:
        return out
    inv = np.argsort(axes)
    return tape.record(out, [a], lambda g: [np.ascontiguousarray(np.transpose(g, inv))], op="transpose")


def narrow(a, axis: int, start: int, stop: int):
    """Contiguous slice along one axis."""
    tape = _tape(a)
    av = value_of(a)
    sl = tuple(slice(start, stop) if ax == axis else slice(None) for ax in range(av.ndim))
    out = np.ascontiguousarray(av[sl])
    if tape is None:
        return out
    shape = av.shape

    def vjp(g):
        full = np.zeros(shape)
        full[sl] = g
        return [full]

    return tape.record(out, [a], vjp, op="narrow")


def sum_all(a):
    tape = _tape(a)
    av = value_of(a)
    out = np.asarray(av.sum())
    if tape is None:
        return out
    shape = av.shape
    return tape.record(out, [a], lambda g: [np.broadcast_to(np.asarray(g), shape).astype(np.float64).copy()], op="sum")


def mean_all(a):
    av = value_of(a)
    return scale(sum_all(a), 1.0 / av.size)


def global_avg_pool(a):
    tape = _tape(a)
    av = value_of(a)
    out = T.global_avg_pool(av)
    if tape is None:
        return out
    n, c, h, w = av.shape

    def vjp(g):
        return [np.broadcast_to(g.reshape(n, c, 1, 1) / (h * w), (n, c, h, w)).copy()]

    return tape.record(out, [a], vjp, op="gap")


def max_pool2d(a, k: int, stride: int, padding: int = 0):
    tape = _tape(a)
    av = value_of(a)
    out = T.max_pool2d(av, k, stride, padding)
    if tape is None:
        return out

    def vjp(g):
        return [T.max_pool2d_backward(av, g, k, stride, padding)]

    return tape.record(out, [a], vjp, op="max_pool2d")


def conv2d(x, weight, stride: int = 1, padding: int = 0, groups: int = 1):
    tape = _tape(x, weight)
    xv, wv = value_of(x), value_of(weight)
    out = T.conv2d(xv, wv, stride=stride, padding=padding, groups=groups)
    if tape is None:
        return out
    parents = [p for p in (x, weight) if _is_node(p)]

    def vjp(g):
        grads = []
        if _is_node(x):
            grads.append(_conv2d_input_grad(g, xv.shape, wv, stride, padding, groups))
        if _is_node(weight):
            grads.append(_conv2d_weight_grad(g, xv, wv.shape, stride, padding, groups))
        return grads

    return tape.record(out, parents, vjp, op="conv2d")


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
    parents = [p for p in (x, gamma, beta) if _is_node(p)]

    def vjp(g):
        grads = []
        if _is_node(x):
            dxhat = g * gv.reshape(1, c, 1, 1)
            s1 = dxhat.sum(axis=(0, 2, 3))
            s2 = (dxhat * xhat).sum(axis=(0, 2, 3))
            dx = (inv.reshape(1, c, 1, 1) / m) * (m * dxhat - s1.reshape(1, c, 1, 1) - xhat * s2.reshape(1, c, 1, 1))
            grads.append(dx)
        if _is_node(gamma):
            grads.append((g * xhat).sum(axis=(0, 2, 3)))
        if _is_node(beta):
            grads.append(g.sum(axis=(0, 2, 3)))
        return grads

    node = tape.record(out, parents, vjp, op="batchnorm")
    return node, mean, var


def einsum(spec: str, *operands):
    """``np.einsum(spec, *operands)`` for an explicit spec such as ``"ij,jk->ik"``.

    The adjoint of each taped operand is again an einsum, of the output
    gradient with the other operands, so every subscript of an operand must
    appear in another operand or in the output.  Untaped operands (constants
    such as ``np.eye(B)``) get no gradient.
    """
    tape = _tape(*operands)
    vals = [value_of(x) for x in operands]
    out = T.check_finite(np.einsum(spec, *vals, optimize=True), "einsum result")
    if tape is None:
        return out
    ins, out_sub = spec.split("->")
    ins = ins.split(",")
    taped = [j for j, x in enumerate(operands) if _is_node(x)]

    def vjp(g):
        return [np.einsum(",".join([out_sub, *ins[:j], *ins[j + 1:]]) + "->" + ins[j],
                          g, *vals[:j], *vals[j + 1:], optimize=True)
                for j in taped]

    return tape.record(out, [operands[j] for j in taped], vjp, op="einsum")


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

    def vjp(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return [d * (float(g) / n)]

    return tape.record(out, [logits], vjp, op="cross_entropy")


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
