"""Tape-based reverse-mode differentiation: every differentiable op.

Each op is defined once, here, and dispatches on its inputs: with only
plain ndarrays it returns the eager result, and with a `Node` among them
it records the same result on that node's tape through `_record`, with an
explicit adjoint rule.  A layer written against these functions therefore
produces bit-identical forwards whether or not a tape is attached.  The
forward's contractions call `dynconv.tensor`'s kernels, looked up at call
time; `stacked_matmul`, the small products that assemble the materialised
reference kernel W(x), is ``np.matmul`` itself.  Train-mode batch norm and
max pooling are computed here, with their VJPs, which reuse the forward's
intermediates; batch norm's three adjoints share the two reductions Σg and
Σg·x̂.  A taped forward starts from a leaf, as in
``graph.forward(tape.leaf(x), train=True)``: each op finds the tape
through its inputs.  Only a parameter leaf needs a gradient, and so does a
node with a taped input that needs one; any other node stays on the tape
with no parents and no VJP, so no adjoint is formed toward the data.
Every op returns a C-contiguous float64 array, so `value_of` is the one
place where an operand is coerced; an operand that already is one it
returns as it is, without a call, as it returns a node's value.  Some ops
round exactly as the ops they fuse: `affine`, ``a * w + b``, is the tail of
eval batch norm and of the DCD layer, Λ ⊙ (W0∗x) + residual; `linear`,
``matmul(a, w) + b``, is each FC of the dynamic branch; `narrow` with
``plus`` is Λ, a slice of the branch output plus 1.  `transpose_axes` keeps
its copy of a parameter value until the next state write (`tensor.kept`).

No op checks its result for NaN or ±inf, forward or VJP: the layers check
their values at fixed points (`dynconv.layers`), and `backward` checks each
parameter gradient once, when it is complete, so an overflow under a finite
loss raises before an optimizer step writes it.  A non-finite input
gradient stays non-finite through the VJPs, so it reaches a checked
parameter gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

BN_EPS = 1e-5


class Parameter:
    """Named learnable array; gradient dictionaries key on identity.  Its
    value is read-only model state: assigning one locks it
    (`tensor.lock_state`), and an in-place write goes through
    `tensor.write_state`."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value):
        self.name = name
        self.value = value

    def __setattr__(self, name, value):
        object.__setattr__(self, name, T.lock_state(value) if name == "value" else value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Node:
    __slots__ = ("value", "tape", "parents", "vjp", "param", "layer")

    def __init__(self, value, tape, parents, vjp, param=None):
        self.value = value
        self.tape = tape
        self.parents = parents
        self.vjp = vjp
        self.param = param
        self.layer = None  # the layer a parameter leaf was lifted for (`dynconv.layers._lifter`)

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Ordered record of executed primitives."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, param: Parameter | None = None) -> Node:
        node = Node(T.as_tensor(value), self, [], None, param=param)
        self.nodes.append(node)
        return node


_F64 = np.dtype(np.float64)


def value_of(x):
    """A node's value as it is, or a raw operand coerced by `T.as_tensor`;
    a C-contiguous float64 ndarray, which `T.as_tensor` would return as it
    is, is returned without the call."""
    if type(x) is Node:
        return x.value
    if type(x) is np.ndarray and x.dtype is _F64 and x.flags.c_contiguous:
        return x
    return T.as_tensor(x)


def _tape(*xs) -> Tape | None:
    tape = None
    for x in xs:
        if type(x) is Node:
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


def _record(tape: Tape, out, inputs, vjp) -> Node:
    """Append an op with result `out` to `tape`; every op records here.

    Only the taped `inputs` that reach a parameter become parents, in input
    order: a parameter leaf, or a node that has parents.  ``vjp(g, j)``
    returns the gradient of input j given the output gradient g, and is
    called for those inputs only.  A node with none of them stays on the
    tape, so that later ops find it, but has no parents and no VJP.
    """
    taped = [j for j, x in enumerate(inputs) if type(x) is Node and (x.parents or x.param is not None)]
    node = Node(out, tape, [inputs[j] for j in taped], (lambda g: [vjp(g, j) for j in taped]) if taped else None)
    tape.nodes.append(node)
    return node


def add(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = av + bv
    if tape is None:
        return out
    return _record(tape, out, (a, b), lambda g, j: _unbroadcast(g, av.shape if j == 0 else bv.shape))


def mul(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = av * bv
    if tape is None:
        return out
    return _record(tape, out, (a, b),
                   lambda g, j: _unbroadcast(g * bv, av.shape) if j == 0 else _unbroadcast(g * av, bv.shape))


def affine(a, w, b):
    """``a * w + b`` in one op, rounding exactly as `add(mul(a, w), b)`;
    `b` is added in place, so it must broadcast to the shape of ``a * w``."""
    tape = _tape(a, w, b)
    av, wv, bv = value_of(a), value_of(w), value_of(b)
    out = av * wv
    out += bv
    if tape is None:
        return out
    return _record(tape, out, (a, w, b), lambda g, j: _unbroadcast(g, bv.shape) if j == 2
                   else _unbroadcast(g * wv, av.shape) if j == 0 else _unbroadcast(g * av, wv.shape))


def matmul(a, b):
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = T.matmul(av, bv)
    if tape is None:
        return out
    return _record(tape, out, (a, b), lambda g, j: _matmul_vjp(g, av, bv, j))


def linear(a, w, b):
    """``matmul(a, w) + b`` in one op, rounding as `add(matmul(a, w), b)`."""
    tape = _tape(a, w, b)
    av, wv, bv = value_of(a), value_of(w), value_of(b)
    out = T.matmul(av, wv)
    out += bv
    if tape is None:
        return out
    return _record(tape, out, (a, w, b),
                   lambda g, j: _unbroadcast(g, bv.shape) if j == 2 else _matmul_vjp(g, av, wv, j))


def _matmul_vjp(g, av, bv, j):
    # `T.matmul` takes contiguous operands: numpy may run a transposed view through another loop
    return T.matmul(g, np.ascontiguousarray(bv.T)) if j == 0 else T.matmul(np.ascontiguousarray(av.T), g)


def stacked_matmul(a, b):
    """``np.matmul(a, b)`` of operands with at least 2 dims: one product per item
    of the broadcast leading (stack) axes, so a stack of N samples gives the
    stacked one-sample results bit for bit.  Each adjoint is the swapped
    product, summed over the axes its operand was broadcast along."""
    tape = _tape(a, b)
    av, bv = value_of(a), value_of(b)
    out = np.matmul(av, bv)
    if tape is None:
        return out
    return _record(tape, out, (a, b),
                   lambda g, j: _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), av.shape) if j == 0
                   else _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), bv.shape))


def relu(a):
    tape = _tape(a)
    av = value_of(a)
    out = np.maximum(av, 0.0)
    if tape is None:
        return out
    mask = av > 0
    return _record(tape, out, (a,), lambda g, j: g * mask)


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
    return _record(tape, out, (a,), lambda g, j: g * out * (1.0 - out))


def softmax_rows(a):
    tape = _tape(a)
    z = value_of(a)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / np.sum(e, axis=-1, keepdims=True)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g, j: (g - np.sum(g * out, axis=-1, keepdims=True)) * out)


def reshape(a, shape):
    tape = _tape(a)
    av = value_of(a)
    out = av.reshape(shape)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g, j: np.ascontiguousarray(g.reshape(av.shape)))


def transpose_axes(a, axes, shape=None):
    """`a`, reshaped to `shape` first when one is given, with its axes
    permuted, as a contiguous array.  Of model state that owns its memory (a
    parameter's value) the copy is kept (`T.kept`) until the next state write."""
    tape = _tape(a)
    av = value_of(a)
    if av.base is None:
        out = T.kept(av, ("transpose", axes, shape), lambda: _relaid(av, axes, shape))
    else:
        out = _relaid(av, axes, shape)
    if tape is None:
        return out
    inv = np.argsort(axes)
    return _record(tape, out, (a,), lambda g, j: np.ascontiguousarray(np.transpose(g, inv)).reshape(av.shape))


def _relaid(av, axes, shape):
    """A copy, never a view: a kept view would keep its state array alive."""
    return np.transpose(av if shape is None else av.reshape(shape), axes).copy()


def narrow(a, axis: int, start: int, stop: int, plus: float = 0.0):
    """Contiguous slice along one axis, plus `plus` when that is non-zero."""
    tape = _tape(a)
    av = value_of(a)
    sl = (slice(None),) * axis + (slice(start, stop),)
    out = av[sl] + plus if plus else np.ascontiguousarray(av[sl])
    if tape is None:
        return out

    def vjp(g, j):
        full = np.zeros(av.shape)
        full[sl] = g
        return full

    return _record(tape, out, (a,), vjp)


def sum_all(a):
    tape = _tape(a)
    av = value_of(a)
    out = np.asarray(av.sum())
    if tape is None:
        return out
    return _record(tape, out, (a,),
                   lambda g, j: np.broadcast_to(np.asarray(g), av.shape).astype(np.float64).copy())


def global_avg_pool(a):
    """(N,C,H,W) -> (N,C) spatial mean."""
    tape = _tape(a)
    av = value_of(a)
    if av.ndim != 4:
        raise ValueError(f"expected NCHW, got shape {av.shape}")
    n, c, h, w = av.shape
    out = av.reshape(n, c, h * w).sum(axis=2) / float(h * w)
    if tape is None:
        return out
    return _record(tape, out, (a,),
                   lambda g, j: np.broadcast_to(g.reshape(n, c, 1, 1) / (h * w), (n, c, h, w)).copy())


def max_pool2d(a, k: int, stride: int, padding: int = 0):
    """(N,C,H,W) max pooling; padded border positions never win the max.

    The VJP reuses the forward's padded input and pooled result: it sends
    each output gradient to the first window position, in (dy, dx) scan
    order, that attains the maximum, the deterministic tie-break."""
    tape = _tape(a)
    av = value_of(a)
    n, c, h, w = av.shape
    ho, wo = T.conv_out_size(h, k, stride, padding), T.conv_out_size(w, k, stride, padding)
    padded = np.full((n, c, h + 2 * padding, w + 2 * padding), -np.inf)
    padded[:, :, padding:padding + h, padding:padding + w] = av
    windows = [(..., slice(dy, dy + ho * stride, stride), slice(dx, dx + wo * stride, stride))
               for dy in range(k) for dx in range(k)]
    out = np.full((n, c, ho, wo), -np.inf)
    for win in windows:
        np.maximum(out, padded[win], out=out)
    if tape is None:
        return out

    def vjp(g, j):
        gp = np.zeros_like(padded)
        taken = np.zeros(out.shape, dtype=bool)
        for win in windows:
            wins = (padded[win] == out) & ~taken
            gp[win] += np.where(wins, g, 0.0)
            taken |= wins
        return gp[:, :, padding:padding + h, padding:padding + w]

    return _record(tape, out, (a,), vjp)


def conv2d(x, weight, stride: int = 1, padding: int = 0, groups: int = 1):
    tape = _tape(x, weight)
    xv, wv = value_of(x), value_of(weight)
    out = T.conv2d(xv, wv, stride=stride, padding=padding, groups=groups)
    if tape is None:
        return out
    return _record(tape, out, (x, weight),
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
        grad = T.stacked_matmul(gq, cols.transpose(0, 1, 3, 2), n)
    else:
        gq = gq.transpose(1, 2, 0, 3).reshape(groups, og, -1)
        grad = np.matmul(gq, cols.transpose(1, 0, 3, 2).reshape(groups, -1, kg))
    return grad.reshape(wshape)


def _conv2d_input_grad(g, xshape, wv, stride, padding, groups):
    """dL/dx: kernel-transposed contraction to patch gradients (a shared
    kernel of more than `T.BLOCK_ELEMENTS` cut into blocks of patch rows, as
    `T.stacked_matmul` cuts it), then col2im as one strided add per kernel
    element."""
    n, c, h, w = xshape
    c_out, c_in_g, kh, kw = wv.shape[-4:]
    ho, wo = g.shape[2], g.shape[3]
    wmat = wv.reshape(wv.shape[:-4] + (groups, c_out // groups, c_in_g * kh * kw))
    dcols = T.stacked_matmul(wmat.swapaxes(-1, -2), g.reshape(n, groups, c_out // groups, ho * wo), n)
    if kh == kw == 1 and stride == 1 and padding == 0:  # each patch is one input position
        return dcols.reshape(xshape)
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for dy in range(kh):
        for dx in range(kw):
            dxp[:, :, dy : dy + ho * stride : stride, dx : dx + wo * stride : stride] += dcols[:, :, dy, dx]
    if padding:
        dxp = np.ascontiguousarray(dxp[:, :, padding : padding + h, padding : padding + w])
    return dxp


def batchnorm_train(x, gamma, beta):
    """Batch-stat normalization; returns (out, batch_mean, batch_var), the
    per-channel mean and biased variance over (N,H,W).

    The mean and the variance are reductions with no temporary array, and
    x̂ is formed once, for ``out = x̂·γ + β`` and the VJP, whose three
    adjoints share dβ = Σg and dγ = Σg·x̂: dx = γ·inv·(g − (dβ + x̂·dγ)/m).
    The returned stats are plain arrays (running-average bookkeeping is the
    caller's job and carries no gradient).
    """
    tape = _tape(x, gamma, beta)
    xv, gv, bv = value_of(x), value_of(gamma), value_of(beta)
    n, c, h, w = xv.shape
    m = float(n * h * w)
    with np.errstate(over="ignore", invalid="ignore"):  # a finite x can overflow them; the layer checks the stats
        mean = np.einsum("nchw->c", xv) / m
        xhat = xv - mean.reshape(1, c, 1, 1)
        var = np.einsum("nchw,nchw->c", xhat, xhat) / m
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv.reshape(1, c, 1, 1)
        out = xhat * gv.reshape(1, c, 1, 1)
        out += bv.reshape(1, c, 1, 1)
    if tape is None:
        return out, mean, var
    sums = []  # [g, dβ, dγ] for the last output gradient g, which its three adjoints share

    def vjp(g, j):
        if not sums or sums[0] is not g:
            sums[:] = [g, np.einsum("nchw->c", g), np.einsum("nchw,nchw->c", g, xhat)]
        _, dbeta, dgamma = sums
        if j == 2:
            return dbeta
        if j == 1:
            return dgamma
        dx = xhat * (dgamma / m).reshape(1, c, 1, 1)
        dx += (dbeta / m).reshape(1, c, 1, 1)
        np.subtract(g, dx, out=dx)
        dx *= (gv * inv).reshape(1, c, 1, 1)
        return dx

    return _record(tape, out, (x, gamma, beta), vjp), mean, var


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

    return _record(tape, out, (logits,), vjp)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Node, seed: float = 1.0) -> dict[Parameter, np.ndarray]:
    """Accumulate adjoints from `loss` back to parameter leaves.

    The walk visits recorded nodes in strict reverse order, so gradient
    accumulation order is deterministic, and forms adjoints only along the
    nodes that reach a parameter leaf (`_record`), never toward the data.
    The result maps each touched Parameter to an array of its shape.  A
    leaf's adjoint is complete when the walk reaches it, so the gradient is
    checked there: a non-finite one raises, naming the parameter and,
    through the leaf, its layer.
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
            total = grads[node.param] + g if node.param in grads else g
            grads[node.param] = T.check_finite(total, f"gradient of {node.param.name}", node.layer)
        if node.vjp is None:
            continue
        parent_grads = node.vjp(g)
        for p, pg in zip(node.parents, parent_grads):
            if id(p) in adj:
                adj[id(p)] = adj[id(p)] + pg
            else:
                adj[id(p)] = pg
    return grads
