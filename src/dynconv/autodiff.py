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
Every op returns a C-contiguous float64 array.  An op finds its tape and
coerces its operands in one pass, `_inputs`, which gives each operand's
value as `value_of` does: a node's value, or a raw operand as
`T.as_tensor` makes it, an array that already is one as it is.

Some ops round, forward and VJP, exactly as the ops they fuse, so that a
layer pays one dispatch and records one node where it would pay several:
`affine`, ``a * w + b``, is the tail of eval batch norm and of the DCD
layer, Λ ⊙ (W0∗x) + residual; `linear`, ``matmul(a, w) + b``, is the first
FC of the dynamic branch; `relu_linear` is the branch's tail, ReLU then
the second FC, split into DCD's Λ (plus 1) and Φ as `narrow` slices them;
`lowrank_kernel` is the materialised DCD kernel Λ ⊙ W0 + P·Φ·Qᵀ (Rᵀ in
Qᵀ's place for depthwise DCD), and `latent_chain` the factored residual
P·Φ·(Qᵀx), three 1×1 convs.  A fused op's VJP is the composition of its
parts' VJPs; the adjoints of its intermediates, which several inputs read,
are formed once per output gradient (`_last`).  `transpose_axes` keeps its
copy of a parameter value until the next state write (`tensor.kept`).

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
    """A node's value as it is, or a raw operand coerced as `T.as_tensor`
    coerces it; ``np.asarray`` returns a C-contiguous float64 ndarray as it
    is, at less cost than a check that would skip the call."""
    return x.value if type(x) is Node else np.asarray(x, _F64, "C")


def _inputs(*xs) -> list:
    """An op's operands in one pass: the tape they are recorded on (None
    when no operand is a node), then each operand's value as `value_of`
    gives it; a None operand stays None."""
    out = [None]
    for x in xs:
        if type(x) is Node:
            if out[0] is None:
                out[0] = x.tape
            elif out[0] is not x.tape:
                raise ValueError("inputs recorded on different tapes")
            out.append(x.value)
        else:
            out.append(x if x is None else np.asarray(x, _F64, "C"))
    return out


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


def _last(fn):
    """`fn` of an output gradient, computed once for all the VJPs of one
    op's inputs that read it: the adjoints of a fused op share the adjoints
    of its intermediates."""
    memo = [None, None]

    def call(g):
        if memo[0] is not g:
            memo[:] = [g, fn(g)]
        return memo[1]

    return call


def add(a, b):
    tape, av, bv = _inputs(a, b)
    out = av + bv
    if tape is None:
        return out
    return _record(tape, out, (a, b), lambda g, j: _unbroadcast(g, av.shape if j == 0 else bv.shape))


def mul(a, b):
    tape, av, bv = _inputs(a, b)
    out = av * bv
    if tape is None:
        return out
    return _record(tape, out, (a, b),
                   lambda g, j: _unbroadcast(g * bv, av.shape) if j == 0 else _unbroadcast(g * av, bv.shape))


def affine(a, w, b):
    """``a * w + b`` in one op, rounding exactly as `add(mul(a, w), b)`;
    `b` is added in place, so it must broadcast to the shape of ``a * w``."""
    tape, av, wv, bv = _inputs(a, w, b)
    out = av * wv
    out += bv
    if tape is None:
        return out
    return _record(tape, out, (a, w, b), lambda g, j: _unbroadcast(g, bv.shape) if j == 2
                   else _unbroadcast(g * wv, av.shape) if j == 0 else _unbroadcast(g * av, wv.shape))


def matmul(a, b):
    tape, av, bv = _inputs(a, b)
    out = T.matmul(av, bv)
    if tape is None:
        return out
    return _record(tape, out, (a, b), lambda g, j: _matmul_vjp(g, av, bv, j))


def linear(a, w, b):
    """``matmul(a, w) + b`` in one op, rounding as `add(matmul(a, w), b)`."""
    tape, av, wv, bv = _inputs(a, w, b)
    out = T.matmul(av, wv)
    out += bv
    if tape is None:
        return out
    return _record(tape, out, (a, w, b),
                   lambda g, j: _unbroadcast(g, bv.shape) if j == 2 else _matmul_vjp(g, av, wv, j))


def relu_linear(a, w, b, split: int | None = None):
    """``linear(relu(a), w, b)`` in one op, rounding as the two ops: the
    tail of the dynamic branch.  With `split`, the output comes apart into
    DCD's (Λ, Φ), its columns ``:split`` plus 1 and ``split:``, each as
    `narrow` takes it; taped, those are two `narrow` nodes of the one output."""
    tape, av, wv, bv = _inputs(a, w, b)
    hidden = np.maximum(av, 0.0)
    raw = T.matmul(hidden, wv)
    raw += bv
    out = raw
    if tape is not None:
        mask = av > 0
        out = _record(tape, raw, (a, w, b), lambda g, j: _unbroadcast(g, bv.shape) if j == 2
                      else _matmul_vjp(g, hidden, wv, 1) if j == 1 else _matmul_vjp(g, hidden, wv, 0) * mask)
    if split is None:
        return out
    lam, phi = raw[:, :split] + 1.0, np.ascontiguousarray(raw[:, split:])
    if tape is None:
        return lam, phi
    return (_record(tape, lam, (out,), _into(raw.shape, (slice(None), slice(0, split)))),
            _record(tape, phi, (out,), _into(raw.shape, (slice(None), slice(split, raw.shape[1])))))


def _matmul_vjp(g, av, bv, j):
    # `T.matmul` takes contiguous operands: numpy may run a transposed view through another loop
    return T.matmul(g, np.ascontiguousarray(bv.T)) if j == 0 else T.matmul(np.ascontiguousarray(av.T), g)


def stacked_matmul(a, b):
    """``np.matmul(a, b)`` of operands with at least 2 dims: one product per item
    of the broadcast leading (stack) axes, so a stack of N samples gives the
    stacked one-sample results bit for bit.  Each adjoint is the swapped
    product, summed over the axes its operand was broadcast along."""
    tape, av, bv = _inputs(a, b)
    out = np.matmul(av, bv)
    if tape is None:
        return out
    return _record(tape, out, (a, b), lambda g, j: _stacked_vjp(g, av, bv, j))


def _stacked_vjp(g, av, bv, j):
    if j == 0:
        return _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), av.shape)
    return _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), bv.shape)


def lowrank_kernel(w0, lam, p, phi, qt, shape, taps=None):
    """The materialised DCD kernel W(x) = Λ ⊙ W0 + P·Φ·Qᵀ, (N,) + `shape`,
    W(x)'s conv layout (C_out, C_in/groups, k, k), in one op that rounds,
    forward and VJP, as the ops it replaces: the stacked products
    P_b·Φ_b·Q_bᵀ per diagonal block in the cheaper association order,
    (P·Φ)·Qᵀ when C_out/B ≤ C_in/B and P·(Φ·Qᵀ) otherwise; for B > 1 a
    product with the block-diagonal mask; at B = 1 with `taps`, a (k²,)
    one-hot, a product that puts the residual on that kernel element alone;
    then `affine` with W0 and Λ, or `add` of W0 when `lam` is None (Λ = 1).

    `w0` holds the kernel's C_out·C_in/groups·k² values, `p` is P as B
    stacked row blocks (C_out, L), `phi` Φ as (N, B·L·L) and `qt` Qᵀ as B
    blocks (B, L, C_in/B); depthwise DCD passes Rᵀ as one (1, L_k, k²)
    block, so each channel's k² taps are its Qᵀ columns.  Every product has
    the sample as a stack axis, so batch N gives the stacked batch-1
    kernels bit for bit."""
    tape, w0v, lamv, pv, phiv, qtv = _inputs(w0, lam, p, phi, qt)
    b, l, ci = qtv.shape
    n, c_out = phiv.shape[0], pv.shape[0]
    co = c_out // b
    w0k, p3, phi4 = w0v.reshape(shape), pv.reshape(b, co, l), phiv.reshape(n, b, l, l)
    left = co <= ci  # (P·Φ)·Qᵀ, else P·(Φ·Qᵀ)
    t = np.matmul(p3, phi4) if left else np.matmul(phi4, qtv)
    res = np.matmul(t, qtv) if left else np.matmul(p3, t)
    if b > 1:  # (N, B, C_out/B, C_in/B) onto the block diagonal of (N, C_out, C_in)
        mask = (n, b, co, 1, ci), np.eye(b).reshape(b, 1, b, 1)
    else:  # at B = 1, the residual on the one kernel element `taps` selects, if any
        mask = None if taps is None else ((n, c_out, ci, 1), taps)
    masked = res if mask is None else res.reshape(mask[0]) * mask[1]
    kernel = masked.reshape((n,) + shape)
    lam5 = None if lamv is None else lamv.reshape(n, c_out, 1, 1, 1)
    if lam5 is None:
        out = w0k + kernel
    else:
        out = w0k * lam5
        out += kernel
    if tape is None:
        return out

    @_last
    def products(g):  # the adjoints of P, Φ and Qᵀ, through the masks and the two stacked products
        if mask is not None:
            g = _unbroadcast(np.ascontiguousarray(g.reshape(masked.shape)) * mask[1], mask[0])
        g = np.ascontiguousarray(g.reshape(res.shape))
        if left:
            gt, gqt = _stacked_vjp(g, t, qtv, 0), _stacked_vjp(g, t, qtv, 1)
            gp, gphi = _stacked_vjp(gt, p3, phi4, 0), _stacked_vjp(gt, p3, phi4, 1)
        else:
            gp, gt = _stacked_vjp(g, p3, t, 0), _stacked_vjp(g, p3, t, 1)
            gphi, gqt = _stacked_vjp(gt, phi4, qtv, 0), _stacked_vjp(gt, phi4, qtv, 1)
        return [np.ascontiguousarray(gp.reshape(pv.shape)), np.ascontiguousarray(gphi.reshape(phiv.shape)), gqt]

    def vjp(g, j):
        if j == 0:
            return np.ascontiguousarray(_unbroadcast(g if lam5 is None else g * lam5, shape).reshape(w0v.shape))
        if j == 1:
            return np.ascontiguousarray(_unbroadcast(g * w0k, lam5.shape).reshape(lamv.shape))
        return products(g)[j - 2]

    return _record(tape, out, (w0, lam, p, phi, qt), vjp)


def relu(a):
    tape, av = _inputs(a)
    out = np.maximum(av, 0.0)
    if tape is None:
        return out
    mask = av > 0
    return _record(tape, out, (a,), lambda g, j: g * mask)


def sigmoid(a):
    tape, av = _inputs(a)
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
    tape, z = _inputs(a)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / np.sum(e, axis=-1, keepdims=True)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g, j: (g - np.sum(g * out, axis=-1, keepdims=True)) * out)


def reshape(a, shape):
    tape, av = _inputs(a)
    out = av.reshape(shape)
    if tape is None:
        return out
    return _record(tape, out, (a,), lambda g, j: np.ascontiguousarray(g.reshape(av.shape)))


def transpose_axes(a, axes, shape=None):
    """`a`, reshaped to `shape` first when one is given, with its axes
    permuted, as a contiguous array.  Of model state that owns its memory (a
    parameter's value) the copy is kept (`T.kept`) until the next state write."""
    tape, av = _inputs(a)
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
    tape, av = _inputs(a)
    sl = (slice(None),) * axis + (slice(start, stop),)
    out = av[sl] + plus if plus else np.ascontiguousarray(av[sl])
    if tape is None:
        return out
    return _record(tape, out, (a,), _into(av.shape, sl))


def _into(shape, index):
    """The VJP of a slice: its output gradient at `index` in zeros of `shape`."""
    def vjp(g, j):
        full = np.zeros(shape)
        full[index] = g
        return full

    return vjp


def sum_all(a):
    tape, av = _inputs(a)
    out = np.asarray(av.sum())
    if tape is None:
        return out
    return _record(tape, out, (a,),
                   lambda g, j: np.broadcast_to(np.asarray(g), av.shape).astype(np.float64).copy())


def global_avg_pool(a):
    """(N,C,H,W) -> (N,C) spatial mean."""
    tape, av = _inputs(a)
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
    tape, av = _inputs(a)
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
    tape, xv, wv = _inputs(x, weight)
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


def latent_chain(x, qt, phi, p, stride: int = 1, padding: int = 0):
    """The factored DCD residual P·Φ(x)·(Qᵀx), (N, C_out, H', W'), in one op
    that rounds, forward and VJP, as the three grouped 1×1 convs it
    replaces: Qᵀ at `stride` and `padding`, then each sample's Φ, then P,
    each of the B diagonal blocks a group.  A negative `padding` crops
    that many pixels off each border of `x` instead (a 1×1 conv at the
    centre tap of a k×k kernel with less than (k - 1)/2 padding).

    `qt` is Qᵀ as B blocks (B, L, C_in/B), `phi` Φ as (N, B·L·L) and `p`
    P as B stacked row blocks (C_out, L)."""
    tape, xv, qtv, phiv, pv = _inputs(x, qt, phi, p)
    b, l, ci = qtv.shape
    n, _, h, w = xv.shape
    crop = (..., slice(-padding, h + padding), slice(-padding, w + padding)) if padding < 0 else None
    xc, padding = (xv, padding) if crop is None else (np.ascontiguousarray(xv[crop]), 0)
    q4, phi5, p4 = qtv.reshape(b * l, ci, 1, 1), phiv.reshape(n, b * l, l, 1, 1), pv.reshape(-1, l, 1, 1)
    z1 = T.conv2d(xc, q4, stride, padding, b)
    z2 = T.conv2d(z1, phi5, 1, 0, b)
    out = T.conv2d(z2, p4, 1, 0, b)
    if tape is None:
        return out
    gz2 = _last(lambda g: _conv2d_input_grad(g, z2.shape, p4, 1, 0, b))
    gz1 = _last(lambda g: _conv2d_input_grad(gz2(g), z1.shape, phi5, 1, 0, b))

    def vjp(g, j):
        if j == 3:
            return np.ascontiguousarray(_conv2d_weight_grad(g, z2, p4.shape, 1, 0, b).reshape(pv.shape))
        if j == 2:
            return np.ascontiguousarray(_conv2d_weight_grad(gz2(g), z1, phi5.shape, 1, 0, b).reshape(phiv.shape))
        if j == 1:
            gq = _conv2d_weight_grad(gz1(g), xc, q4.shape, stride, padding, b)
            return np.ascontiguousarray(gq.reshape(qtv.shape))
        gx = _conv2d_input_grad(gz1(g), xc.shape, q4, stride, padding, b)
        return gx if crop is None else _into(xv.shape, crop)(gx, 0)

    return _record(tape, out, (x, qt, phi, p), vjp)


def batchnorm_train(x, gamma, beta):
    """Batch-stat normalization; returns (out, batch_mean, batch_var), the
    per-channel mean and biased variance over (N,H,W).

    The mean and the variance are reductions with no temporary array, and
    x̂ is formed once, for ``out = x̂·γ + β`` and the VJP, whose three
    adjoints share dβ = Σg and dγ = Σg·x̂: dx = γ·inv·(g − (dβ + x̂·dγ)/m).
    The returned stats are plain arrays (running-average bookkeeping is the
    caller's job and carries no gradient).
    """
    tape, xv, gv, bv = _inputs(x, gamma, beta)
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
    sums = _last(lambda g: (np.einsum("nchw->c", g), np.einsum("nchw,nchw->c", g, xhat)))

    def vjp(g, j):
        dbeta, dgamma = sums(g)
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
    tape, zv = _inputs(logits)
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
