"""Reverse-mode engine: adjoints vs central differences, linearity."""

import itertools

import numpy as np
import pytest

from dynconv import autodiff as ad
from dynconv import tensor as T
from dynconv.gradcheck import coord_sample, finite_diff_check


def check_grads(loss_fn, params, tol=1e-6, step=1e-5):
    report = finite_diff_check(loss_fn, params, step=step, tol=tol)
    assert report.passed, report
    return report


def away_from_zero(rng, shape, low=0.05, high=1.0):
    """Random values bounded away from 0 so ReLU kinks stay off the path."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mag * sign


# ---------------------------------------------------------------------------
# dispatch: plain arrays stay eager and bit-match the kernels


def test_eager_dispatch_matches_kernels():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    out = ad.matmul(a, b)
    assert isinstance(out, np.ndarray)
    assert np.array_equal(out, T.matmul(a, b))

    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    assert np.array_equal(ad.conv2d(x, w, stride=1, padding=1), T.conv2d(x, w, stride=1, padding=1))
    assert np.array_equal(ad.relu(x), np.maximum(x, 0.0))
    assert np.array_equal(ad.global_avg_pool(x), x.reshape(2, 3, 36).sum(axis=2) / 36.0)


def test_taped_forward_bit_identical_to_eager():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 8, 8))
    w = rng.standard_normal((5, 3, 3, 3))
    gamma = rng.standard_normal(5) + 2.0
    beta = rng.standard_normal(5)
    fc = rng.standard_normal((5, 4))

    def forward(lift):
        h = ad.conv2d(x, lift(w), stride=1, padding=1)
        h, _, _ = ad.batchnorm_train(h, lift(gamma), lift(beta))
        h = ad.relu(h)
        h = ad.global_avg_pool(h)
        return ad.matmul(h, lift(fc))

    eager = forward(lambda v: v)
    tape = ad.Tape()
    taped = forward(lambda v: tape.leaf(v))
    assert np.array_equal(eager, taped.value)


# every input of an op has its own shape, so a gradient handed to the wrong input shows
# (but for affine's full-shape shift, which test_grad_affine covers)
_RNG = np.random.default_rng(2)
RECORD_CASES = {
    "add": (ad.add, [(3, 4), (1, 4)]),
    "mul": (ad.mul, [(3, 4), (3, 1)]),
    "affine": (ad.affine, [(2, 3, 4, 4), (2, 3, 1, 1), (1, 3, 1, 1)]),
    "affine_full_shift": (ad.affine, [(2, 3, 4, 4), (2, 3, 1, 1), (2, 3, 4, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "conv2d": (lambda x, w: ad.conv2d(x, w, padding=1), [(2, 3, 5, 5), (4, 3, 3, 3)]),
    "batchnorm_train": (lambda x, g, b: ad.batchnorm_train(x, g, b)[0], [(2, 3, 4, 4), (3,), (3,)]),
    "stacked_matmul": (ad.stacked_matmul, [(3, 4), (2, 4, 5)]),
}
RECORD_VALUES = {name: [_RNG.standard_normal(shape) for shape in shapes]
                 for name, (_, shapes) in RECORD_CASES.items()}


def _record_case(name, taped):
    """Run op `name` with the inputs at positions `taped` on a tape and the
    rest as constants; return its node, its inputs and each input's gradient."""
    op, _ = RECORD_CASES[name]
    params = [ad.Parameter(f"in{j}", v) for j, v in enumerate(RECORD_VALUES[name])]
    tape = ad.Tape()
    inputs = [tape.leaf(p.value, param=p) if j in taped else p.value for j, p in enumerate(params)]
    out = op(*inputs)
    weights = np.random.default_rng(3).standard_normal(out.shape)
    grads = ad.backward(ad.sum_all(ad.mul(out, weights)))
    return out, inputs, [grads.get(p) for p in params]


# every eager op, with operands whose values survive any of the raw layouts below
EAGER_CASES = RECORD_CASES | {
    "scale": (lambda a: ad.scale(a, 0.3), [(3, 4)]),
    "relu": (ad.relu, [(2, 3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "softmax_rows": (ad.softmax_rows, [(3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)]),
    "transpose_axes": (lambda a: ad.transpose_axes(a, (2, 0, 1)), [(2, 3, 4)]),
    "narrow": (lambda a: ad.narrow(a, 1, 1, 3), [(3, 4)]),
    "sum_all": (ad.sum_all, [(3, 4)]),
    "global_avg_pool": (ad.global_avg_pool, [(2, 3, 4, 4)]),
    "max_pool2d": (lambda a: ad.max_pool2d(a, 3, 2, 1), [(2, 3, 5, 5)]),
    "cross_entropy": (lambda a: ad.cross_entropy(a, np.array([0, 3, 1])), [(3, 4)]),
}
RAW_OPERANDS = {
    "int": lambda v: np.round(4.0 * v).astype(np.int64),
    "float32": lambda v: v.astype(np.float32),
    "fortran": np.asfortranarray,
    "strided": lambda v: np.stack([v, -v], axis=-1)[..., 0],
}


@pytest.mark.parametrize("kind", list(RAW_OPERANDS))
@pytest.mark.parametrize("name", list(EAGER_CASES))
def test_every_op_returns_c_contiguous_float64(name, kind):
    """`value_of` is the one coercion point: an op's result is the same bytes
    whether a raw operand is converted first or not, and a taped result is
    C-contiguous float64 too, so ops can use node values without coercing."""
    op, shapes = EAGER_CASES[name]
    raw = [RAW_OPERANDS[kind](np.random.default_rng(4).standard_normal(shape)) for shape in shapes]
    converted = [np.ascontiguousarray(v, dtype=np.float64) for v in raw]
    got, want = op(*raw), op(*converted)
    tape = ad.Tape()
    taped = op(*[tape.leaf(v) for v in converted]).value
    for out in (got, taped):
        assert isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous
        assert out.shape == want.shape and out.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", list(RECORD_CASES))
def test_record_keeps_only_taped_inputs_as_parents(name):
    n = len(RECORD_VALUES[name])
    out, inputs, full = _record_case(name, set(range(n)))
    assert len(out.parents) == n and all(p is x for p, x in zip(out.parents, inputs))
    assert [g.shape for g in full] == [v.shape for v in RECORD_VALUES[name]]
    for i in range(n):
        out, inputs, grads = _record_case(name, {i})
        assert len(out.parents) == 1 and out.parents[0] is inputs[i]
        assert np.array_equal(grads[i], full[i])
        assert all(g is None for j, g in enumerate(grads) if j != i)
    op, _ = RECORD_CASES[name]
    one, two = ad.Tape(), ad.Tape()
    first, second, *rest = RECORD_VALUES[name]
    with pytest.raises(ValueError, match="inputs recorded on different tapes"):
        op(one.leaf(first), two.leaf(second), *rest)


# ---------------------------------------------------------------------------
# per-primitive gradient checks


def test_grad_matmul_and_bias():
    rng = np.random.default_rng(2)
    w = ad.Parameter("w", rng.standard_normal((6, 4)))
    b = ad.Parameter("b", rng.standard_normal(4))
    x = rng.standard_normal((3, 6))
    c = rng.standard_normal((3, 4))

    def loss():
        tape = ad.Tape()
        z = ad.add(ad.matmul(x, tape.leaf(w.value, param=w)), tape.leaf(b.value, param=b))
        return ad.sum_all(ad.mul(z, c))

    check_grads(loss, [w, b])


def test_grad_mul_broadcast():
    rng = np.random.default_rng(3)
    a = ad.Parameter("a", rng.standard_normal((4, 1, 5)))
    b = ad.Parameter("b", rng.standard_normal((3, 5)))

    def loss():
        tape = ad.Tape()
        prod = ad.mul(tape.leaf(a.value, param=a), tape.leaf(b.value, param=b))
        sq = ad.mul(prod, prod)
        return ad.scale(ad.sum_all(sq), 1.0 / sq.value.size)

    check_grads(loss, [a, b])


@pytest.mark.parametrize("bshape", [(1, 3, 1, 1), (2, 3, 4, 4)], ids=["channel-shift", "full-shift"])
def test_grad_affine(bshape):
    rng = np.random.default_rng(5)
    a = ad.Parameter("a", rng.standard_normal((2, 3, 4, 4)))
    w = ad.Parameter("w", away_from_zero(rng, (2, 3, 1, 1)))
    b = ad.Parameter("b", rng.standard_normal(bshape))
    c = away_from_zero(rng, (2, 3, 4, 4))  # no tiny adjoint of a for the difference noise to swamp

    def loss():
        tape = ad.Tape()
        out = ad.affine(*(tape.leaf(p.value, param=p) for p in (a, w, b)))
        return ad.sum_all(ad.mul(out, c))

    check_grads(loss, [a, w, b])


@pytest.mark.parametrize("bshape", [(1, 3, 1, 1), (2, 3, 4, 4)], ids=["channel-shift", "full-shift"])
def test_affine_rounds_like_mul_then_add(bshape):
    """One op, the same bits as the two it replaces, eager and on a tape."""
    rng = np.random.default_rng(6)
    values = [rng.standard_normal(shape) for shape in ((2, 3, 4, 4), (2, 3, 1, 1), bshape)]
    assert np.array_equal(ad.affine(*values), ad.add(ad.mul(*values[:2]), values[2]))
    target = rng.standard_normal((2, 3, 4, 4))
    grads = []
    for op in (ad.affine, lambda a, w, b: ad.add(ad.mul(a, w), b)):
        params = [ad.Parameter(f"in{j}", v) for j, v in enumerate(values)]
        tape = ad.Tape()
        out = op(*(tape.leaf(p.value, param=p) for p in params))
        g = ad.backward(ad.sum_all(ad.mul(out, target)))
        grads.append([g[p] for p in params])
    assert all(np.array_equal(f, u) for f, u in zip(*grads))


def test_ops_on_0d_values_keep_their_shape_eager_and_taped():
    x = np.arange(6.0).reshape(2, 3)
    tape = ad.Tape()
    mean = ad.scale(ad.sum_all(x), 1.0 / x.size)
    assert mean.shape == ad.scale(ad.sum_all(tape.leaf(x)), 1.0 / x.size).value.shape == ()
    s = np.asarray(2.5)
    assert ad.add(s, s).shape == ad.add(tape.leaf(s), s).value.shape == ()
    assert ad.mul(s, 2.0).shape == ad.mul(tape.leaf(s), 2.0).value.shape == ()


def test_grad_relu_sigmoid_softmax():
    rng = np.random.default_rng(4)
    z = ad.Parameter("z", away_from_zero(rng, (5, 7)))
    c = rng.standard_normal((5, 7))

    def loss_relu():
        tape = ad.Tape()
        return ad.sum_all(ad.mul(ad.relu(tape.leaf(z.value, param=z)), c))

    def loss_sigmoid():
        tape = ad.Tape()
        return ad.sum_all(ad.mul(ad.sigmoid(tape.leaf(z.value, param=z)), c))

    def loss_softmax():
        tape = ad.Tape()
        att = ad.attention_activation(tape.leaf(z.value, param=z), "softmax", tau=2.5)
        return ad.sum_all(ad.mul(att, c))

    check_grads(loss_relu, [z])
    check_grads(loss_sigmoid, [z])
    check_grads(loss_softmax, [z])


@pytest.mark.parametrize(
    "xshape,wshape,stride,padding,groups",
    [
        ((2, 3, 6, 6), (4, 3, 3, 3), 1, 1, 1),
        ((2, 4, 7, 7), (3, 4, 3, 3), 2, 1, 1),
        ((2, 4, 6, 6), (6, 2, 3, 3), 1, 1, 2),
        ((2, 4, 5, 5), (4, 1, 3, 3), 1, 1, 4),
        ((2, 3, 4, 4), (5, 3, 1, 1), 1, 0, 1),
    ],
)
def test_grad_conv2d(xshape, wshape, stride, padding, groups):
    rng = np.random.default_rng(5)
    x = ad.Parameter("x", rng.standard_normal(xshape))
    w = ad.Parameter("w", rng.standard_normal(wshape) * 0.5)
    n, c_out = xshape[0], wshape[0]
    ho = T.conv_out_size(xshape[2], wshape[2], stride, padding)
    wo = T.conv_out_size(xshape[3], wshape[3], stride, padding)
    c = rng.standard_normal((n, c_out, ho, wo))

    def loss():
        tape = ad.Tape()
        out = ad.conv2d(tape.leaf(x.value, param=x), tape.leaf(w.value, param=w),
                        stride=stride, padding=padding, groups=groups)
        return ad.sum_all(ad.mul(out, c))

    check_grads(loss, [x, w])


def test_grad_batchnorm_train():
    rng = np.random.default_rng(6)
    x = ad.Parameter("x", rng.standard_normal((3, 4, 5, 5)))
    gamma = ad.Parameter("gamma", rng.standard_normal(4) + 2.0)
    beta = ad.Parameter("beta", rng.standard_normal(4))
    c = rng.standard_normal((3, 4, 5, 5))

    def loss():
        tape = ad.Tape()
        out, _, _ = ad.batchnorm_train(
            tape.leaf(x.value, param=x), tape.leaf(gamma.value, param=gamma), tape.leaf(beta.value, param=beta)
        )
        return ad.sum_all(ad.mul(out, c))

    # batch-norm divides by batch std, so loosen slightly for conditioning
    check_grads(loss, [x, gamma, beta], tol=5e-6)


def test_grad_global_avg_pool_and_mean():
    rng = np.random.default_rng(7)
    x = ad.Parameter("x", rng.standard_normal((2, 3, 4, 4)))
    c = rng.standard_normal((2, 3))

    def loss():
        tape = ad.Tape()
        return ad.scale(ad.sum_all(ad.mul(ad.global_avg_pool(tape.leaf(x.value, param=x)), c)), 1.0 / c.size)

    check_grads(loss, [x])


def test_grad_max_pool():
    rng = np.random.default_rng(17)
    # spread values so the finite-difference step cannot flip any argmax
    x = ad.Parameter("x", rng.permutation(np.arange(2 * 3 * 9 * 9, dtype=float)).reshape(2, 3, 9, 9) * 1e-3)
    c = rng.standard_normal((2, 3, 5, 5))

    def loss():
        tape = ad.Tape()
        return ad.sum_all(ad.mul(ad.max_pool2d(tape.leaf(x.value, param=x), 3, 2, 1), c))

    check_grads(loss, [x])


def test_max_pool_eager_matches_taped():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 4, 8, 8))
    eager = ad.max_pool2d(x, 2, 2, 0)
    tape = ad.Tape()
    taped = ad.max_pool2d(tape.leaf(x), 2, 2, 0)
    assert np.array_equal(eager, taped.value)


def einsum_oracle(spec, *operands):
    """Explicit loop over every index assignment, summing the operand products."""
    ins, out_sub = spec.split("->")
    ins = ins.split(",")
    size = {s: n for sub, op in zip(ins, operands) for s, n in zip(sub, op.shape)}
    letters = sorted(size)
    out = np.zeros([size[s] for s in out_sub])
    for combo in itertools.product(*(range(size[s]) for s in letters)):
        idx = dict(zip(letters, combo))
        term = 1.0
        for sub, op in zip(ins, operands):
            term *= op[tuple(idx[s] for s in sub)]
        out[tuple(idx[s] for s in out_sub)] += term
    return out


@pytest.mark.parametrize("spec", [
    "boa,nbac->nboc",  # pointwise / block-sparse P_b·Φ_b: P shared by the samples
    "nboc,bci->nboi",  # then ·Q_bᵀ, shared too
    "ca,nab->ncb",  # depthwise / channel-only P·Φ, and full k×k's Q and P products: a 2-d left operand
    "nab,be->nae",  # depthwise and full k×k ·Rᵀ: a 2-d right operand
])
def test_grad_stacked_matmul(spec):
    rng = np.random.default_rng(10)
    size = {"n": 2, "a": 2, "b": 3, "c": 2, "e": 4, "i": 3, "o": 2}
    ins, out_sub = spec.split("->")
    params = [ad.Parameter(sub, rng.standard_normal([size[s] for s in sub])) for sub in ins.split(",")]
    c = rng.standard_normal([size[s] for s in out_sub])

    eager = ad.stacked_matmul(*(p.value for p in params))
    want = einsum_oracle(spec, *(p.value for p in params))
    assert eager.shape == want.shape
    assert np.max(np.abs(eager - want)) <= 1e-12 * np.max(np.abs(want))

    def run():
        tape = ad.Tape()
        return ad.stacked_matmul(*(tape.leaf(p.value, param=p) for p in params))

    out = run()
    assert np.array_equal(out.value, eager)
    check_grads(lambda: ad.sum_all(ad.mul(run(), c)), params)


def test_grad_block_diag_narrow_concat_transpose():
    rng = np.random.default_rng(9)
    z = ad.Parameter("z", rng.standard_normal((4, 6)))
    c2 = rng.standard_normal((4, 2))

    def loss_slice():
        tape = ad.Tape()
        node = tape.leaf(z.value, param=z)
        return ad.sum_all(ad.mul(ad.narrow(node, 1, 1, 3), c2))

    check_grads(loss_slice, [z])

    t3 = ad.Parameter("t3", rng.standard_normal((2, 3, 4)))
    c3 = rng.standard_normal((4, 2, 3))

    def loss_tr():
        tape = ad.Tape()
        moved = ad.transpose_axes(tape.leaf(t3.value, param=t3), (2, 0, 1))
        return ad.sum_all(ad.mul(moved, c3))

    check_grads(loss_tr, [t3])


def test_grad_cross_entropy():
    rng = np.random.default_rng(10)
    w = ad.Parameter("w", rng.standard_normal((6, 4)))
    x = rng.standard_normal((8, 6))
    labels = rng.integers(0, 4, size=8)

    def loss():
        tape = ad.Tape()
        return ad.cross_entropy(ad.matmul(x, tape.leaf(w.value, param=w)), labels)

    check_grads(loss, [w])


def test_grad_parameter_reused_accumulates():
    rng = np.random.default_rng(11)
    w = ad.Parameter("w", rng.standard_normal((3, 3)))
    x = rng.standard_normal((2, 3))
    c1 = rng.standard_normal((2, 3))
    c2 = rng.standard_normal((2, 3))

    def loss():
        tape = ad.Tape()
        n1 = tape.leaf(w.value, param=w)
        # same leaf twice and a second leaf of the same parameter
        y1 = ad.mul(ad.matmul(x, n1), c1)
        y2 = ad.mul(ad.matmul(x, n1), c2)
        n2 = tape.leaf(w.value, param=w)
        y3 = ad.matmul(x, n2)
        return ad.add(ad.sum_all(ad.add(y1, y2)), ad.sum_all(y3))

    check_grads(loss, [w])


# ---------------------------------------------------------------------------
# engine properties


def build_small_graph(seed=12):
    rng = np.random.default_rng(seed)
    w = ad.Parameter("w", rng.standard_normal((4, 2, 3, 3)) * 0.4)
    gamma = ad.Parameter("gamma", np.ones(4))
    beta = ad.Parameter("beta", np.zeros(4))
    fc = ad.Parameter("fc", rng.standard_normal((4, 3)))
    x = rng.standard_normal((2, 2, 6, 6))
    labels = np.array([0, 2])

    tape = ad.Tape()
    h = ad.conv2d(x, tape.leaf(w.value, param=w), stride=1, padding=1)
    h, _, _ = ad.batchnorm_train(h, tape.leaf(gamma.value, param=gamma), tape.leaf(beta.value, param=beta))
    h = ad.relu(h)
    pooled = ad.global_avg_pool(h)
    logits = ad.matmul(pooled, tape.leaf(fc.value, param=fc))
    loss = ad.cross_entropy(logits, labels)
    return tape, loss, [w, gamma, beta, fc]


def test_backward_is_linear_in_seed():
    _, loss, params = build_small_graph()
    g1 = ad.backward(loss, 1.0)
    g2 = ad.backward(loss, 2.0)
    for p in params:
        assert np.array_equal(g2[p], 2.0 * g1[p])


def test_backward_deterministic_across_rebuilds():
    _, loss_a, params_a = build_small_graph()
    _, loss_b, params_b = build_small_graph()
    ga = ad.backward(loss_a, 1.0)
    gb = ad.backward(loss_b, 1.0)
    for pa, pb in zip(params_a, params_b):
        assert np.array_equal(ga[pa], gb[pb])


def test_corrupted_adjoint_is_caught():
    rng = np.random.default_rng(13)
    p = ad.Parameter("p", rng.standard_normal((3, 3)))

    def bad_double(node):
        out = node.value * 2.0
        # deliberately wrong adjoint (claims 3x instead of 2x)
        return ad._record(node.tape, "bad", out, (node,), lambda g, j: g * 3.0)

    def loss():
        tape = ad.Tape()
        return ad.sum_all(bad_double(tape.leaf(p.value, param=p)))

    report = finite_diff_check(loss, [p], tol=1e-6)
    assert not report.passed
    assert report.max_rel_err > 0.3


def test_coord_sample_is_deterministic_and_bounded():
    small = coord_sample(10, max_coords=256)
    assert small == list(range(10))
    big = coord_sample(100_000, max_coords=256)
    assert len(big) <= 256
    assert big == coord_sample(100_000, max_coords=256)
    assert big[0] == 0 and all(b > a for a, b in zip(big, big[1:]))


def test_gradcheck_report_shape():
    rng = np.random.default_rng(14)
    p = ad.Parameter("p", rng.standard_normal(600))

    def loss():
        tape = ad.Tape()
        node = tape.leaf(p.value, param=p)
        return ad.sum_all(ad.mul(node, node))

    report = finite_diff_check(loss, [p], max_coords=256)
    assert report.passed and report.entries[0].passed
    assert report.entries[0].checked <= 256
    assert report.entries[0].name == "p"
