"""Deterministic float64 tensor kernels: the contractions ``matmul`` and
``conv2d``, im2col, the shape rule (`conv_plan`) that runs a conv as a
depthwise tap sum or on its live window of taps, the tiling of large
stacked products into blocks of a shared operand or chunks of samples, SVD,
the finite check, and the model state's lock, its one writer and the values
kept from it.
The differentiable ops, elementwise ones, batch norm and max pooling
included, are defined once, in `dynconv.autodiff`, and call these kernels.

No kernel checks its result.  `check_finite` runs at fixed points instead:
in each layer, before an op that could hide a non-finite value (see
`dynconv.layers`), and on each parameter gradient at the end of its
accumulation in `dynconv.autodiff.backward`.

Every differentiable op returns a C-contiguous float64 ndarray, so an op
coerces a raw operand once, in `autodiff.value_of`, and ``matmul``,
``conv2d`` and ``im2col`` take their operands as given.  A caller holding
a transposed or strided view makes it contiguous first: numpy may run a
different product loop on a view, and round differently.  ``svd`` coerces
its raw input.

The contractions run as ``np.matmul`` with the sample (and, in conv2d, the
group) as a stack axis, through `stacked_matmul`, so each sample's product
is the same block calls on the same memory whatever the batch size: a
large shared operand is cut into blocks by its shape alone.  A 1×1
stride-1 unpadded ``conv2d`` with more than one input channel per group
goes straight to its product, with ``x`` as its own patch matrix, and
takes no plan and no im2col.  The blocks, or
the samples of another large product, are divided among the process's CPUs
and make those same per-sample calls, so the bits do not depend on the
worker count either.  Two kinds of contract rest on this:

* bit-exact: a dynamic model equals its static twin at initialization; a
  batch-N forward equals the stacked batch-1 forwards; a checkpoint
  round-trips; the same config and seed give byte-identical logs at a fixed
  BLAS thread count.  A depthwise ``conv2d`` with at least
  `DEPTHWISE_TAP_RATIO` channels per output position runs as
  `_depthwise_taps`, elementwise products summed in (dy, dx) order from
  zero, where BLAS would sum in its own order, and so equals the tests'
  loop-order reference conv.  A conv whose one output position reads fewer
  real pixels than it has taps runs as the unpadded conv of those pixels
  with the kernel's live window, the same per-sample product as any conv
  of that window's size (for one real pixel, any 1×1 conv).  Both rules
  read the conv's shape only (`conv_plan`), never the batch size, so a
  sample's kernel, and its bits, do not depend on the batch it comes in.
* tolerance: the BLAS kernels ``matmul``/``conv2d``, blocked or not and the
  window conv among them (and the conv VJPs in ``dynconv.autodiff``),
  against the tests' reference kernels, to 1e-12 relative.

Everything else relies on numpy's deterministic elementwise semantics.

Model state (each `Parameter` value and batch-norm running buffer) is
read-only: `lock_state` locks an array when it becomes state, and
`write_states` is its one writer (`write_state` writes one array through
it), which bumps a module-level state epoch once per call.
A write that skips it raises numpy's read-only ``ValueError``.  `kept`
keeps a value derived from a state array, read-only, until the epoch moves,
in an entry that lives only as long as that array.  It has two users: the
window conv here (a shared kernel's contiguous live window, which a DCD
layer's W0 and its static twin's kernel, a view of it, share), and
`autodiff.transpose_axes` (a parameter's transposed copy, such as a DCD
layer's Qᵀ).  A kept value is the copy a fresh derivation would make, so no
output moves by a bit.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
import weakref
from dataclasses import dataclass

import numpy as np

# A stacked product of fewer multiply-adds runs on the calling thread.  With
# BLAS at 1 thread on 2 vCPUs the split takes the second CPU: a copy with it
# deleted (every product serial; see CHANGES.md) took ResNet-18-DCD at 224×224
# 1.27-1.37x the split's time at batch 8 and 1.12-1.23x at batch 1, and read
# 9-12 % fewer batch-8 images/s at 32×32.  Small products lose by it: timed
# alone (split and serial alternating, see CHANGES.md), serial took 0.84x the
# split's time on ResNet-18's 2.36 M batch-1 block products at 32×32 and 0.91x
# on its 2.1 M batch-8 one-tap products, and whole ResNet-18 forwards at 32×32
# with this line at 2.5 M rather than 2 M took 0.91-0.93x the time at batch 1
# and 0.99x at batch 8.  The line sits below MobileNetV2-0.5's smallest split
# products at 224×224, batch 8 (2.7-2.8 M), so no product there changes side.
SPLIT_MIN_MADDS = 2_500_000

# A depthwise conv with at least this many channels per output position
# (C >= DEPTHWISE_TAP_RATIO * ho * wo) runs as a channels-last sum over its
# kernel taps instead of im2col + one BLAS call per (sample, channel).  Timed
# per layer in MobileNetV2-0.5 forwards, BLAS at 1 thread (see CHANGES.md),
# the taps took 0.8-0.9x BLAS's time at batch 1 and 0.4-0.5x at batch 8 from
# 48 channels per position up, but 1.2-1.4x at batch 1 from 24 down and
# 1.0-1.2x on 7×7 maps.  Channels per output column alone cannot draw that
# line: C960 on a 7×7 map (137 per column, 1.4x at batch 8) would join C192
# on a 2×2 map (96 per column, 0.4x).
DEPTHWISE_TAP_RATIO = 32

# A shared operand of more elements than this (1 MiB of float64) is cut into
# blocks of at most this many, each multiplied with every sample in turn, so
# a batch reads it once, not once per sample.  In 32×32 eval forwards, BLAS
# at 1 thread (see CHANGES.md), blocks of 32-256 Ki elements took ResNet-18's
# twin at batch 8 from 38.6-43.4 ms whole to 29.6-34.9 ms, and MobileNetV2-0.5's
# from 11.5-13.6 to 9.4-10.4 ms; 512 Ki kept little (41.4 ms).  At batch 1 a
# cut GEMV costs up to 0.07 ms more (a cold 512→1000 FC weight: 0.19 → 0.26 ms).
BLOCK_ELEMENTS = 131_072


class NonFiniteError(ValueError):
    """Raised when an operation produces NaN or +/-Inf; `layer` names the
    model layer it came from, once a model block has re-raised it."""

    def __init__(self, message: str, layer: str | None = None):
        super().__init__(message)
        self.layer = layer


def as_tensor(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array of the same shape (0-d stays 0-d)."""
    return np.asarray(x, dtype=np.float64, order="C")


def check_finite(a: np.ndarray, what: str = "tensor", layer: str | None = None) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values in {what}", layer=layer)
    return a


# ---------------------------------------------------------------------------
# state: read-only arrays, one writer, and values kept until the next write

_epoch = 0  # bumped by every lock_state and write_state
# id(owning array) -> (weakref to it, {key: (epoch, kept value)}); an entry leaves with its array
_owners: dict[int, tuple[weakref.ref, dict]] = {}


def state_epoch() -> int:
    """The state epoch: a value derived from state at one epoch equals a
    fresh derivation for as long as the epoch stays there."""
    return _epoch


def _owner(a: np.ndarray):
    return a if a.base is None else a.base  # numpy points a view's base at the array that owns the memory


def _forget(key: int, ref: weakref.ref) -> None:
    if _owners.get(key, (None,))[0] is ref:
        del _owners[key]


def lock_state(a) -> np.ndarray:
    """`as_tensor(a)`, made read-only model state together with the array
    that owns its memory (so is every view taken of it from now on); bumps
    the state epoch."""
    global _epoch
    a = as_tensor(a)
    owner = _owner(a)
    a.setflags(write=False)
    if isinstance(owner, np.ndarray):
        owner.setflags(write=False)
        entry = _owners.get(id(owner))
        if entry is None or entry[0]() is not owner:
            _owners[id(owner)] = (weakref.ref(owner, functools.partial(_forget, id(owner))), {})
    _epoch += 1
    return a


def write_states(dsts, write) -> None:
    """The one writer of model state: make each array in `dsts` (state
    arrays or views of them) and the array that owns its memory writable,
    call ``write()``, which writes them in place, make them read-only again
    and bump the state epoch once, so no value kept from the old state is
    served again."""
    global _epoch
    # each array's owner (see `_owner`) before the array, which numpy makes writable only after its base
    arrays = [a for dst in dsts for a in ((dst,) if dst.base is None else (dst.base, dst))]
    for a in arrays:
        a.setflags(write=True)
    try:
        write()
    finally:
        for a in arrays:
            a.setflags(write=False)
        _epoch += 1


def write_state(dst: np.ndarray, src, index=Ellipsis) -> None:
    """``dst[index] = src`` in place, through `write_states`."""
    write_states((dst,), functools.partial(dst.__setitem__, index, src))


def kept(source: np.ndarray, key, derive):
    """``derive()``, a value computed from `source` alone, kept read-only
    with the state array that owns `source`'s memory under `key` until the
    next state write.  Where `lock_state` did not lock that array, nothing is
    kept.  The entry holds that array weakly and leaves with it, so a kept
    value never keeps a dropped model alive."""
    owner = _owner(source)
    entry = _owners.get(id(owner))
    if entry is None or entry[0]() is not owner:
        return derive()
    hit = entry[1].get(key)
    if hit is None or hit[0] != _epoch:
        hit = entry[1][key] = (_epoch, derive())
        hit[1].flags.writeable = False
    return hit[1]


@functools.cache
def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS, read once through
    `ctypes`; None where that library or its query is missing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in glob.glob(libs):
        try:
            query = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        query.argtypes, query.restype = [], ctypes.c_int
        return query()
    return None


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def contraction_workers() -> int:
    """How many chunks a large stacked product is split into: the CPUs this
    process may run on, over the threads BLAS runs each product on (the
    CPUs alone where `blas_threads` cannot tell)."""
    return max(1, usable_cpus() // (blas_threads() or 1))


_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool object but not its threads
    os.register_at_fork(after_in_child=_forget_pool)


def _split_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            import concurrent.futures

            _pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=max(contraction_workers() - 1, 1), thread_name_prefix="dynconv-matmul")
        return _pool


def stacked_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """``np.matmul(a, b)`` over `n` samples, the leading stack axis.

    The operand with more dimensions (both, if they have as many) carries
    every stack axis; one with fewer is shared by every sample.  A shared
    operand of more than `BLOCK_ELEMENTS` is cut into equal blocks of at most
    that many: rows of a first operand (a conv kernel), columns of a second
    (an FC weight).  Each block is one ``np.matmul`` over every sample into
    its slice of a preallocated result, so it stays in cache while the
    samples pass.  Any other product is cut by sample.  With at least
    `SPLIT_MIN_MADDS` multiply-adds and more than one CPU, the tiles are
    divided among the workers, one contiguous run per worker thread (numpy
    releases the GIL), the first on the calling thread.  The cut reads the
    shared operand's shape alone, never `n` or the worker count, so each
    sample's product is the same block calls on the same memory at any batch
    size and on any thread.  `matmul` and `conv2d` call ``np.matmul``
    directly for one sample and a shared operand within one block: the call
    alone added ~1 % to a batch-1 `task_dcd` forward.
    """
    if n < 2 and a.size <= BLOCK_ELEMENTS >= b.size:  # one sample, nothing to cut: most calls
        return np.matmul(a, b)
    big = b if b.ndim > a.ndim else a
    # `big` holds every stack item's rows × k (or k × cols) entries
    split = big.size * (a.shape[-2] if big is b else b.shape[-1]) >= SPLIT_MIN_MADDS
    if not split and a.size <= BLOCK_ELEMENTS >= b.size:  # nothing to cut or split
        return np.matmul(a, b)
    return _tiled_matmul(a, b, n, big, split)


def _tiled_matmul(a: np.ndarray, b: np.ndarray, n: int, big: np.ndarray, split: bool) -> np.ndarray:
    """`stacked_matmul` past its early exits, apart so that they make no closure cells."""
    shared = a if a.ndim < b.ndim else b
    workers = contraction_workers() if split else 1
    whole = slice(None)
    if shared.size > BLOCK_ELEMENTS and shared.ndim < big.ndim:
        length = shared.shape[-2 if shared is a else -1]
        count = -(-length // max(1, BLOCK_ELEMENTS * length // shared.size))
        cuts = [slice(length * j // count, length * (j + 1) // count) for j in range(count)]
        tiles = [(cut, whole, 0, n) if shared is a else (whole, cut, 0, n) for cut in cuts]
    elif n < 2 or workers < 2:
        return np.matmul(a, b)
    else:
        workers = min(n, workers)
        tiles = [(whole, whole, n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    out = np.empty(big.shape[:-2] + (a.shape[-2], b.shape[-1]))
    workers = min(workers, len(tiles))
    bounds = [len(tiles) * i // workers for i in range(workers + 1)]
    futures = [_split_pool().submit(_matmul_tiles, a, b, out, tiles[bounds[i]:bounds[i + 1]])
               for i in range(1, workers)]
    _matmul_tiles(a, b, out, tiles[:bounds[1]])
    for future in futures:
        future.result()
    return out


def _matmul_tiles(a: np.ndarray, b: np.ndarray, out: np.ndarray, tiles: list) -> None:
    """For each tile (rows, cols, i0, i1): samples i0..i1 of the stacked
    operands, times the shared one, into rows × cols of those samples in `out`."""
    for rows, cols, i0, i1 in tiles:
        at, bt = (x[i0:i1] if x.ndim == out.ndim else x for x in (a, b))
        np.matmul(at[..., rows, :], bt[..., cols], out=out[i0:i1, ..., rows, cols])


def _check_matmul(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m,k) @ (k,n), each row of `a` contracted as its own (1,k) stack item.

    Row i of the result is the same block calls whether `a` has 1 row or
    many (a `b` of more than `BLOCK_ELEMENTS` is cut into blocks of
    columns), so a batch of rows gives the stacked single-row results bit
    for bit.  A plain 2-d product would switch between gemv and gemm with m.
    """
    _check_matmul(a, b)
    rows = a[:, None, :]
    out = np.matmul(rows, b) if len(a) < 2 and b.size <= BLOCK_ELEMENTS else stacked_matmul(rows, b, len(a))
    return out[:, 0, :]


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
    ho, wo = conv_out_size(h, kh, stride, padding), conv_out_size(w, kw, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ValueError(f"empty conv output for input {x.shape} kernel {(kh, kw)}")
    return n, c_out, c_in_g, kh, kw, ho, wo


def conv_plan(h: int, w: int, ho: int, wo: int, c_out: int, c_in_g: int, groups: int, kh: int, kw: int,
              stride: int, padding: int) -> tuple[str, range, range] | None:
    """Which kernel `conv2d` runs an h×w → ho×wo conv on, by a rule that
    reads the shape alone, never the batch size: None for im2col + BLAS
    over all kh·kw taps, or the kernel and the rows and columns of taps it
    multiplies:

    * ``"depthwise"``: a depthwise conv (one input channel per group,
      ``groups == C_in == C_out``) with at least `DEPTHWISE_TAP_RATIO`
      channels per output position runs as `_depthwise_taps`, over the taps
      that can read a real pixel;
    * ``"window"``: any other conv with one output position whose window
      holds fewer real pixels than taps, but at least one, runs as the conv
      of those pixels with the kernel's live window, at stride 1 and
      padding 0.  The one window starts at padded row and column 0 and the
      real pixels at ``padding``, so the live taps start at (padding,
      padding) and read the real pixels from ``x[..., 0, 0]`` on: rows
      ``:len(ys)`` and columns ``:len(xs)``.  One real pixel makes the 1×1
      window, the one-tap conv.
    """
    if c_in_g == 1 and c_out == groups and c_out >= DEPTHWISE_TAP_RATIO * ho * wo:
        return "depthwise", _live_taps(h, kh, stride, padding, ho), _live_taps(w, kw, stride, padding, wo)
    if ho == wo == 1 and kh * kw > 1:
        ys, xs = _live_taps(h, kh, stride, padding, 1), _live_taps(w, kw, stride, padding, 1)
        if 0 < len(ys) * len(xs) < kh * kw:  # a window of padding alone stays on im2col: its zeros
            return "window", ys, xs
    return None


def conv_taps(h: int, w: int, c_out: int, c_in_g: int, groups: int, k: int, stride: int, padding: int) -> int:
    """How many of a k×k kernel's taps `conv2d` multiplies per output
    position of an h×w input, as `conv_plan` picks its kernel."""
    ho, wo = conv_out_size(h, k, stride, padding), conv_out_size(w, k, stride, padding)
    plan = conv_plan(h, w, ho, wo, c_out, c_in_g, groups, k, k, stride, padding)
    return k * k if plan is None else len(plan[1]) * len(plan[2])


def _live_taps(size: int, k: int, stride: int, padding: int, out: int) -> range:
    """The kernel offsets along one axis whose reads at `out` output
    positions (padded rows d, d + stride, ..., d + stride·(out - 1)) span
    one of the `size` real pixels at padded rows padding .. padding + size - 1.
    An offset outside reads only padding; with one output position, every
    offset inside reads a real pixel."""
    return range(max(0, padding - stride * (out - 1)), min(k, padding + size))


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Cross-correlation of NCHW input with a (C_out, C_in/groups, kh, kw)
    kernel, or with one such kernel per sample, (N, C_out, C_in/groups, kh, kw).

    One `stacked_matmul` contracts (c_in, dy, dx) with samples and groups as
    stack axes, so each sample's output is the same block calls at any batch
    size (a shared kernel of more than `BLOCK_ELEMENTS` is cut into blocks
    of output channels; a per-sample kernel is not cut).  For a 1×1 stride-1
    unpadded conv the patch matrix is a reshaped view of `x`; with more than
    one input channel per group, such a conv goes to the product without
    `conv_plan` (whose rules leave it there) or `im2col`.  `conv_plan` takes
    two kinds of conv off the full patch matrix, by shape alone: a depthwise conv with at
    least `DEPTHWISE_TAP_RATIO` channels per output position runs as
    `_depthwise_taps`, and a conv whose one output position reads fewer real
    pixels than it has taps runs as the conv of those pixels (a contiguous
    copy of ``x[:, :, :len(ys), :len(xs)]``) with the kernel's live window
    (a contiguous copy of ``weight[..., ys, xs]``), at stride 1 and padding
    0: the live taps' product, without the taps that would multiply
    padding.  A shared kernel that views locked state keeps its window
    (`kept`) until the next state write.
    """
    n, c_out, c_in_g, kh, kw, ho, wo = _conv_shapes(x, weight, stride, padding, groups)
    if kh == kw == stride == 1 and not padding and c_in_g > 1:  # one channel per group may be depthwise
        cols = x.reshape(n, groups, c_in_g, ho * wo)
    else:
        plan = conv_plan(x.shape[2], x.shape[3], ho, wo, c_out, c_in_g, groups, kh, kw, stride, padding)
        if plan is not None and plan[0] == "depthwise":
            return _depthwise_taps(x, weight, stride, padding, ho, wo, *plan[1:])
        if plan is not None:  # the live window, from (padding, padding) on: see conv_plan
            _, ys, xs = plan
            x = np.ascontiguousarray(x[:, :, :len(ys), :len(xs)])
            weight = kept(weight, (weight.ctypes.data, weight.shape, weight.strides, ys, xs),
                          functools.partial(_window, weight, ys, xs))  # kept while a state kernel is unwritten
            kh, kw, stride, padding = len(ys), len(xs), 1, 0
        cols = im2col(x, kh, kw, stride, padding).reshape(n, groups, c_in_g * kh * kw, ho * wo)
    wmat = weight.reshape(weight.shape[:-4] + (groups, c_out // groups, c_in_g * kh * kw))
    out = np.matmul(wmat, cols) if n < 2 and wmat.size <= BLOCK_ELEMENTS else stacked_matmul(wmat, cols, n)
    return out.reshape(n, c_out, ho, wo)


def _window(weight: np.ndarray, ys: range, xs: range) -> np.ndarray:
    """A contiguous copy of the kernel window ``weight[..., ys, xs]``."""
    return weight[..., ys.start:ys.stop, xs.start:xs.stop].copy()


def _depthwise_taps(x, weight, stride, padding, ho, wo, ys, xs):
    """A depthwise conv as a sum over its kernel taps in (dy, dx) order on a
    zero-padded channels-last copy of `x`: from zeros, one multiply by the
    tap's weights and one in-place add per tap, each an elementwise op whose
    inner run is C (or wo·C) values.  That is the reference conv's sum, so
    the result equals it bit for bit, for a per-sample kernel too.  Only the
    tap rows `ys` and columns `xs` that can read a real pixel run: the taps
    that only ever read padding would add ±0, which leaves the sum's bits
    alone, so on a 1×1 map a 3×3 kernel costs one multiply and one add."""
    n, c, h, w = x.shape
    kh, kw = weight.shape[-2:]
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    # (kh, kw, 1, 1, 1, C) or (kh, kw, N, 1, 1, C): each tap's weights broadcast over (N, ho, wo, C)
    taps = np.moveaxis(weight.reshape(weight.shape[:-4] + (1, 1, c, kh, kw)), (-2, -1), (0, 1))
    out, prod = np.zeros((n, ho, wo, c)), np.empty((n, ho, wo, c))
    yspan, xspan = stride * (ho - 1) + 1, stride * (wo - 1) + 1  # the extent one tap reads
    for dy in ys:
        for dx in xs:
            np.multiply(xp[:, dy:dy + yspan:stride, dx:dx + xspan:stride], taps[dy, dx], out=prod)
            out += prod
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


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
