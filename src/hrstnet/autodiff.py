"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine: `Tensor` wraps an ndarray, operations record
their inputs and a backward closure, and `Tensor.backward()` walks the
tape in reverse topological order. Dtype is preserved end to end, so the
same graph code runs in float32 for training and float64 for the
finite-difference gradient checker.

`backward()` consumes the graph: as it walks, each interior node is
released (its gradient, closure and parent links dropped) once its closure
has run, so activations are freed during the walk and only leaves keep a
`grad`. A graph can therefore be differentiated once; a second `backward()`
that reaches a released node raises `ValueError`.

Gradients are handed over, not copied, where that is safe: the walk counts
each interior node's consumers (one per parent slot, so `x + x` counts 2),
and the first gradient to reach a node becomes its `grad` as is when the
node has exactly one consumer and the gradient has the node's dtype, shape
and strides. Otherwise it is copied, and later arrivals are added into the
copy. Every rule goes through `_accum`, so a leaf's gradient
is its `grad_into` where it has one (the training module gives each parameter
its view of one flat gradient array), else an owned copy; `conv3`, `channels_linear`
and `expand` write a weight's first gradient straight into that array
(`_grad_out`), and `_accum` takes it without a copy. A handed-over gradient
may be shared with another node or read-only, so no backward rule writes
into the gradient it receives. Matching strides keep the gradient's memory layout
that of the copy, so numpy and BLAS reduce in the same order and the bits
do not change.

Each layout change is one node (`permute`), and so is each linear map
(`tokens_linear`, `channels_linear`) and each network primitive (`conv3`,
`expand`, `normalize_axes`, `window_attention`, the training module's dice +
CE loss). A linear map whose output is only added to a residual is one node
with it (`channels_linear`'s `residual`), so the tape keeps neither its
full-size output nor patch expanding's pre-shuffle output, which no backward
rule reads. A Swin MLP's GELU and second projection are one node
(`gelu_linear`, with the residual sum), which keeps fc1's output and GELU's
cdf, not GELU's output: its backward rebuilds that with the forward's last
multiply, and so its bits. A Swin layer's window round trip is two nodes:
`norm_windows` (layer norm, then `windowing.Windows.split`: pad, cyclic
shift, partition into windows) and `window_residual` (the wo projection,
then `Windows.join`: the windows put back, shifted back and cropped, and
the residual sum). They run the norm's and the projection's rules
(`_normalize`, `_tokens_linear`), the layout's in both directions
(`split`, `join`, whose copies are `_permuted`'s) and the crop's
(`_unslice`) in the order of the composed chain of a node per step, and
keep none of the norm output, padded or shifted grids or projection, which
no backward rule reads. Backward rules make the numpy
and `_accum` calls of the chains they stand for, in the same order, so
gradients keep every bit. A node whose
chain read an input twice (the norm's x, the loss's logits) lists it twice
among its parents, so hand-over or copy and the order of sums stay the chain's.
`conv3` keeps its input rather than its 27x larger im2col columns. Its
forward fills the columns one block of z planes at a time into one reused
buffer of about CONV_BLOCK_BYTES, with one GEMM per block into that block's
output columns; the cuts are chosen so that each output keeps the bits of
the whole-grid GEMM. Its backward builds the weight gradient's columns a
group of offsets at a time (`_offset_group`, the last group maybe shorter),
and the input gradient goes a block of z planes at a time. `expand`'s
forward runs its GEMM over blocks planned the same way (`_forward_blocks`)
into a reused buffer, whose depth to space goes straight into the output.
`normalize_axes` keeps only x's statistics and `leaky_relu` no mask: each
backward rebuilds what it needs from x, which the tape holds as their
parent, with the forward's operations.

Work runs on two workers at two levels; copies and norms are never cut.
The workers are the caller and one pool thread, made at the first split or
task (WORKERS is 1 on a one-core machine, and then the caller runs all).
The upper level is tasks (`tasks`): the topology module builds a stage's
streams, and a fusion block's targets, as two tasks, stream or target 0 on
the caller and the others on the pool thread, where stream 0 has at least
SPLIT_ELEMS elements (a paper tile at 64^3, not the test or V4 configs).
While the pool thread runs its task, kernels on either thread run their
pieces in turn; the caller's kernels split again once it has ended. A
training forward that takes tasks builds its tape on two threads; the
backward walk orders nodes by their parents, not by when they were made,
so it is unchanged. The pool thread allocates whole activations in its own malloc arena,
which raised a paper tile's peak RSS by about 12 MB. The lower level is
`_split`: a compute kernel a paper-sized tile runs large is cut in two
pieces fixed by shape alone:
- a GEMM by 64-aligned output columns, each piece of at least SPLIT_MACS
  multiply-adds (`_gemm_cut`, `_cut_keeps_bits`): `conv3`'s and `expand`'s
  forward blocks and the GEMMs of `channels_linear` and `gelu_linear`. No
  GEMM is cut by rows: `conv3`'s forward of one block, as on a deep
  stream's 4^3 or 2^3 grid under a wide weight, runs whole;
- from SPLIT_ELEMS elements, by leading-axis halves: the windows of
  `tokens_linear`'s forward (a 2-D input, the embedding, runs whole) and of
  `window_attention` forward and backward (numpy runs one GEMM per window),
  and `gelu_linear`'s GELU forward and backward;
- `conv3`'s backward, from SPLIT_ELEMS column entries, as two independent
  branches, one a worker: the weight gradient and the input gradient.
The training module's AdamW step and `metrics.evaluate_case` split too.
Layout copies (`permute`, the window round trip, `expand`'s depth to
space), norms and `leaky_relu` run whole, forward and backward: they are
bound by memory bandwidth, which both cores share, and at a paper tile's
sizes a second worker made none of them faster. Each piece writes its own
slice of arrays the caller made and allocates nothing large
(`metrics.evaluate_case`'s pieces excepted; see `_split`). Each output
element is computed by the same operations in the same order as in one
piece (a GEMM output's reduction depends on the K blocking only, not on the
rows or columns beside it; Goto & van de Geijn 2008), so the bits do not
depend on the worker count or on which thread runs a piece or a task,
and runs stay deterministic. Below the
thresholds a kernel runs whole, sparing the hand-over to the pool thread:
an empty `_split` took 0.025 ms at the median and 0.033 ms at the 90th
percentile back to back, 0.07 and 0.11 ms after 2 ms idle (200 calls each
on a 2-vCPU host).

Each worker's GEMMs run on one BLAS thread: at import the engine sets the
OpenBLAS that numpy bundles to one thread, whatever OPENBLAS_NUM_THREADS
(or OMP_NUM_THREADS) says, because a second BLAS thread changes some
GEMMs' bits (the V4 64^3 backward's among them) and, beside the two
workers, oversubscribes two cores. Where numpy bundles no OpenBLAS, the
BLAS keeps its own setting.

Only the operations the network needs are provided, and `mul`, `sum_` and
`reshape`, from which the benchmark's tape-size test builds its graph; each
backward rule the network uses is covered by the finite-difference suite in
the training module.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
NORM_EPS = 1e-5  # variance floor of normalize_axes
LRELU_SLOPE = 0.01  # negative-side slope of leaky_relu


class Tensor:
    """An ndarray plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "grad_into", "_parents", "_backward", "_consumers")
    # `grad_into`, if set, is the array the first gradient to reach this leaf
    # is copied or written into; `_parents` is None once backward() has
    # released the node; `_consumers` is the number of parent slots that name
    # this interior node on the walk.

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self.grad_into = None
        self._parents = ()
        self._backward = None
        self._consumers = 0

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from this scalar, releasing the tape as it goes."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is None:
                raise ValueError("backward() reached a graph that an earlier backward() released")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    if p._backward is not None:
                        p._consumers += 1
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = node._backward = node._parents = None


def _coerce(x, ref: Tensor | None = None) -> Tensor:
    """Wrap a constant; scalars adopt the float dtype of `ref` so python
    floats never promote a float32 graph to float64."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x)
    if (
        ref is not None
        and ref.data.dtype.kind == "f"
        and arr.dtype != ref.data.dtype
        and arr.dtype.kind in "fiu"
    ):
        arr = arr.astype(ref.data.dtype)
    return Tensor(arr)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`: hand it over to a sole consumer, take it as is
    where it is `t.grad_into`, else copy first, into `t.grad_into` where set."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif g is t.grad_into or (t._consumers == 1 and g.dtype == t.data.dtype and g.shape == t.data.shape
          and g.strides == t.data.strides):
        t.grad = g
    else:
        t.grad = np.empty_like(t.data) if t.grad_into is None else t.grad_into
        np.copyto(t.grad, g)


def _grad_out(t: Tensor, dtype) -> np.ndarray:
    """An array of t's shape and this dtype for a backward rule to write t's
    whole gradient into: on a leaf's first arrival its `grad_into` where that
    has this dtype, which `_accum` then takes as t's grad without a copy;
    else a new one."""
    into = t.grad_into
    if t.grad is None and into is not None and into.dtype == dtype:
        return into
    return np.empty(t.data.shape, dtype)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data * b.data

    def bwd(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)
    src = a.data.shape

    def bwd(g):
        _accum(a, g.reshape(src))

    return _node(data, (a,), bwd)


def _permuted(x: np.ndarray, split, axes, merge) -> np.ndarray:
    """x.reshape(split).transpose(axes).reshape(merge), split or merge None
    for no reshape: a view where numpy makes one, else a copy."""
    x = (x if split is None else x.reshape(split)).transpose(axes)
    return x if merge is None else x.reshape(merge)


def permute(a: Tensor, axes, split=None, merge=None) -> Tensor:
    """One node for a.reshape(split).transpose(axes).reshape(merge); split
    and merge default to no reshape. A merge that copies runs whole on the
    caller: a copy is bound by memory bandwidth, which a second worker on
    the same bus does not add to. Backward runs the inverse chain."""
    src = a.data.shape
    moved = tuple((src if split is None else split)[i] for i in axes)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accum(a, g.reshape(moved).transpose(inv).reshape(src))

    return _node(_permuted(a.data, split, axes, merge), (a,), bwd)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Tensors stacked along axis 0; backward hands each part its rows of the gradient."""
    data = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accum(p, g[lo:hi])

    return _node(data, tuple(parts), bwd)


def _unslice(g: np.ndarray, shape, dtype, key) -> np.ndarray:
    """A crop's backward rule: g added into zeros of the cropped array's
    shape and dtype at key, so a -0.0 lands as +0.0."""
    full = np.zeros(shape, dtype)
    full[key] += g
    return full


def _openblas(fn: str, restype, *argtypes):
    """The OpenBLAS function `fn` ("get_num_threads", say) of the library
    numpy bundles (numpy.libs), under any name its builds export it by, typed
    as given; None where numpy bundles no OpenBLAS or the library exports no
    such function (another BLAS)."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))  # numpy has loaded it: this opens the same copy
        for name in (f"scipy_openblas_{fn}64_", f"scipy_openblas_{fn}", f"openblas_{fn}64_", f"openblas_{fn}"):
            call = getattr(dll, name, None)
            if call is not None:
                call.restype, call.argtypes = restype, argtypes
                return call
    return None


def blas_threads() -> int | None:
    """The BLAS thread count in effect: 1 wherever the pin below took, None
    where numpy bundles no OpenBLAS."""
    get = _openblas("get_num_threads", ctypes.c_int)
    return None if get is None else get()


def openblas_core() -> str | None:
    """The CPU kernel set the OpenBLAS numpy bundles runs on (it picks one at
    load time), or None where no bundled OpenBLAS says."""
    corename = _openblas("get_corename", ctypes.c_char_p)
    return None if corename is None else corename().decode()


_set_threads = _openblas("set_num_threads", None, ctypes.c_int)
if _set_threads is not None:
    _set_threads(1)  # one BLAS thread per worker; see the module docstring

WORKERS = min(2, os.cpu_count() or 1)  # the caller and, with two, one pool thread
SPLIT_MACS = 1 << 25  # multiply-adds each piece of a split GEMM has at least
SPLIT_ELEMS = 1 << 18  # elements from which an elementwise pass splits
CONV_BLOCK_BYTES = 8 << 20  # column bytes conv3's forward builds at a time
SMALL_GEMM_MACS = 100**3  # OpenBLAS sums a GEMM of at most this many MACs another way

_pool: ThreadPoolExecutor | None = None  # the second worker, made by the first split or task
_tasking = threading.Event()  # set while the pool thread runs a task of `tasks`


def _worker() -> ThreadPoolExecutor:
    """The pool thread, made on first use."""
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=1)
    return _pool


def _join(later, mine) -> None:
    """Run mine() on the caller while the pool runs `later`'s call; return
    once both have ended, raising the pool's exception only after mine()
    has finished."""
    try:
        mine()
    finally:
        later.exception()  # waits, whether or not mine() raised
    later.result()


def _split(piece, n: int, cut: int) -> None:
    """Run piece(0, cut) on the caller and piece(cut, n) on the pool thread,
    or piece(0, n) alone when cut is 0; with WORKERS 1, or while the pool
    thread runs a task (`tasks`), the thread that calls runs both pieces in
    turn, with the same cut. A piece never splits again. A kernel's piece is
    numpy calls that write disjoint slices of arrays the caller made, and
    allocates nothing large: what the pool thread allocates stays in its
    own malloc arena, which raised the paper forward's peak RSS by 15 MB.
    `metrics.evaluate_case`'s pieces are whole evaluation calls, whose
    masks, surface points and k-d trees the pool thread allocates in its
    own malloc arena. The caller returns only once both pieces have ended,
    and raises the worker's exception after its own piece has finished."""
    if not cut:
        piece(0, n)
    elif WORKERS < 2 or _tasking.is_set():
        piece(0, cut)
        piece(cut, n)
    else:
        _join(_worker().submit(piece, cut, n), lambda: piece(0, cut))


def _as_tasks(n: int, elems: int) -> bool:
    """Whether n units, the first of whose inputs has elems elements, are
    large enough to run as two tasks (`tasks`): shapes alone decide."""
    return n > 1 and elems >= SPLIT_ELEMS


def tasks(units, elems: int) -> None:
    """Run units[0]() on the caller and units[1:]() in order on the pool
    thread, as two tasks that build disjoint parts of a graph (a stage's
    streams, say), where the first unit's input has elems elements and that
    is at least SPLIT_ELEMS (`_as_tasks`); return once both have ended,
    raising the pool's exception only after the caller's task has finished.
    Which level splits: while the pool's task runs, every `_split`, on
    either thread, runs its pieces in turn (on the pool thread a submit
    would wait on itself); once it has ended, the caller's kernels split as
    they do outside tasks. The pieces' cuts depend on shapes alone, so each
    is the same GEMM whichever thread runs it, and the bits are those of
    the units in order on one thread. That order is taken below the size,
    with WORKERS 1, inside a task, and while `lrelu_sign_trace` is set, so
    the trace lists the kinks in a fixed order."""
    if (not _as_tasks(len(units), elems) or WORKERS < 2 or _tasking.is_set()
            or lrelu_sign_trace is not None):
        for unit in units:
            unit()
        return

    def rest():
        try:
            for unit in units[1:]:
                unit()
        finally:
            _tasking.clear()

    _tasking.set()  # before the submit: rest() may start at once
    _join(_worker().submit(rest), units[0])


def _cut_keeps_bits(per: int, total: int, *widths: int) -> bool:
    """Whether a GEMM of `total` output columns of `per` multiply-adds each
    keeps every output's bits when run in column pieces of these widths, in
    order: each piece starts at a multiple of 64 columns (every width but the
    last is a multiple of 64) and has more than SMALL_GEMM_MACS multiply-adds.
    A GEMM of at most SMALL_GEMM_MACS, which OpenBLAS sums another way, keeps
    them only in pieces whose widths, the last included, are all multiples of
    64. In probes (random NT GEMMs, bytes compared, float32 and float64, one
    and two BLAS threads) every plan this rule passes gave the whole GEMM's
    bytes, and allowing a short last piece of a small GEMM moved bits.

    That holds on OpenBLAS's SkylakeX kernels. On its Haswell kernels most
    float32 plans gave other bytes than the whole GEMM, with or without a
    short last piece, so a plan change moves bits there. What holds on every
    kernel set is that a cut's result does not depend on the worker count:
    each piece is the same GEMM whichever thread runs it."""
    if total * per <= SMALL_GEMM_MACS:
        return all(w % 64 == 0 for w in widths)
    return all(w % 64 == 0 for w in widths[:-1]) and all(w * per > SMALL_GEMM_MACS for w in widths)


def _gemm_cut(n: int, per: int) -> int:
    """Where to halve a GEMM's n output columns of `per` multiply-adds each:
    the multiple of 64 nearest n/2, when both pieces have at least SPLIT_MACS
    multiply-adds and keep the whole GEMM's bits; else 0."""
    cut = (n + 64) // 128 * 64
    pays = 0 < cut < n and min(cut, n - cut) * per >= SPLIT_MACS
    return cut if pays and _cut_keeps_bits(per, n, cut, n - cut) else 0


def _lead_cut(n: int, elems: int) -> int:
    """Where to halve an elementwise pass of `elems` elements over a leading
    axis of length n: the middle, from SPLIT_ELEMS elements; else 0."""
    return (n + 1) // 2 if elems >= SPLIT_ELEMS and n > 1 else 0


@functools.lru_cache(maxsize=None)
def _im2col_regions(dims, planes) -> tuple[tuple[int, int, tuple], ...]:
    """The grid's blocks of `planes` output z planes (the last may be
    shorter), each as (z0, z1, regions): per 3x3x3 offset, in lexicographic
    (dz, dy, dx) order, the part of the block's slab whose neighbour lies
    inside the grid, and that neighbour's part of the input. Cached per grid
    dims and block size."""
    def axis(o, n, lo, hi):  # output i in lo:hi is slab index i - lo and reads input i + o
        a, b = max(lo, -o), min(hi, n - o)
        return slice(a - lo, b - lo), slice(a + o, b + o)

    def block(z0, z1):
        return z0, z1, tuple(
            tuple(zip(axis(oz, d, z0, z1), axis(oy, h, 0, h), axis(ox, w, 0, w)))
            for oz, oy, ox in itertools.product((-1, 0, 1), repeat=3))

    d, h, w = dims
    return tuple(block(z0, min(z0 + planes, d)) for z0 in range(0, d, planes))


def _block_planes(k: int, dims, per: int, itemsize: int, buffers: int = 1,
                  most: int | None = None) -> int:
    """z planes per block of a GEMM over the grid's columns, `per`
    multiply-adds each, whose block buffer of k rows (conv3's 27*C_in column
    rows, expand's 8*C_out output rows) has CONV_BLOCK_BYTES / buffers (a
    forward's two pieces a half each, conv3's input gradient a quarter): as
    many as fit, and at most `most` where given, at least one, rounded down
    to a multiple of 64 columns. The block is the whole grid instead when no
    such block exists, or when these blocks and the last one would not keep
    the whole-grid GEMM's bits (`_cut_keeps_bits`)."""
    d, h, w = dims
    fit = max(1, CONV_BLOCK_BYTES // buffers // (k * h * w * itemsize))
    if most:
        fit = min(fit, most)
    step = 64 // math.gcd(h * w, 64)
    planes = fit - fit % step
    if not 0 < planes < d:
        return d
    last = d - (d - 1) // planes * planes
    return planes if _cut_keeps_bits(per, d * h * w, planes * h * w, last * h * w) else d


def _forward_blocks(k: int, dims, per: int, itemsize: int) -> tuple[int, int]:
    """(planes, step) for a blocked forward GEMM (`_block_planes`): blocks
    of at most ceil(d/2) planes, planned for two buffers that share the
    budget and dealt alternately, the caller taking blocks 0, 2, 4, ... and
    the pool thread 1, 3, 5, ... (step 2), when the pool's blocks have at
    least SPLIT_MACS multiply-adds; else blocks for one buffer, all on the
    caller (step 1). So a grid that one buffer holds whole runs as two
    column blocks, one a worker, wherever they pay and keep the whole GEMM's
    bits."""
    d, h, w = dims
    planes = _block_planes(k, dims, per, itemsize, 2, (d + 1) // 2)
    pool = sum(min(planes, d - z0) for z0 in range(planes, d, 2 * planes))
    if planes == d or pool * h * w * per < SPLIT_MACS:
        return _block_planes(k, dims, per, itemsize), 1
    return planes, 2


@functools.lru_cache(maxsize=None)
def _offset_group(c: int, per: int) -> int:
    """Offsets per group of conv3's weight gradient, whose 27*c output columns
    take `per` multiply-adds each: the smallest k below 27 whose column
    pieces, 27 // k groups of k offsets and a last group of the 27 % k left,
    keep the whole GEMM's bits (`_cut_keeps_bits`), else all 27. Cached per
    channel count and per."""
    def widths(k):
        return [k * c] * (27 // k) + [27 % k * c] * (27 % k > 0)

    return next((k for k in range(1, 27) if _cut_keeps_bits(per, 27 * c, *widths(k))), 27)


def _im2col(x: np.ndarray, regions, cols: np.ndarray) -> np.ndarray:
    """[C, d, h, w] -> [27*C, n, h, w] in `cols`: the 3x3x3 neighbourhoods of
    the n output planes `regions` describe, in the grid zero-padded by 1,
    offsets in lexicographic (dz, dy, dx) order, C fastest. No padded copy is
    made: each slab's in-range region is written straight into `cols`, whose
    other entries, zeroed by the caller, are not written."""
    c = x.shape[0]
    for k, (dst, src) in enumerate(regions):
        cols[(slice(k * c, k * c + c),) + dst] = x[(slice(None),) + src]
    return cols


def conv3(x: Tensor, weight: Tensor) -> Tensor:
    """3x3x3 convolution (padding 1) of [C_in, d, h, w] by weight
    [C_out, 27*C_in], columns in `_im2col` order, as one node. Forward fills
    the columns one block of z planes at a time (`_block_planes`) into a
    reused buffer and runs one GEMM per block into that block's columns of
    the output. The columns are not kept for backward, which runs two
    independent branches. The weight gradient rebuilds the columns a group of
    offsets at a time, g = `_offset_group` of them (from 1 to all 27; the last
    group takes the 27 % g offsets left, if any), into one reused zeroed
    buffer of g*C_in rows, and runs one GEMM per group into that group's
    columns of gW, on a leaf's first arrival straight into its `grad_into`
    (`_grad_out`). Each group is an output-column cut of the whole GEMM that
    keeps its bits. The input gradient runs W.T @ g a block of z planes at a
    time into one reused buffer of about CONV_BLOCK_BYTES / 4 and adds each
    block back into an unpadded input gradient (col2im),
    highest block first: each input element takes its dz=-1 terms
    from the plane above first, so it receives its 27 terms in offset order,
    as from whole columns. Each block is an output-column cut of the whole
    GEMM that `_block_planes` keeps to `_cut_keeps_bits`.

    Large convolutions run on two workers (`_split`), every output keeping
    the bits of the one-worker run. Forward deals the blocks, planned for two
    buffers that share the budget, alternately (`_forward_blocks`): the
    caller runs blocks 0, 2, 4, ..., block 0 first, and the pool thread
    blocks 1, 3, 5, ..., each in a zeroed buffer of its own that the caller
    makes; every block is the same GEMM whichever thread runs it. A
    forward of one block, as on the deep streams' 4^3 and 2^3 grids, whose
    few columns no block cut divides, runs whole: no kernel cuts a GEMM's
    rows. Backward, from SPLIT_ELEMS column
    entries, runs the weight gradient on the caller and the input gradient on
    the pool thread, into buffers the caller makes."""
    c, d, h, w = x.shape
    xd, wd = x.data, weight.data
    rows, hw = wd.shape[0], h * w
    per = rows * 27 * c  # multiply-adds per output column
    planes, step = _forward_blocks(27 * c, (d, h, w), per, xd.itemsize)
    blocks = _im2col_regions((d, h, w), planes)
    y = np.empty((rows, d * hw), np.result_type(wd, xd))
    bufs = np.zeros((step, 27 * c, planes, h, w), xd.dtype)  # one per piece

    def fill(lo, hi):  # every step-th block from block lo, in piece lo's zeroed buffer
        cols = bufs[lo]
        for z0, z1, regions in blocks[lo::step]:
            block = cols[:, :z1 - z0]
            if z0 and z1 == d:  # dz=+1 reads outside the grid here; an earlier block wrote it
                block[18 * c:, -1] = 0
            np.matmul(wd, _im2col(xd, regions, block).reshape(27 * c, -1), out=y[:, z0 * hw:z1 * hw])

    _split(fill, step, step - 1)
    ((_, _, regions),) = _im2col_regions((d, h, w), d)
    group = _offset_group(c, rows * d * hw)
    pair = _lead_cut(2, 27 * xd.size)  # 1: a branch a worker

    def bwd(g):
        g2 = g.reshape(y.shape)
        cols = np.zeros((group * c, d, h, w), xd.dtype)
        gw = _grad_out(weight, np.result_type(g2, cols))
        gtype = np.result_type(wd, g2)
        gblocks = _im2col_regions((d, h, w), _block_planes(27 * c, (d, h, w), per, gtype.itemsize, 4))
        gbuf = np.empty((27 * c, gblocks[0][1] * hw), gtype)
        gx = np.zeros((c, d, h, w), g.dtype)

        def weight_grad():  # gw = g2 @ cols.T, a group of offsets' columns at a time
            for k in range(0, 27, group):
                gk = min(group, 27 - k)  # the last group may be shorter
                if k:  # zero what the last group wrote outside this group's regions
                    for j, (dst, _) in enumerate(regions[k:k + gk]):
                        for i, s in enumerate(dst, 1):  # the planes of axis i outside s
                            planes = cols[j * c:j * c + c].swapaxes(0, i)
                            planes[:s.start] = 0
                            planes[s.stop:] = 0
                np.matmul(g2, _im2col(xd, regions[k:k + gk], cols[:gk * c]).reshape(gk * c, -1).T,
                          out=gw[:, k * c:(k + gk) * c])

        def input_grad():  # W.T @ g2 a block at a time, highest first; col2im in offset order
            for z0, z1, block_regions in reversed(gblocks):
                gcols = gbuf[:, :(z1 - z0) * hw]
                np.matmul(wd.T, g2[:, z0 * hw:z1 * hw], out=gcols)
                gcols = gcols.reshape(27 * c, z1 - z0, h, w)
                for k, (dst, src) in enumerate(block_regions):
                    gx[(slice(None),) + src] += gcols[(slice(k * c, k * c + c),) + dst]

        branches = (weight_grad, input_grad)
        _split(lambda lo, hi: [run() for run in branches[lo:hi]], 2, pair)
        del cols
        _accum(weight, gw)
        _accum(x, gx)

    return _node(y.reshape((rows, d, h, w)), (x, weight), bwd)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    axes = axis

    def bwd(g):
        if axes is not None and not keepdims:
            ax = axes if isinstance(axes, tuple) else (axes,)
            g = np.expand_dims(g, ax)
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False))

    return _node(data, (a,), bwd)


def _gelu(x: np.ndarray):
    """Exact (erf-based) GELU of x: its output, the cdf its rule reads and
    its backward rule, which takes the output's gradient (laid out as the
    output, C order) to x's. From SPLIT_ELEMS elements forward and backward
    run by leading-axis halves on two workers (`_split`), each half writing
    its slice through `out=`: the same elementwise operations in the same
    order, so every bit is the one-worker run's."""
    n = x.shape[0]
    cut = _lead_cut(n, x.size)
    cdf, data = np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype)

    def fwd(lo, hi):  # cdf = 0.5 * (1 + erf(x / sqrt2)), data = x * cdf
        xs, cs = x[lo:hi], cdf[lo:hi]
        np.multiply(xs, _INV_SQRT2, out=cs)
        erf(cs, out=cs)
        np.add(cs, 1.0, out=cs)
        np.multiply(cs, 0.5, out=cs)
        np.multiply(xs, cs, out=data[lo:hi])

    _split(fwd, n, cut)

    def bwd(g):
        gx = np.empty(x.shape, x.dtype)

        def back(lo, hi):  # g * (cdf + x * exp(-x*x/2) / sqrt(2 pi))
            xs, o = x[lo:hi], gx[lo:hi]
            np.multiply(xs, -0.5, out=o)
            np.multiply(o, xs, out=o)
            np.exp(o, out=o)
            np.multiply(o, _INV_SQRT2PI, out=o)
            np.multiply(xs, o, out=o)
            np.add(cdf[lo:hi], o, out=o)
            np.multiply(g[lo:hi], o, out=o)

        _split(back, n, cut)
        return gx

    return data, cdf, bwd


# When set to a list, every leaky_relu call appends its input sign pattern.
# The finite-difference checker uses this to detect probe brackets that
# cross the kink (where a central difference stops being a gradient oracle).
lrelu_sign_trace: list | None = None


def leaky_relu(a: Tensor) -> Tensor:
    """max(x, LRELU_SLOPE * x), which picks the value np.where(x > 0, x,
    LRELU_SLOPE * x) does (also for signed zeros, infinities and NaNs) at a
    tenth of its time. The node keeps no mask:
    backward multiplies the gradient by (x > 0) * (1 - s) + s, s the slope in
    x's dtype, reading x from the parent the tape holds anyway. (1 - s) + s
    rounds to exactly 1, so this makes the bits of np.where(x > 0, g, s * g)
    without a select per element, at about a tenth of its time."""
    x = a.data
    data = np.empty_like(x)
    np.maximum(x, np.multiply(x, LRELU_SLOPE, out=data), out=data)
    if lrelu_sign_trace is not None:
        lrelu_sign_trace.append(np.packbits((x > 0).reshape(-1)))

    def bwd(g):
        s = x.dtype.type(LRELU_SLOPE)
        _accum(a, g * ((x > 0) * (1 - s) + s))

    return _node(data, (a,), bwd)


def tokens_linear(t: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """[..., C_in] @ weight[C_out, C_in]^T + bias, as one node. A large
    forward of windows [nW, T, C_in], each of which numpy multiplies as a
    GEMM of its own, runs by halves of the windows on two workers (`_split`)
    from SPLIT_ELEMS outputs. A 2-D input (the patch embedding's tokens)
    runs whole."""
    data, bwd = _tokens_linear(t, weight, bias)
    return _node(data, (t, weight, bias), bwd)


def _tokens_linear(t: Tensor, weight: Tensor, bias: Tensor):
    """tokens_linear's output and backward rule, which reads t, not the output."""
    w, x = weight.data, t.data
    data = np.empty(x.shape[:-1] + w.shape[:1], np.result_type(x, w))
    n = x.shape[0]

    def fwd(lo, hi):
        part = np.matmul(x[lo:hi], w.T, out=data[lo:hi])
        part += bias.data

    _split(fwd, n, _lead_cut(n, data.size) if x.ndim > 2 else 0)

    def bwd(g):
        _accum(t, g @ w)
        _accum(weight, _unbroadcast(np.swapaxes(t.data, -1, -2) @ g, w.T.shape).T)
        _accum(bias, _unbroadcast(g, bias.data.shape))

    return data, bwd


def channels_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                    residual: Tensor | None = None) -> Tensor:
    """Pointwise linear map over the leading channel axis of [C_in, *spatial],
    as one node: a GEMM on the [C_in, n] view (a copy if x is not contiguous).
    With a residual of the output's shape the node is residual + (W x + b),
    the sum of `add(residual, channels_linear(x, weight, bias))`, and the
    map's own output is never kept. Its backward hands the residual the
    incoming gradient, as the add's did, then runs the map's rules on that
    same gradient, which the add handed the map's node as is: `_accum` gives
    each node its gradient in its output's layout, and the two share one.

    A large forward GEMM, bias and residual added per piece, and a large
    input-gradient GEMM run by 64-aligned output-column halves on two workers
    (`_gemm_cut`, `_split`); each output column's reduction is the whole
    GEMM's, so every bit is the one-worker run's. A GEMM whose columns cannot
    be cut (a few columns under a wide weight) runs whole."""
    x2 = x.data.reshape(x.shape[0], -1)
    data = _channels_linear(x2, weight, bias, residual).reshape(weight.shape[:1] + x.shape[1:])

    def bwd(g):
        _accum(x, _linear_backward(g, x2, weight, bias, residual).reshape(x.shape))

    return _node(data, [x, weight] + [t for t in (bias, residual) if t is not None], bwd)


def gelu_linear(u: Tensor, weight: Tensor, bias: Tensor | None = None,
                residual: Tensor | None = None) -> Tensor:
    """residual + W GELU(u) + b over the leading channel axis of [C_in,
    *spatial], as one node: GELU (`_gelu`, by leading-axis halves) into a
    buffer a, then `channels_linear`'s GEMM, bias and residual pieces over
    a, which is then dropped. The node keeps u, its parent, and GELU's cdf,
    not a = GELU(u): a is u * cdf, the forward's last multiply, so backward
    rebuilds it with the same bits. Backward runs the composed chain's rules
    in its order: the residual's, the map's on the rebuilt a (weight, input,
    bias), then GELU's on the input gradient laid out as `_accum` would have
    handed it to GELU's node."""
    x = u.data
    a, cdf, gelu_bwd = _gelu(x)
    data = _channels_linear(a.reshape(x.shape[0], -1), weight, bias, residual)

    def bwd(g):
        a2 = np.multiply(x, cdf, out=np.empty_like(cdf)).reshape(x.shape[0], -1)
        ga = _linear_backward(g, a2, weight, bias, residual).reshape(x.shape)
        del a2  # freed before GELU's rule makes its gradient
        _accum(u, gelu_bwd(_laid_out(ga, np.empty_like(cdf))))

    return _node(data.reshape(weight.shape[:1] + x.shape[1:]),
                 [u, weight] + [t for t in (bias, residual) if t is not None], bwd)


def _channels_linear(x2: np.ndarray, weight: Tensor, bias: Tensor | None,
                     residual: Tensor | None) -> np.ndarray:
    """The [C_out, n] forward of `channels_linear` over the [C_in, n] view
    x2: W x2, then the bias and the residual added, by `_gemm_cut` column
    halves on two workers, or whole."""
    w, n = weight.data, x2.shape[1]
    y = np.empty((w.shape[0], n), np.result_type(w, x2))
    r2 = None if residual is None else residual.data.reshape(y.shape)

    def fwd(lo, hi):  # output columns lo:hi
        part = np.matmul(w, x2[:, lo:hi], out=y[:, lo:hi])
        if bias is not None:
            part += bias.data[:, None]
        if r2 is not None:
            part += r2[:, lo:hi]

    _split(fwd, n, _gemm_cut(n, w.size))
    return y


def _linear_backward(g: np.ndarray, x2: np.ndarray, weight: Tensor, bias: Tensor | None = None,
                     residual: Tensor | None = None) -> np.ndarray:
    """The backward rules of residual + (W x + b) for its gradient g, x2 the
    [C_in, n] view of x: the residual's, g as is; the weight's, on a leaf's
    first arrival straight into its `grad_into` (`_grad_out`); the input's,
    by `_gemm_cut` halves on two workers, returned as [C_in, n] for the
    caller to hand on; then the bias's."""
    if residual is not None:
        _accum(residual, g)
    w, n = weight.data, x2.shape[1]
    g2 = g.reshape(w.shape[0], n)
    _accum(weight, np.matmul(g2, x2.T, out=_grad_out(weight, np.result_type(g2, x2))))
    gx = np.empty(x2.shape, np.result_type(w, g2))
    _split(lambda lo, hi: np.matmul(w.T, g2[:, lo:hi], out=gx[:, lo:hi]), n, _gemm_cut(n, w.size))
    if bias is not None:
        _accum(bias, g2.sum(axis=1))
    return gx


def expand(x: Tensor, weight: Tensor) -> Tensor:
    """Patch expanding of [C_in, d, h, w] by weight [8*C, C_in] as one node:
    y = W x, then depth to space into [C, 2d, 2h, 2w], output block (a, b, e)
    taking y's channel slab 4a + 2b + e. The node keeps x and its output, not
    y: forward runs the GEMM a block of input z planes at a time
    (`_forward_blocks`, the planner of conv3's forward, each block an
    output-column cut that keeps the whole GEMM's bits) into a reused buffer,
    and writes each block's depth to space straight into the output. Blocks
    are dealt to two workers as conv3's are, each piece in a buffer of its
    own that the caller makes; a grid one buffer holds whole is two blocks
    dealt so wherever they pay and keep the bits, else one block on the
    caller. Backward copies the gradient back to y's layout, as `permute`'s
    backward did, then runs `channels_linear`'s rules, so every bit is the
    composed graph's."""
    c, d, h, w = x.shape
    wd, x2 = weight.data, x.data.reshape(c, -1)
    rows, hw, c2 = wd.shape[0], h * w, wd.shape[0] // 8
    to_space = (3, 4, 0, 5, 1, 6, 2)  # [2, 2, 2, C, d, h, w] -> [C, d, 2, h, 2, w, 2]
    out = np.empty((c2, 2 * d, 2 * h, 2 * w), np.result_type(wd, x2))
    planes, step = _forward_blocks(rows, (d, h, w), rows * c, out.itemsize)
    spans = [(z0, min(z0 + planes, d)) for z0 in range(0, d, planes)]
    bufs = np.empty((step, rows, planes * hw), out.dtype)  # one per piece

    def fill(lo, hi):  # every step-th block from block lo in piece lo's buffer: GEMM, depth to space
        buf = bufs[lo]
        for z0, z1 in spans[lo::step]:
            part = np.matmul(wd, x2[:, z0 * hw:z1 * hw], out=buf[:, :(z1 - z0) * hw])
            np.copyto(out[:, 2 * z0:2 * z1].reshape(c2, z1 - z0, 2, h, 2, w, 2),
                      part.reshape(2, 2, 2, c2, z1 - z0, h, w).transpose(to_space))

    _split(fill, step, step - 1)
    moved, inv = (c2, d, 2, h, 2, w, 2), tuple(np.argsort(to_space))

    def bwd(g):
        _accum(x, _linear_backward(g.reshape(moved).transpose(inv).reshape(rows, d * hw), x2,
                                   weight).reshape(x.shape))

    return _node(out, (x, weight), bwd)


def normalize_axes(x: Tensor, gamma: Tensor, beta: Tensor, axes) -> Tensor:
    """Mean-0/var-1 over `axes` (0: layer norm, spatial: instance norm), then
    a per-channel affine: gamma and beta are [C] for the leading axis of x.
    It runs whole on the caller, as copies do: a pass bound by memory
    bandwidth.

    The node keeps x's statistics (mean, ve = var + eps, inv = ve^-0.5), not
    xc = x - mean or xn = xc * inv: forward writes xn straight into the
    output before the affine. Backward rebuilds xc with the forward's
    subtraction and xn = xc * inv, each laid out as x, so every product it
    reduces has the layout, and every sum the bits, of the chain's."""
    data, bwd = _normalize(x, gamma, beta, axes)
    return _node(data, (x, x, gamma, beta), bwd)


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes):
    """normalize_axes's output and backward rule, which reads x and its
    statistics, not the output."""
    xd, reduced = x.data, axes if isinstance(axes, tuple) else (axes,)
    shape = (x.shape[0],) + (1,) * (x.ndim - 1)
    scale = x.dtype.type(1.0 / math.prod(x.shape[i] for i in reduced))
    gr, br = gamma.data.reshape(shape), beta.data.reshape(shape)
    # xc = x - mean, ve = mean(xc^2) + eps, xn = xc * ve^-0.5 written into the output
    mean = xd.sum(axis=axes, keepdims=True) * scale
    xc = np.subtract(xd, mean, out=np.empty_like(xd))
    # xc^2 in a temporary laid out as xc, as the chain's was: squaring in xc's
    # place raised the V4 64^3 fwd+bwd peak RSS from 251 to 260 MB
    ve = (xc * xc).sum(axis=axes, keepdims=True) * scale + x.dtype.type(NORM_EPS)
    inv = np.power(ve, -0.5)
    data = np.multiply(xc, inv, out=np.empty_like(xd, np.result_type(xd, gr, br)))
    del xc
    data *= gr
    data += br

    def bwd(g):
        xc = np.subtract(xd, mean, out=np.empty_like(xd))
        gxn = g * gr
        gxc = np.empty_like(xc)
        np.multiply(gxn, inv, out=gxc)
        prod = gxn * xc  # the chain's layout for gxn * xc, g * xn and gsq * xc
        gsq = _unbroadcast(prod, inv.shape) * (-0.5 * ve**-1.5) * scale
        np.multiply(gsq, xc, out=prod)
        gxc += prod
        gxc += prod
        _accum(x, gxc)
        _accum(x, np.broadcast_to(-_unbroadcast(gxc, inv.shape) * scale, x.shape))
        np.multiply(g, np.multiply(xc, inv, out=xc), out=prod)  # g * xn, xn in xc's place
        _accum(gamma, _unbroadcast(prod, shape).reshape(gamma.shape))
        _accum(beta, _unbroadcast(g, shape).reshape(beta.shape))

    return data, bwd


def window_attention(q: Tensor, kt: Tensor, v: Tensor, table: Tensor, index: np.ndarray,
                     mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """softmax(q kt / sqrt(dh) + table[index] + mask) v, heads merged: q, v
    [nW, heads, T, dh], kt [nW, heads, dh, T], table [(2w-1)^3, heads], index
    [T, T], mask [nW, T, T] or None. Returns ([nW, T, heads*dh], the weights).
    From SPLIT_ELEMS logits forward and backward run by halves of the windows
    on two workers (`_split`), each window's GEMMs and softmax (and its
    gradient) as in one piece; backward's sum over the windows into the bias
    table runs whole on the caller."""
    nw, heads, t, dh = q.shape
    scale = q.dtype.type(1.0 / math.sqrt(dh))
    idx = index.reshape(-1)
    bias = table.data[idx].reshape(t, t, heads).transpose(2, 0, 1)
    masks = None if mask is None else mask[:, None].astype(q.dtype, copy=False)
    logits = np.empty((nw, heads, t, t), np.result_type(q.data, kt.data, bias))
    attn = np.empty_like(logits)
    out = np.empty((nw, heads, t, dh), np.result_type(attn, v.data))
    data = np.empty((nw, t, heads * dh), out.dtype)

    def fwd(lo, hi):  # attn = softmax(q kt * scale + bias + mask), data = attn v, heads merged
        lg = np.matmul(q.data[lo:hi], kt.data[lo:hi], out=logits[lo:hi])
        lg *= scale
        lg += bias
        if masks is not None:
            lg += masks[lo:hi]
        lg -= lg.max(axis=-1, keepdims=True)
        np.exp(lg, out=lg)
        np.divide(lg, lg.sum(axis=-1, keepdims=True), out=attn[lo:hi])
        np.matmul(attn[lo:hi], v.data[lo:hi], out=out[lo:hi])
        data[lo:hi].reshape(hi - lo, t, heads, dh)[...] = out[lo:hi].transpose(0, 2, 1, 3)

    cut = _lead_cut(nw, logits.size)
    _split(fwd, nw, cut)

    def bwd(g):
        g4 = g.reshape(nw, t, heads, dh)
        go = np.empty((nw, heads, t, dh), g.dtype)
        ga = np.empty(attn.shape, np.result_type(go, v.data))
        gv = np.empty(go.shape, np.result_type(attn, go))
        gl = np.empty(attn.shape, np.result_type(attn, ga))
        gq = np.empty(q.shape, np.result_type(gl, scale, kt.data))
        gkt = np.empty(kt.shape, np.result_type(q.data, gl, scale))

        def back(lo, hi):  # gl = attn * (ga - sum(ga * attn)), ga = go v^T; the GEMMs of gl * scale
            o, a, l, at = go[lo:hi], ga[lo:hi], gl[lo:hi], attn[lo:hi]
            np.copyto(o, g4[lo:hi].transpose(0, 2, 1, 3))
            np.matmul(o, np.swapaxes(v.data[lo:hi], -1, -2), out=a)
            np.matmul(np.swapaxes(at, -1, -2), o, out=gv[lo:hi])
            np.multiply(a, at, out=l)
            np.subtract(a, l.sum(axis=-1, keepdims=True), out=a)
            np.multiply(at, a, out=l)
            np.multiply(l, scale, out=a)  # gl * scale, in ga's place
            np.matmul(a, np.swapaxes(kt.data[lo:hi], -1, -2), out=gq[lo:hi])
            np.matmul(np.swapaxes(q.data[lo:hi], -1, -2), a, out=gkt[lo:hi])

        _split(back, nw, cut)
        _accum(v, gv)
        _accum(q, gq)
        _accum(kt, gkt)
        gb = _unbroadcast(gl, (1, heads, t, t)).reshape(heads, t, t).transpose(1, 2, 0)
        gtable = np.zeros_like(table.data)
        np.add.at(gtable, idx, gb.reshape(t * t, heads))
        _accum(table, gtable)

    return _node(data, (q, kt, v, table), bwd), attn


def _laid_out(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """g as `_accum` gives it to a node of one consumer whose output is laid
    out as `like`, an empty array of g's shape: g itself where dtype and
    strides match, else g copied into `like`."""
    if g.dtype == like.dtype and g.strides == like.strides:
        return g
    np.copyto(like, g)
    return like


def norm_windows(x: Tensor, gamma: Tensor, beta: Tensor, win) -> Tensor:
    """x's layer norm cut into the windows of `win` (a `windowing.Windows`)
    as one node: `normalize_axes(x, gamma, beta, 0)`, then `win.split`'s pad,
    roll and permute, the permute's copy as `permute` makes it.
    The node keeps the windows, which the q/k/v projections' weight
    gradients read, and the norm's statistics, not the norm's output or the
    padded or rolled grid, which no backward rule reads. Backward takes the
    gradient back through `win.join` (the permute's, roll's and pad's rules)
    to the norm's output, laid out as that output was (the embed's channels-last
    view, say) as `_accum` would have given it, then runs the norm's rule."""
    h, norm_bwd = _normalize(x, gamma, beta, 0)
    data, dtype = win.split(h), h.dtype

    def bwd(g):
        norm_bwd(_laid_out(win.join(g), np.empty_like(x.data, dtype)))

    return _node(data, (x, x, gamma, beta), bwd)


def window_residual(x: Tensor, t: Tensor, weight: Tensor, bias: Tensor, win) -> Tensor:
    """x + the windows t projected by `tokens_linear(t, weight, bias)` and put
    back on x's grid by `win.join` (`win`, a `windowing.Windows`: the
    permute, roll and crop), as one node that keeps its sum only. Backward
    hands x the incoming gradient, as an add would, then runs the crop's
    (`_unslice`), roll's and permute's rules (`win.split` of the uncropped
    gradient) and the projection's, in the chain's order, the projection's
    gradient laid out as its output was, in C order."""
    y, linear_bwd = _tokens_linear(t, weight, bias)
    data, dtype = x.data + win.join(y), y.dtype

    def bwd(g):
        _accum(x, g)
        if win.padded != win.dims:
            g = _unslice(g, (win.c,) + win.padded, dtype, win.crop)
        g = win.split(g)
        linear_bwd(_laid_out(g, np.empty(g.shape, dtype)))

    return _node(data, (x, t, weight, bias), bwd)
