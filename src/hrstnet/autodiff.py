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
copy; leaf gradients are always owned copies. A handed-over gradient may be
shared with another node or read-only, so no backward rule writes into the
gradient it receives. Matching strides keep the gradient's memory layout
that of the copy, so numpy and BLAS reduce in the same order and the bits
do not change.

Each layout change is one node (`permute`), and so is each linear map
(`tokens_linear`, `channels_linear`) and each network primitive (`conv3`,
`normalize_axes`, `window_attention`, the training module's dice + CE
loss). Their backward rules make the numpy and `_accum` calls of the chains
they stand for, in the same order, so gradients keep every bit. A node whose
chain read an input twice (the norm's x, the loss's logits) lists it twice
among its parents, so hand-over or copy and the order of sums stay the chain's.
`conv3` keeps its input rather than its 27x larger im2col columns. Its
forward fills the columns one block of z planes at a time into one reused
buffer of about CONV_BLOCK_BYTES, with one GEMM per block into that block's
output columns; the cuts are chosen so that each output keeps the bits of
the whole-grid GEMM. Its backward rebuilds the columns whole.

Only the operations the network needs are provided, and `mul`, `sum_` and
`reshape`, from which the benchmark's tape-size test builds its graph; each
backward rule the network uses is covered by the finite-difference suite in
the training module.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
NORM_EPS = 1e-5  # variance floor of normalize_axes
LRELU_SLOPE = 0.01  # negative-side slope of leaky_relu


class Tensor:
    """An ndarray plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumers")
    # `_parents` is None once backward() has released the node; `_consumers`
    # is the number of parent slots that name this interior node on the walk.

    def __init__(self, data, requires_grad: bool = False):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
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
    """Add `g` into `t.grad`: hand it over to a sole consumer, else copy first."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif (t._consumers == 1 and g.dtype == t.data.dtype and g.shape == t.data.shape
          and g.strides == t.data.strides):
        t.grad = g
    else:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    data = a.data + b.data

    def bwd(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), bwd)


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


def permute(a: Tensor, axes, split=None, merge=None) -> Tensor:
    """One node for a.reshape(split).transpose(axes).reshape(merge); split
    and merge default to no reshape. Backward runs the inverse chain."""
    src = a.data.shape
    x = a.data if split is None else a.data.reshape(split)
    x = x.transpose(axes)
    moved = x.shape
    data = x if merge is None else x.reshape(merge)
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accum(a, g.reshape(moved).transpose(inv).reshape(src))

    return _node(data, (a,), bwd)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_coerce(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accum(p, g[tuple(idx)])

    return _node(data, tuple(parts), bwd)


def pad(a: Tensor, pad_width) -> Tensor:
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    data = np.pad(a.data, pad_width)
    inner = tuple(slice(lo, lo + s) for (lo, _), s in zip(pad_width, a.data.shape))

    def bwd(g):
        _accum(a, g[inner])

    return _node(data, (a,), bwd)


def slice_(a: Tensor, key) -> Tensor:
    """Basic slicing (slices only, so rank is preserved)."""
    data = a.data[key]

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[key] += g

    return _node(data, (a,), bwd)


CONV_BLOCK_BYTES = 8 << 20  # column bytes conv3's forward builds at a time
SMALL_GEMM_MACS = 100**3  # OpenBLAS sums a GEMM of at most this many MACs another way


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


def _block_planes(c: int, dims, rows: int, itemsize: int) -> int:
    """z planes per forward column block of a conv3 with `rows` outputs: as
    many as fit CONV_BLOCK_BYTES, at least one, rounded down to a multiple of
    64 columns. The block is the whole grid instead when no such block
    exists, when the grid's columns are no multiple of 64, or when the last
    block's GEMM has at most SMALL_GEMM_MACS multiply-adds and the whole
    grid's has more: those cuts change bits, and these keep every output's."""
    d, h, w = dims
    fit = max(1, CONV_BLOCK_BYTES // (27 * c * h * w * itemsize))
    step = 64 // math.gcd(h * w, 64)
    planes = fit - fit % step
    if not 0 < planes < d or d % step:
        return d
    macs = rows * 27 * c * h * w  # per plane
    last = d - (d - 1) // planes * planes
    return d if macs * last <= SMALL_GEMM_MACS < macs * d else planes


def _im2col(x: np.ndarray, regions, cols: np.ndarray | None = None) -> np.ndarray:
    """[C, d, h, w] -> [27*C, n, h, w]: the 3x3x3 neighbourhoods of the n
    output planes `regions` describe, in the grid zero-padded by 1, offsets
    in lexicographic (dz, dy, dx) order, C fastest. No padded copy is made:
    each slab's in-range region is written straight into `cols`, a fresh
    zeroed buffer by default; entries outside those regions are not written."""
    c = x.shape[0]
    if cols is None:
        cols = np.zeros((27 * c,) + x.shape[1:], x.dtype)
    for k, (dst, src) in enumerate(regions):
        cols[(slice(k * c, (k + 1) * c),) + dst] = x[(slice(None),) + src]
    return cols


def conv3(x: Tensor, weight: Tensor) -> Tensor:
    """3x3x3 convolution (padding 1) of [C_in, d, h, w] by weight
    [C_out, 27*C_in], columns in `_im2col` order, as one node. Forward fills
    the columns one block of z planes at a time (`_block_planes`) into one
    reused buffer and runs one GEMM per block into that block's columns of
    the output. The columns are not kept for backward, which rebuilds them
    whole for the weight gradient, drops them, and adds the column gradient
    back into an unpadded input gradient (col2im) in the same slab order."""
    c, d, h, w = x.shape
    xd, wd = x.data, weight.data
    hw = h * w
    planes = _block_planes(c, (d, h, w), wd.shape[0], xd.itemsize)
    cols = np.zeros((27 * c, planes, h, w), xd.dtype)
    y = np.empty((wd.shape[0], d * hw), np.result_type(wd, xd))
    for z0, z1, regions in _im2col_regions((d, h, w), planes):
        block = cols[:, :z1 - z0]
        if z0 and z1 == d:  # dz=+1 reads outside the grid here; an earlier block wrote it
            block[18 * c:, -1] = 0
        np.matmul(wd, _im2col(xd, regions, block).reshape(27 * c, -1), out=y[:, z0 * hw:z1 * hw])
    ((_, _, regions),) = _im2col_regions((d, h, w), d)

    def bwd(g):
        g2 = g.reshape(y.shape)
        _accum(weight, g2 @ _im2col(xd, regions).reshape(27 * c, -1).T)
        gcols = (wd.T @ g2).reshape(27 * c, d, h, w)
        gx = np.zeros((c, d, h, w), g.dtype)
        for k, (dst, src) in enumerate(regions):
            gx[(slice(None),) + src] += gcols[(slice(k * c, (k + 1) * c),) + dst]
        _accum(x, gx)

    return _node(y.reshape((wd.shape[0], d, h, w)), (x, weight), bwd)


def roll(a: Tensor, shifts, axes) -> Tensor:
    shifts = tuple(int(s) for s in shifts)
    axes = tuple(axes)
    data = np.roll(a.data, shifts, axes)

    def bwd(g):
        _accum(a, np.roll(g, tuple(-s for s in shifts), axes))

    return _node(data, (a,), bwd)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    axes = axis

    def bwd(g):
        if axes is not None and not keepdims:
            ax = axes if isinstance(axes, tuple) else (axes,)
            g = np.expand_dims(g, ax)
        _accum(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False))

    return _node(data, (a,), bwd)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) GELU."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    data = (x * cdf).astype(x.dtype, copy=False)

    def bwd(g):
        pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
        _accum(a, (g * (cdf + x * pdf)).astype(x.dtype, copy=False))

    return _node(data, (a,), bwd)


# When set to a list, every leaky_relu call appends its input sign pattern.
# The finite-difference checker uses this to detect probe brackets that
# cross the kink (where a central difference stops being a gradient oracle).
lrelu_sign_trace: list | None = None


def leaky_relu(a: Tensor) -> Tensor:
    x = a.data
    pos = x > 0
    if lrelu_sign_trace is not None:
        lrelu_sign_trace.append(np.packbits(pos.reshape(-1)))
    data = np.where(pos, x, LRELU_SLOPE * x)

    def bwd(g):
        _accum(a, np.where(pos, g, LRELU_SLOPE * g))

    return _node(data, (a,), bwd)


def tokens_linear(t: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """[..., C_in] @ weight[C_out, C_in]^T + bias, as one node."""
    w = weight.data
    data = t.data @ w.T + bias.data

    def bwd(g):
        _accum(t, g @ w)
        _accum(weight, _unbroadcast(np.swapaxes(t.data, -1, -2) @ g, w.T.shape).T)
        _accum(bias, _unbroadcast(g, bias.data.shape))

    return _node(data, (t, weight, bias), bwd)


def channels_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Pointwise linear map over the leading channel axis of [C_in, *spatial],
    as one node: a GEMM on the [C_in, n] view (a copy if x is not contiguous)."""
    w = weight.data
    x2 = x.data.reshape(x.shape[0], -1)
    y = w @ x2
    if bias is not None:
        y = y + bias.data[:, None]

    def bwd(g):
        g2 = g.reshape(y.shape)
        _accum(weight, g2 @ x2.T)
        _accum(x, (w.T @ g2).reshape(x.shape))
        if bias is not None:
            _accum(bias, g2.sum(axis=1))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _node(y.reshape((w.shape[0],) + x.shape[1:]), parents, bwd)


def normalize_axes(x: Tensor, gamma: Tensor, beta: Tensor, axes) -> Tensor:
    """Mean-0/var-1 over `axes` (0: layer norm, spatial: instance norm), then
    a per-channel affine: gamma and beta are [C] for the leading axis of x."""
    shape = (x.shape[0],) + (1,) * (x.ndim - 1)
    scale = x.dtype.type(1.0 / math.prod(x.shape[i] for i in np.atleast_1d(axes)))
    xc = x.data - x.data.sum(axis=axes, keepdims=True) * scale
    ve = (xc * xc).sum(axis=axes, keepdims=True) * scale + x.dtype.type(NORM_EPS)
    inv = ve**-0.5
    xn = xc * inv
    gr = gamma.data.reshape(shape)
    data = xn * gr + beta.data.reshape(shape)

    def bwd(g):
        gxn = g * gr
        gxc = np.empty_like(xc)
        np.copyto(gxc, gxn * inv)
        gsq = _unbroadcast(gxn * xc, inv.shape) * (-0.5 * ve**-1.5) * scale
        gxc += gsq * xc
        gxc += gsq * xc
        _accum(x, gxc)
        _accum(x, np.broadcast_to(-_unbroadcast(gxc, inv.shape) * scale, x.shape))
        _accum(gamma, _unbroadcast(g * xn, shape).reshape(gamma.shape))
        _accum(beta, _unbroadcast(g, shape).reshape(beta.shape))

    return _node(data, (x, x, gamma, beta), bwd)


def window_attention(q: Tensor, kt: Tensor, v: Tensor, table: Tensor, index: np.ndarray,
                     mask: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """softmax(q kt / sqrt(dh) + table[index] + mask) v, heads merged: q, v
    [nW, heads, T, dh], kt [nW, heads, dh, T], table [(2w-1)^3, heads], index
    [T, T], mask [nW, T, T] or None. Returns ([nW, T, heads*dh], the weights)."""
    nw, heads, t, dh = q.shape
    scale = q.dtype.type(1.0 / math.sqrt(dh))
    idx = index.reshape(-1)
    logits = (q.data @ kt.data) * scale + table.data[idx].reshape(t, t, heads).transpose(2, 0, 1)
    if mask is not None:
        logits = logits + mask[:, None].astype(q.dtype, copy=False)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    out = attn @ v.data
    data = out.transpose(0, 2, 1, 3).reshape(nw, t, heads * dh)

    def bwd(g):
        go = np.ascontiguousarray(g.reshape(nw, t, heads, dh).transpose(0, 2, 1, 3))
        ga = go @ np.swapaxes(v.data, -1, -2)
        _accum(v, np.swapaxes(attn, -1, -2) @ go)
        gl = attn * (ga - (ga * attn).sum(axis=-1, keepdims=True))
        gqk = gl * scale
        _accum(q, gqk @ np.swapaxes(kt.data, -1, -2))
        _accum(kt, np.swapaxes(q.data, -1, -2) @ gqk)
        gb = _unbroadcast(gl, (1, heads, t, t)).reshape(heads, t, t).transpose(1, 2, 0)
        gtable = np.zeros_like(table.data)
        np.add.at(gtable, idx, gb.reshape(t * t, heads))
        _accum(table, gtable)

    return _node(data, (q, kt, v, table), bwd), attn
