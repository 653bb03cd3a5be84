"""Tape-level tests: fused ops against the composed graphs they replace,
tape release in backward(), gradient accumulation without aliasing, and the
hand-off of a sole consumer's gradient against a copy-always oracle."""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hrstnet import autodiff as ad
from hrstnet import training
from hrstnet.attention import MASK_VALUE, relative_position_index
from hrstnet.autodiff import Tensor
from hrstnet.topology import forward_graph, init_params
from hrstnet.training import combined_loss_graph, finite_difference_check, one_hot
from hrstnet.volume import LabelVolume, SyntheticSpec, generate_synthetic
from hrstnet.windowing import merge_graph

from conftest import TINY


# ------------------------------------------------------------ composed oracles


def composed_conv3(x: Tensor, weight: Tensor) -> Tensor:
    """Reference 3x3x3 convolution: pad + 27 shifted slices + concat."""
    c, d, h, w = x.shape
    xp = ad.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    slices = [
        ad.slice_(xp, (slice(None), slice(dz, dz + d), slice(dy, dy + h), slice(dx, dx + w)))
        for dz in range(3)
        for dy in range(3)
        for dx in range(3)
    ]
    return ad.channels_linear(ad.concat(slices, axis=0), weight)


def composed_merge(x: Tensor, weight: Tensor) -> Tensor:
    """Reference 2x2x2 patch merge of even dims: 8 strided slices + concat."""
    children = [
        ad.slice_(x, (slice(None), slice(i, None, 2), slice(j, None, 2), slice(k, None, 2)))
        for i in (0, 1)
        for j in (0, 1)
        for k in (0, 1)
    ]
    return ad.channels_linear(ad.concat(children, axis=0), weight)


def run_op(op, x_np, w_np, r_np):
    """Forward output and (input, weight) gradients of sum(op(x, w) * r)."""
    x = Tensor(x_np.copy(), requires_grad=True)
    w = Tensor(w_np.copy(), requires_grad=True)
    out = op(x, w)
    ad.sum_(ad.mul(out, Tensor(r_np))).backward()
    return out.data, x.grad, w.grad


def assert_same_bytes(fused, composed):
    for f, c in zip(fused, composed):
        assert f.dtype == c.dtype and f.shape == c.shape
        assert f.tobytes() == c.tobytes()


CASES = [  # (C_in, C_out, dims)
    (3, 4, (3, 5, 2)),
    (2, 3, (1, 1, 1)),
    (1, 5, (4, 3, 3)),
    (4, 2, (2, 2, 6)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,c_out,dims", CASES)
def test_im2col_conv3_matches_composed_bitwise(dtype, c_in, c_out, dims):
    rng = np.random.default_rng(sum(dims) + c_in)
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = rng.standard_normal((c_out, 27 * c_in)).astype(dtype)
    r = rng.standard_normal((c_out,) + dims).astype(dtype)
    assert_same_bytes(run_op(ad.conv3, x, w, r), run_op(composed_conv3, x, w, r))



# (C_in, C_out, dims, planes the patched budget fits, blocks conv3 runs)
BLOCK_CASES = [
    (2, 3, (5, 8, 8), 2, 3),  # h*w = 64 columns: 2 planes a block, the last one short
    (2, 3, (4, 8, 8), 2, 2),  # the last block full, its dz=+1 last plane once written
    (1, 4, (8, 4, 4), 5, 2),  # h*w = 16: 4 planes make 64 columns
    (2, 3, (6, 3, 3), 5, 1),  # h*w = 9: no aligned block, so the whole grid
    (2, 3, (1, 1, 1), 1, 1),
    (32, 8, (8, 4, 16), 7, 1),  # a one-plane last block would be a small GEMM
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,c_out,dims,fit,blocks", BLOCK_CASES)
def test_blocked_conv3_forward_matches_full_columns_bitwise(
        monkeypatch, dtype, c_in, c_out, dims, fit, blocks):
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", fit * 27 * c_in * dims[1] * dims[2] * itemsize)
    planes = ad._block_planes(c_in, dims, c_out, itemsize)
    assert len(ad._im2col_regions(dims, planes)) == blocks
    rng = np.random.default_rng(sum(dims) + c_in)
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = rng.standard_normal((c_out, 27 * c_in)).astype(dtype)
    ((_, _, whole),) = ad._im2col_regions(dims, dims[0])
    full = (w @ ad._im2col(x, whole).reshape(27 * c_in, -1)).reshape((c_out,) + dims)
    assert_same_bytes([ad.conv3(Tensor(x), Tensor(w)).data], [full])
    test_im2col_conv3_matches_composed_bitwise(dtype, c_in, c_out, dims)


def test_conv3_forward_transient_stays_within_the_block_budget():
    c_in, dims = 128, (16, 16, 16)
    full_cols = 27 * c_in * math.prod(dims) * 4
    assert full_cols > 6 * ad.CONV_BLOCK_BYTES
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((c_in,) + dims).astype(np.float32))
    w = Tensor(rng.standard_normal((8, 27 * c_in)).astype(np.float32))
    tracemalloc.start()
    try:
        ad.conv3(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_cols / 4

# merges read even dims only: forward_graph's input check guarantees them
MERGE_CASES = [  # (C_in, C_out, dims)
    (3, 4, (4, 6, 2)),
    (2, 3, (2, 2, 2)),
    (1, 5, (4, 2, 4)),
    (4, 2, (2, 2, 6)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,c_out,dims", MERGE_CASES)
def test_space_to_depth_merge_matches_composed_bitwise(dtype, c_in, c_out, dims):
    rng = np.random.default_rng(sum(dims) + 10 * c_in)
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = rng.standard_normal((c_out, 8 * c_in)).astype(dtype)
    half = tuple(s // 2 for s in dims)
    r = rng.standard_normal((c_out,) + half).astype(dtype)
    assert_same_bytes(run_op(merge_graph, x, w, r), run_op(composed_merge, x, w, r))


def test_im2col_conv3_backward_keeps_no_padded_copy():
    c_in, dims = 2, (3, 4, 5)
    x = Tensor(np.ones((c_in,) + dims, np.float32), requires_grad=True)
    w = Tensor(np.ones((3, 27 * c_in), np.float32), requires_grad=True)
    y = ad.conv3(x, w)
    captured = [c.cell_contents for c in y._backward.__closure__]
    shapes = [v.shape for v in captured if isinstance(v, np.ndarray)]
    assert all(s[0] != 27 * c_in for s in shapes)  # no [27*C_in, ...] columns
    assert all(s[-3:] != (5, 6, 7) for s in shapes)  # no zero-padded input


# --------------------------------- one node per layout change and linear map


def broadcast_matmul(a: Tensor, b: Tensor) -> Tensor:
    """The general matmul node the composed linears were built from: batch
    dims broadcast forward and are summed back out of each gradient."""
    data = a.data @ b.data

    def bwd(g):
        ad._accum(a, ad._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        ad._accum(b, ad._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return ad._node(data, (a, b), bwd)


def composed_tokens_linear(t, weight, bias):
    return ad.add(broadcast_matmul(t, ad.permute(weight, (1, 0))), bias)


def composed_channels_linear(x, weight, bias=None):
    c_in, spatial = x.shape[0], x.shape[1:]
    y = broadcast_matmul(weight, ad.reshape(x, (c_in, int(np.prod(spatial)))))
    if bias is not None:
        y = ad.add(y, ad.reshape(bias, (weight.shape[0], 1)))
    return ad.reshape(y, (weight.shape[0],) + spatial)


def run_graph(op, r_np, *inputs):
    """Forward output and the gradient of every given input of sum(op(...) * r).
    Inputs are used as given (views stay views); None passes through."""
    leaves = [None if a is None else Tensor(a, requires_grad=True) for a in inputs]
    out = op(*leaves)
    ad.sum_(ad.mul(out, Tensor(r_np))).backward()
    return [out.data] + [t.grad for t in leaves if t is not None]


PERMUTES = [  # (input shape, axes, split, merge)
    ((3, 4), (1, 0), None, None),
    ((2, 5, 6), (0, 2, 1, 3), (2, 5, 3, 2), None),
    ((2, 3, 5, 4), (0, 2, 1, 3), None, (2, 15, 4)),
    ((2, 4, 6, 2), (1, 3, 5, 2, 4, 6, 0), (2, 2, 2, 3, 2, 1, 2), (6, 8, 2)),
    ((6, 8, 2), (6, 0, 3, 1, 4, 2, 5), (2, 3, 1, 2, 2, 2, 2), (2, 4, 6, 2)),
    ((8, 1, 2, 3), (3, 4, 0, 5, 1, 6, 2), (2, 2, 2, 1, 1, 2, 3), (1, 2, 4, 6)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "view"])
@pytest.mark.parametrize("shape,axes,split,merge", PERMUTES)
def test_permute_matches_numpy_chain_bitwise(dtype, transposed, shape, axes, split, merge):
    rng = np.random.default_rng(len(shape) + sum(axes))
    x = rng.standard_normal(shape[::-1]).astype(dtype).T if transposed else (
        rng.standard_normal(shape).astype(dtype))
    ref = x.reshape(split or shape).transpose(axes)
    moved = ref.shape
    ref = ref.reshape(merge or moved)
    r = rng.standard_normal(ref.shape).astype(dtype)
    # the gradient of sum(out * r) is r taken back through the inverse chain
    ref_grad = r.reshape(moved).transpose(np.argsort(axes)).reshape(shape)
    out, grad = run_graph(lambda a: ad.permute(a, axes, split=split, merge=merge), r, x)
    assert_same_bytes([out, grad], [ref, ref_grad])
    assert out.strides == ref.strides


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(7,), (3, 5)], ids=["2d-bias", "3d-bias"])
def test_tokens_linear_matches_composed_bitwise(dtype, lead):
    rng = np.random.default_rng(len(lead))
    t = rng.standard_normal(lead + (6,)).astype(dtype)
    w = rng.standard_normal((4, 6)).astype(dtype)
    b = rng.standard_normal(4).astype(dtype)
    r = rng.standard_normal(lead + (4,)).astype(dtype)
    assert_same_bytes(
        run_graph(ad.tokens_linear, r, t, w, b), run_graph(composed_tokens_linear, r, t, w, b)
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "view"])
def test_channels_linear_matches_composed_bitwise(dtype, with_bias, transposed):
    rng = np.random.default_rng(int(transposed))
    dims = (2, 3, 4)
    x = rng.standard_normal(dims + (5,)).astype(dtype)
    x = np.moveaxis(x, -1, 0) if transposed else np.ascontiguousarray(np.moveaxis(x, -1, 0))
    assert x.flags.c_contiguous != transposed
    w = rng.standard_normal((3, 5)).astype(dtype)
    b = rng.standard_normal(3).astype(dtype) if with_bias else None
    r = rng.standard_normal((3,) + dims).astype(dtype)
    assert_same_bytes(
        run_graph(ad.channels_linear, r, x, w, b), run_graph(composed_channels_linear, r, x, w, b)
    )


# ------------------------------------------ one node per network primitive
# The ops the norm, attention and loss nodes replaced, rebuilt as oracles.


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data**p

    def bwd(g):
        ad._accum(a, g * (p * a.data ** (p - 1)))

    return ad._node(data, (a,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data @ b.data

    def bwd(g):
        ad._accum(a, g @ np.swapaxes(b.data, -1, -2))
        ad._accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return ad._node(data, (a, b), bwd)


def take(a: Tensor, idx: np.ndarray) -> Tensor:
    data = a.data[idx]

    def bwd(g):
        z = np.zeros_like(a.data)
        np.add.at(z, idx, g)
        ad._accum(a, z)

    return ad._node(data, (a,), bwd)


def mean_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else int(np.prod([a.shape[i] for i in np.atleast_1d(axis)]))
    return ad.mul(ad.sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax(a: Tensor, axis: int) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        ad._accum(a, y * (g - dot))

    return ad._node(y, (a,), bwd)


def log_softmax(a: Tensor, axis: int) -> Tensor:
    m = a.data.max(axis=axis, keepdims=True)
    shifted = a.data - m
    y = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bwd(g):
        ad._accum(a, g - np.exp(y) * g.sum(axis=axis, keepdims=True))

    return ad._node(y, (a,), bwd)


def composed_normalize_axes(x, gamma, beta, axes):
    shape = (x.shape[0],) + (1,) * (x.ndim - 1)
    mu = mean_(x, axis=axes, keepdims=True)
    xc = ad.add(x, ad.mul(mu, -1.0))
    var = mean_(ad.mul(xc, xc), axis=axes, keepdims=True)
    inv = pow_const(ad.add(var, ad.NORM_EPS), -0.5)
    return ad.add(ad.mul(ad.mul(xc, inv), ad.reshape(gamma, shape)), ad.reshape(beta, shape))


def composed_window_attention(q, kt, v, table, index, mask=None):
    nw, heads, t, dh = q.shape
    logits = ad.mul(matmul(q, kt), 1.0 / math.sqrt(dh))
    bias = take(table, index.reshape(-1))  # [T*T, heads]
    bias = ad.permute(bias, (2, 0, 1), split=(t, t, heads), merge=(1, heads, t, t))
    logits = ad.add(logits, bias)
    if mask is not None:
        logits = ad.add(logits, Tensor(mask[:, None, :, :].astype(q.dtype, copy=False)))
    attn = softmax(logits, axis=-1)
    out = ad.permute(matmul(attn, v), (0, 2, 1, 3), merge=(nw, t, heads * dh))
    return out, attn.data


def composed_loss(logits, onehot):
    """The dice and CE graphs combined_loss_graph stands for."""
    probs = softmax(logits, axis=0)
    g = Tensor(onehot.astype(logits.dtype, copy=False))
    inter = ad.sum_(ad.mul(probs, g), axis=(1, 2, 3))
    psum = ad.sum_(probs, axis=(1, 2, 3))
    gsum = Tensor(onehot.sum(axis=(1, 2, 3)).astype(logits.dtype))
    per_class = ad.mul(
        ad.add(ad.mul(inter, 2.0), training.DICE_EPS),
        pow_const(ad.add(ad.add(psum, gsum), training.DICE_EPS), -1.0),
    )
    dice = ad.add(ad.mul(mean_(per_class), -1.0), 1.0)
    ls = log_softmax(logits, axis=0)
    ce = ad.mul(ad.sum_(ad.mul(ls, g)), -1.0 / onehot[0].size)
    return ad.add(dice, ce), dice, ce


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axes", [0, (1, 2, 3)], ids=["layer", "instance"])
@pytest.mark.parametrize("shared", [False, True], ids=["sole", "shared"])
@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "view"])
def test_normalize_axes_matches_composed_bitwise(dtype, axes, shared, transposed):
    rng = np.random.default_rng(int(shared) + 2 * int(transposed))
    shape = (5, 3, 4, 6)
    x = rng.standard_normal(shape[::-1]).astype(dtype).T if transposed else (
        rng.standard_normal(shape).astype(dtype))
    gamma, beta = rng.standard_normal((2, 5)).astype(dtype)
    r = rng.standard_normal(shape).astype(dtype)

    def op(norm):
        def run(x, gamma, beta):
            h = ad.mul(x, 1.5)  # an interior input, as in the network
            out = norm(h, gamma, beta, axes)
            # h read again by a residual add, as x in a Swin layer: the add's
            # gradient reaches h first, the norm's two are added to it
            return ad.add(h, out) if shared else out
        return run

    assert_same_bytes(
        run_graph(op(ad.normalize_axes), r, x, gamma, beta),
        run_graph(op(composed_normalize_axes), r, x, gamma, beta),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
def test_window_attention_matches_composed_bitwise(dtype, window, heads, masked):
    rng = np.random.default_rng(window + 10 * heads)
    nw, dh, t = 3, 2, window**3
    # q, k and v are [nW, T, heads, dh] leaves that reach the node as
    # permute views, as split_heads makes them
    raw = rng.standard_normal((3, nw, t, heads, dh)).astype(dtype)
    table = rng.standard_normal(((2 * window - 1) ** 3, heads)).astype(dtype)
    index = relative_position_index(window)
    mask = None
    if masked:
        mask = np.where(rng.random((nw, t, t)) < 0.4, MASK_VALUE, 0.0).astype(np.float32)
        mask[:, np.arange(t), np.arange(t)] = 0.0
    r = rng.standard_normal((nw, t, heads * dh)).astype(dtype)
    weights = []

    def op(attend):
        def run(q, k, v, table):
            out, attn = attend(
                ad.permute(q, (0, 2, 1, 3)), ad.permute(k, (0, 2, 3, 1)),
                ad.permute(v, (0, 2, 1, 3)), table, index, mask,
            )
            weights.append(attn)
            return out
        return run

    assert_same_bytes(
        run_graph(op(ad.window_attention), r, *raw, table),
        run_graph(op(composed_window_attention), r, *raw, table),
    )
    assert_same_bytes(weights[:1], weights[1:])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_combined_loss_matches_composed_bitwise(dtype, k):
    rng = np.random.default_rng(k)
    dims = (3, 4, 5)
    x = rng.standard_normal((k,) + dims).astype(dtype)
    onehot = one_hot(LabelVolume(rng.integers(0, k, dims).astype(np.int32), k))

    def run(loss):
        leaf = Tensor(x.copy(), requires_grad=True)
        total, dice, ce = loss(ad.mul(leaf, 2.0), onehot)  # an interior input
        values = [np.asarray(v.data) for v in (total, dice, ce)]
        total.backward()
        return values + [leaf.grad]

    fused, composed = run(combined_loss_graph), run(composed_loss)
    assert_same_bytes(fused, composed)


# ---------------------------------------------------------------- tape release


def tiny_loss(dims=(16, 16, 16), cfg=TINY):
    vol, lab = generate_synthetic(SyntheticSpec(seed=3, dims=dims, channels=1, num_classes=2))
    pt = {k: Tensor(v, requires_grad=True) for k, v in init_params(cfg, 0).items()}
    total, _, _ = combined_loss_graph(forward_graph(cfg, pt, Tensor(vol.data)), one_hot(lab))
    return total, pt


def reachable(root: Tensor) -> list[Tensor]:
    seen, out, stack = set(), [], [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._parents)
    return out


def test_backward_releases_interior_nodes_and_keeps_leaf_grads():
    total, pt = tiny_loss()
    nodes = reachable(total)
    interior = [n for n in nodes if n._backward is not None]
    assert len(interior) > 100
    total.backward()
    for n in interior:
        assert n.grad is None and n._backward is None and n._parents is None
    for name, t in pt.items():
        assert t._parents == () and t.grad is not None, name
        assert t.grad.shape == t.data.shape


def test_tape_holds_no_im2col_columns():
    # a [27*C_in, d, h, w] column buffer is 27x its conv's input; only the
    # backward rule builds it again, for the length of its own call
    total, pt = tiny_loss()
    col_rows = {w.shape[1] for name, w in pt.items() if name.endswith(".weight") and "conv" in name}
    held = []
    for node in reachable(total):
        held.append(node.data)
        if node._backward is not None:
            held += [c.cell_contents for c in node._backward.__closure__ or ()]
    assert col_rows
    assert [a.shape for a in held if isinstance(a, np.ndarray) and a.ndim == 4
            and a.shape[0] in col_rows] == []


def test_second_backward_on_released_root_raises():
    total, _ = tiny_loss()
    total.backward()
    with pytest.raises(ValueError, match="released"):
        total.backward()


def test_backward_through_released_shared_nodes_raises_before_writing():
    a = Tensor(np.arange(4.0), requires_grad=True)
    b = Tensor(np.full(4, 2.0), requires_grad=True)
    shared = ad.mul(a, a)
    first = ad.sum_(ad.add(shared, b))
    second = ad.sum_(ad.mul(ad.add(shared, 1.0), b))
    first.backward()
    a_grad, b_grad = a.grad.copy(), b.grad.copy()
    with pytest.raises(ValueError, match="released"):
        second.backward()
    assert a.grad.tobytes() == a_grad.tobytes()
    assert b.grad.tobytes() == b_grad.tobytes()


# ------------------------------------------------------- copy on first write


def test_first_write_copies_so_shared_gradients_do_not_alias():
    a = Tensor(np.zeros(5, np.float32), requires_grad=True)
    b = Tensor(np.zeros(5, np.float32), requires_grad=True)
    ad.sum_(ad.add(a, b)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 3.0
    assert np.array_equal(b.grad, np.ones(5, np.float32))
    assert np.array_equal(a.grad, np.full(5, 4.0, np.float32))


def test_self_add_accumulates_twice():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = ad.add(x, x)
    r = np.arange(1.0, 7.0).reshape(2, 3)
    ad.sum_(ad.mul(y, Tensor(r))).backward()
    assert np.array_equal(x.grad, 2.0 * r)


def test_slice_backward_scatters_into_accumulator():
    x = Tensor(np.zeros((2, 4)), requires_grad=True)
    left = ad.slice_(x, (slice(None), slice(0, 3)))
    right = ad.slice_(x, (slice(None), slice(1, 4)))
    ad.sum_(ad.add(left, ad.mul(right, 2.0))).backward()
    assert np.array_equal(x.grad, np.array([[1.0, 3.0, 3.0, 2.0]] * 2))


# ------------------------------------------------------ sole-consumer hand-off


def copy_always_accum(t: Tensor, g: np.ndarray) -> None:
    """Reference accumulation: every first write is an owned copy."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


@pytest.fixture
def accum_log(monkeypatch):
    """Record each first write to a node's grad as (node, kind), kind one of
    "handoff", "copy" (interior nodes) or "leaf"."""
    log = []
    accum = ad._accum

    def spy(t, g):
        first = t.requires_grad and t.grad is None
        accum(t, g)
        if first:
            kind = "leaf" if t._backward is None else "handoff" if t.grad is g else "copy"
            log.append((t, kind))

    monkeypatch.setattr(ad, "_accum", spy)
    return log


def kind_of(log, node):
    return [k for t, k in log if t is node]


def received(node: Tensor) -> list:
    """Wrap `node`'s closure so it records the gradient it is called with."""
    seen, closure = [], node._backward

    def bwd(g):
        seen.append(g)
        closure(g)

    node._backward = bwd
    return seen


def train_case(cfg, dims, seed):
    vol, lab = generate_synthetic(SyntheticSpec(seed=seed, dims=dims, channels=1, num_classes=2))
    grads, losses = training.backward(cfg, init_params(cfg, seed + 1), vol, lab)
    return [np.float64(v) for v in losses], grads


def fd_analytic(cfg):
    """The float64 gradients finite_difference_check compares against."""
    captured = []
    param_grads = training._param_grads
    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "_param_grads", lambda pt: captured.append(param_grads(pt)) or captured[-1])
        finite_difference_check(cfg, num_samples=1)
    return [], captured[0]


@pytest.mark.parametrize("run", [
    lambda: train_case(TINY, (32, 32, 32), 5),
    lambda: train_case(dataclasses.replace(TINY, window=3), (16, 16, 16), 6),
    lambda: fd_analytic(TINY),
    lambda: fd_analytic(dataclasses.replace(TINY, window=3)),
], ids=["tiny-32", "window3-16", "fd-tiny", "fd-window3"])
def test_handoff_matches_copy_always_bitwise(monkeypatch, run):
    losses, grads = run()
    with monkeypatch.context() as m:
        m.setattr(ad, "_accum", copy_always_accum)
        ref_losses, ref_grads = run()
    assert [v.tobytes() for v in losses] == [v.tobytes() for v in ref_losses]
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g.dtype == ref_grads[name].dtype and g.shape == ref_grads[name].shape
        assert g.tobytes() == ref_grads[name].tobytes(), name


def test_add_hands_one_gradient_to_both_sole_consumers(accum_log):
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    y = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    a = ad.mul(x, 2.0)
    b = ad.reshape(ad.mul(y, 3.0), (2, 3))
    r = rng.standard_normal((2, 3))
    ga, gb = received(a), received(b)
    ad.sum_(ad.mul(ad.add(a, b), Tensor(r))).backward()
    assert ga[0] is gb[0]
    assert kind_of(accum_log, a) == kind_of(accum_log, b) == ["handoff"]
    # neither branch wrote into the shared gradient on its way down
    assert np.array_equal(ga[0], r)
    assert np.array_equal(x.grad, 2.0 * r)
    assert np.array_equal(y.grad, 3.0 * r.reshape(3, 2))


@pytest.mark.parametrize("doubled_first", [True, False])
def test_self_add_of_interior_node_counts_two_consumers(accum_log, doubled_first):
    # y + y names y in two parent slots: y's first gradient must be copied,
    # or the second write would add into the gradient q shares with it
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal(4), requires_grad=True)
    u = Tensor(rng.standard_normal(4), requires_grad=True)
    y, q = ad.mul(x, 2.0), ad.mul(u, 3.0)
    doubled = ad.add(y, y)
    top = ad.add(doubled, q) if doubled_first else ad.add(q, doubled)
    r = rng.standard_normal(4)
    ad.sum_(ad.mul(top, Tensor(r))).backward()
    assert kind_of(accum_log, y) == ["copy"]
    assert np.array_equal(x.grad, 2.0 * (r + r))
    assert np.array_equal(u.grad, 3.0 * r)


def test_read_only_broadcast_view_handed_to_slice(accum_log):
    # a column view: its size-1 axis has stride 0, as in a broadcast view
    x = Tensor(np.arange(6.0)[:, None], requires_grad=True)
    part = ad.slice_(x, (slice(0, 3), slice(None)))
    total = ad.sum_(part, axis=1, keepdims=True)
    r = np.array([[1.0], [2.0], [3.0]])
    seen = received(part)
    ad.sum_(ad.mul(total, Tensor(r))).backward()
    # sum_'s backward hands part its read-only broadcast view; slice_ only reads it
    assert kind_of(accum_log, part) == ["handoff"]
    assert not seen[0].flags.writeable and seen[0].strides == (8, 0)
    assert np.array_equal(x.grad, np.array([[1.0], [2.0], [3.0], [0.0], [0.0], [0.0]]))


def test_strides_mismatch_copies(accum_log):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    t = ad.permute(x, (1, 0))
    r = np.arange(1.0, 7.0).reshape(3, 2)
    seen = received(t)
    ad.sum_(ad.mul(t, Tensor(r))).backward()
    # mul hands back a C-ordered [3, 2] array; t's data is a transposed view
    assert kind_of(accum_log, t) == ["copy"]
    assert seen[0].strides == t.data.strides
    assert np.array_equal(x.grad, r.T)


def test_first_write_copies_on_tiny_training_graph(accum_log):
    # the tiny graph at 16^3: a hand-off that stops happening raises "copy"
    total, _ = tiny_loss()
    total.backward()
    assert Counter(k for _, k in accum_log) == {"handoff": 99, "copy": 51, "leaf": 136}


def test_tape_census_on_tiny_training_graph():
    # one node per layout change, per linear map and per network primitive:
    # 18 norms, 6 attention cores and the loss
    total, _ = tiny_loss((32, 32, 32))
    ops = Counter(
        node._backward.__qualname__.split(".")[0]
        for node in reachable(total) if node._backward is not None
    )
    assert ops == {
        "add": 15, "channels_linear": 22, "combined_loss_graph": 1, "concat": 3, "conv3": 6,
        "gelu": 6, "leaky_relu": 6, "normalize_axes": 18, "permute": 37, "roll": 6,
        "tokens_linear": 25, "window_attention": 6,
    }
    assert sum(ops.values()) == 151


def test_tape_census_on_padded_shifted_graph():
    # window 3 pads both streams (4^3 -> 6^3, 2^3 -> 3^3): each of the six Swin
    # layers makes one pad and one slice_, each of the three shifted ones two rolls
    total, _ = tiny_loss((16, 16, 16), dataclasses.replace(TINY, window=3))
    ops = Counter(
        node._backward.__qualname__.split(".")[0]
        for node in reachable(total) if node._backward is not None
    )
    assert ops == {
        "add": 15, "channels_linear": 22, "combined_loss_graph": 1, "concat": 3, "conv3": 6,
        "gelu": 6, "leaky_relu": 6, "normalize_axes": 18, "pad": 6, "permute": 37,
        "roll": 6, "slice_": 6, "tokens_linear": 25, "window_attention": 6,
    }
    assert sum(ops.values()) == 163
