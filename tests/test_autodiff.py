"""Tape-level tests: fused ops against the composed graphs they replace,
tape release in backward(), gradient accumulation without aliasing, and the
hand-off of a sole consumer's gradient against a copy-always oracle."""

import dataclasses
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from hrstnet import autodiff as ad
from hrstnet import training
from hrstnet.attention import (
    MASK_VALUE, attention_graph, compute_attn_mask, relative_position_index, swin_layer_graph,
)
from hrstnet.autodiff import Tensor
from hrstnet.topology import _block_schema, forward_graph, init_params
from hrstnet.training import combined_loss_graph, finite_difference_check, one_hot
from hrstnet.volume import LabelVolume, SyntheticSpec, generate_synthetic
from hrstnet.windowing import expand_graph, merge_graph, window_layout

from conftest import TINY, add, pad, partition_graph, reverse_graph, slice_


# ------------------------------------------------------------ composed oracles


def composed_conv3(x: Tensor, weight: Tensor) -> Tensor:
    """Reference 3x3x3 convolution: pad + 27 shifted slices + concat."""
    c, d, h, w = x.shape
    xp = pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    slices = [
        slice_(xp, (slice(None), slice(dz, dz + d), slice(dy, dy + h), slice(dx, dx + w)))
        for dz in range(3)
        for dy in range(3)
        for dx in range(3)
    ]
    return ad.channels_linear(ad.concat(slices), weight)


def composed_merge(x: Tensor, weight: Tensor) -> Tensor:
    """Reference 2x2x2 patch merge of even dims: 8 strided slices + concat."""
    children = [
        slice_(x, (slice(None), slice(i, None, 2), slice(j, None, 2), slice(k, None, 2)))
        for i in (0, 1)
        for j in (0, 1)
        for k in (0, 1)
    ]
    return ad.channels_linear(ad.concat(children), weight)


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
    planes = ad._block_planes(27 * c_in, dims, c_out * 27 * c_in, itemsize)
    assert len(ad._im2col_regions(dims, planes)) == blocks
    rng = np.random.default_rng(sum(dims) + c_in)
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = rng.standard_normal((c_out, 27 * c_in)).astype(dtype)
    ((_, _, whole),) = ad._im2col_regions(dims, dims[0])
    cols = ad._im2col(x, whole, np.zeros((27 * c_in,) + dims, dtype))
    full = (w @ cols.reshape(27 * c_in, -1)).reshape((c_out,) + dims)
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


@pytest.mark.parametrize("c_in,group", [(128, 1), (48, 4), (42, 27)], ids=["grouped", "short", "whole"])
def test_conv3_backward_holds_a_group_of_columns(c_in, group):
    # the weight gradient's columns go one offset at a time where 128 columns
    # keep the whole GEMM's bits, and 4 at a time for 48 channels (192
    # columns, the last group of 3 offsets short). For 42 channels no group
    # of fewer than 27 offsets starts every piece at a multiple of 64
    # columns, so the columns are whole there. The input gradient's column
    # gradient goes a block at a time beside them, never a second whole buffer
    dims = (16, 16, 16)
    full_cols = 27 * c_in * math.prod(dims) * 4
    assert 27 * c_in * math.prod(dims) >= ad.SPLIT_ELEMS  # the two branches run on two workers
    assert ad._offset_group(c_in, 8 * math.prod(dims)) == group
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((c_in,) + dims).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 27 * c_in)).astype(np.float32), requires_grad=True)
    y = ad.conv3(x, w)
    g = rng.standard_normal(y.shape).astype(np.float32)
    tracemalloc.start()
    try:
        y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if c_in == 128:
        # one offset's columns (2 MB), a block of column gradient (2 MB), gx and gw
        assert peak < full_cols / 4
    elif c_in == 48:
        # four offsets' columns (3.1 MB of 21.2), a block of column gradient, gx and gw
        assert peak < full_cols / 3
    else:
        # beside the whole columns: a block of column gradient, gx and gw; a
        # whole column gradient beside them would double the peak
        assert full_cols < peak < 1.25 * full_cols


@pytest.mark.parametrize("c,per,group", [
    (48, 8 * 4096, 4),  # 192 columns six times, then a last group of 3 offsets (144)
    (64, 48 * 512, 1),
    (64, 4 * 512, 9),  # 64 and 192 columns take 1M multiply-adds or fewer
    (128, 8 * 512, 3),
    (64, 4, 1),  # the whole GEMM is small, and so is every piece
    (96, 1 << 20, 2),  # the paper default's 96 channels: 192 columns, a last group of 1
    # V4's concat convs at 16^3 and 8^3, each ending on a short group
    (16, 16 * 4096, 4),
    (32, 16 * 4096, 2),
    (48, 16 * 4096, 4),
    (96, 32 * 512, 2),
    (32, 16 * 512, 10),  # 64, 128 and 192 columns: some piece at 1M multiply-adds or fewer
    (64, 4096, 7),  # groups of 1 to 6 leave some piece at 1M multiply-adds or fewer
    (42, 8 * 4096, 27),  # 42 = 2 * 21: no group below 27 offsets starts on a 64 multiple
    (16, 128, 27),  # a small whole GEMM: its last piece, too, must be 64 columns wide
])
def test_conv3_weight_gradient_offset_groups(c, per, group):
    assert ad._offset_group(c, per) == group


@pytest.mark.parametrize("per,total,widths,keeps", [
    # a large GEMM: a short last piece above SMALL_GEMM_MACS keeps the bits
    (65536, 432, [64] * 6 + [48], True),
    (25001, 168, [128, 40], True),
    # ... but not at or below it
    (25000, 168, [128, 40], False),
    (8192, 864, [256, 256, 256, 96], False),
    (15625, 192, [128, 64], False),  # aligned, but its last piece exactly 1M
    # a small whole GEMM: every width a multiple of 64, the last one included
    (100, 128, [64, 64], True),
    (100, 100, [64, 36], False),
    (15000, 66, [64, 2], False),
    # a piece that is not the last must end on a multiple of 64
    (65536, 432, [48, 384], False),
    (65536, 432, [128, 96, 208], False),
], ids=["tail", "tail-just-above", "tail-at-small", "tail-below-small", "aligned-at-small",
        "small-aligned", "small-tail", "small-short-tail", "unaligned-first", "unaligned-middle"])
def test_cut_keeps_bits_decision_table(per, total, widths, keeps):
    assert sum(widths) == total
    assert ad._cut_keeps_bits(per, total, *widths) is keeps

# ------------------------------------------------ two workers, the same bytes


@pytest.fixture
def split_runs(monkeypatch):
    """run() at thresholds no kernel reaches, so every kernel runs whole,
    then split wherever a cut keeps bits, on one worker and on two: the
    `tobytes()` of each run's arrays, and the cuts `_split` was given."""
    cuts = []
    split = ad._split
    monkeypatch.setattr(ad, "_split", lambda piece, n, cut: cuts.append(cut) or split(piece, n, cut))

    def runs(run):
        monkeypatch.setattr(ad, "SPLIT_MACS", 1 << 62)
        monkeypatch.setattr(ad, "SPLIT_ELEMS", 1 << 62)
        out = [[a.tobytes() for a in run()]]
        assert not any(cuts)
        monkeypatch.setattr(ad, "SPLIT_MACS", 1)
        monkeypatch.setattr(ad, "SPLIT_ELEMS", 1)
        for workers in (1, 2):
            monkeypatch.setattr(ad, "WORKERS", workers)
            out.append([a.tobytes() for a in run()])
        return out, cuts

    return runs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,c_out,dims,fit,blocks", BLOCK_CASES + [(64, 3, (2, 4, 8), 1, 2)])
def test_split_conv3_keeps_every_bit(monkeypatch, split_runs, dtype, c_in, c_out, dims, fit, blocks):
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", fit * 27 * c_in * dims[1] * dims[2] * itemsize)
    rng = np.random.default_rng(sum(dims) + c_in)
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = rng.standard_normal((c_out, 27 * c_in)).astype(dtype)
    r = rng.standard_normal((c_out,) + dims).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_op(ad.conv3, x, w, r))
    assert whole == one == two
    # a run makes two calls: the forward's, then the backward's, which pairs
    # its two branches in both split runs
    assert len(cuts) == 6 and cuts[1::2] == [0, 1, 1]


# (C_in, C_out, dims, planes a backward block holds at the patched budget,
# the blocks' planes): the last block shorter
BACKWARD_BLOCK_CASES = [
    (2, 3, (5, 8, 8), 2, [2, 2, 1]),  # a small GEMM, cut at 64-column multiples
    (1, 4, (12, 4, 4), 8, [8, 4]),  # 16-column planes: 8 and 4 make 128 and 64 columns
    (32, 16, (8, 8, 8), 3, [3, 3, 2]),  # every block above SMALL_GEMM_MACS
    # the weight gradient by groups of 1, 3 and 9 offsets (`_offset_group`)
    (64, 48, (8, 8, 8), 3, [3, 3, 2]),
    (128, 8, (8, 8, 8), 3, [3, 3, 2]),
    (64, 4, (8, 8, 8), 4, [4, 4]),
    # V4's concat convs: the weight gradient by groups of 4, 2, 4 and 2 offsets,
    # each ending on a shorter last group
    (16, 16, (16, 16, 16), 5, [5, 5, 5, 1]),
    (32, 16, (16, 16, 16), 5, [5, 5, 5, 1]),
    (48, 16, (16, 16, 16), 5, [5, 5, 5, 1]),
    (96, 32, (8, 8, 8), 3, [3, 3, 2]),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in,c_out,dims,planes,sizes", BACKWARD_BLOCK_CASES)
def test_blocked_conv3_backward_keeps_every_bit(monkeypatch, split_runs, dtype, c_in, c_out, dims,
                                                planes, sizes):
    # the input gradient's blocks, highest first, against whole columns (the
    # composed graph) and across worker counts
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 4 * planes * 27 * c_in * dims[1] * dims[2] * itemsize)
    blocks = ad._im2col_regions(dims, ad._block_planes(27 * c_in, dims, c_out * 27 * c_in, itemsize, 4))
    assert [z1 - z0 for z0, z1, _ in blocks] == sizes
    rng = np.random.default_rng(sum(dims) + c_in)
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = rng.standard_normal((c_out, 27 * c_in)).astype(dtype)
    r = rng.standard_normal((c_out,) + dims).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_op(ad.conv3, x, w, r))
    assert whole == one == two
    assert cuts[1::2] == [0, 1, 1]
    test_im2col_conv3_matches_composed_bitwise(dtype, c_in, c_out, dims)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims,cut", [((4, 6, 8), 128), ((4, 5, 5), 0)])  # 192 and 100 columns
def test_split_channels_linear_keeps_every_bit(split_runs, dtype, dims, cut):
    rng = np.random.default_rng(len(dims))
    x = rng.standard_normal((5,) + dims).astype(dtype)
    w = rng.standard_normal((3, 5)).astype(dtype)
    b = rng.standard_normal(3).astype(dtype)
    r = rng.standard_normal((3,) + dims).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_graph(ad.channels_linear, r, x, w, b))
    assert whole == one == two
    assert set(cuts) == {0, cut}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_gelu_keeps_every_bit(split_runs, dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((7, 3, 5)).astype(dtype)
    r = rng.standard_normal((7, 3, 5)).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_graph(ad.gelu, r, x))
    assert whole == one == two
    assert set(cuts) == {0, 4}  # whole at the defaults, then the leading axis cut at 4
    # the in-place pieces make the expressions' operations in their order
    cdf = 0.5 * (1.0 + erf(x * (1 / math.sqrt(2))))
    pdf = np.exp(-0.5 * x * x) * (1 / math.sqrt(2 * math.pi))
    assert whole == [(x * cdf).tobytes(), (r * (cdf + x * pdf)).tobytes()]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead,cut", [((5, 4), 3), ((256,), 128)], ids=["windows", "rows"])
def test_split_tokens_linear_keeps_every_bit(split_runs, dtype, lead, cut):
    # [nW, T, C] by windows; a 2-D input by output rows, each piece above
    # SMALL_GEMM_MACS (128 x 128 x 72)
    c_in, c_out = (6, 3) if len(lead) == 2 else (128, 72)
    rng = np.random.default_rng(len(lead))
    t = rng.standard_normal(lead + (c_in,)).astype(dtype)
    w = rng.standard_normal((c_out, c_in)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    r = rng.standard_normal(lead + (c_out,)).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_graph(ad.tokens_linear, r, t, w, b))
    assert whole == one == two
    assert set(cuts) == {0, cut}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
def test_split_window_attention_keeps_every_bit(split_runs, dtype, masked):
    rng = np.random.default_rng(int(masked))
    nw, heads, window, dh = 5, 2, 2, 3
    t = window**3
    raw = rng.standard_normal((3, nw, t, heads, dh)).astype(dtype)
    table = rng.standard_normal(((2 * window - 1) ** 3, heads)).astype(dtype)
    index = relative_position_index(window)
    mask = None
    if masked:
        mask = np.where(rng.random((nw, t, t)) < 0.4, MASK_VALUE, 0.0).astype(np.float32)
        mask[:, np.arange(t), np.arange(t)] = 0.0
    r = rng.standard_normal((nw, t, heads * dh)).astype(dtype)

    def run():
        weights = []

        def attend(q, k, v, table):  # permute views, as split_heads makes them
            out, attn = ad.window_attention(
                ad.permute(q, (0, 2, 1, 3)), ad.permute(k, (0, 2, 3, 1)),
                ad.permute(v, (0, 2, 1, 3)), table, index, mask)
            weights.append(attn)
            return out

        return run_graph(attend, r, *raw, table) + weights

    (whole, one, two), cuts = split_runs(run)
    assert whole == one == two
    assert cuts == [0, 0, 3, 3, 3, 3]  # each run's forward, then its backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axes,cut", [(0, 2), ((1, 2, 3), 3)], ids=["layer", "instance"])
@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "view"])
def test_split_normalize_axes_keeps_every_bit(split_runs, dtype, axes, cut, transposed):
    # layer norm cuts the first spatial axis (3), instance norm the channels (5)
    shape = (5, 3, 4, 6)
    rng = np.random.default_rng(int(transposed))
    x = rng.standard_normal(shape[::-1]).astype(dtype).T if transposed else (
        rng.standard_normal(shape).astype(dtype))
    gamma, beta = rng.standard_normal((2, 5)).astype(dtype)
    r = rng.standard_normal(shape).astype(dtype)
    norm = lambda x, gamma, beta: ad.normalize_axes(x, gamma, beta, axes)
    (whole, one, two), cuts = split_runs(lambda: run_graph(norm, r, x, gamma, beta))
    assert whole == one == two
    assert set(cuts) == {0, cut}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_leaky_relu_keeps_every_bit(split_runs, dtype):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((7, 3, 5)).astype(dtype)
    x[0, 0] = (0.0, -0.0, np.inf, -np.inf, np.finfo(dtype).smallest_subnormal)
    x[0, 1, 0] = -np.finfo(dtype).smallest_subnormal
    r = rng.standard_normal((7, 3, 5)).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_graph(ad.leaky_relu, r, x))
    assert whole == one == two
    assert set(cuts) == {0, 4}
    assert whole[0] == np.where(x > 0, x, ad.LRELU_SLOPE * x).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_backward_matches_the_where_chain_bitwise(dtype):
    # every pairing of an input and an incoming gradient from signed zeros,
    # infinities, NaN, subnormals, extremes and ordinary values
    tiny = np.finfo(dtype).smallest_subnormal
    big = np.finfo(dtype).max
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, big, -big, 1.5, -2.5, 1e-30],
                       dtype)
    x, g = (a.ravel() for a in np.meshgrid(special, special, indexing="ij"))
    t = Tensor(x.copy(), requires_grad=True)
    ad.leaky_relu(t)._backward(g)
    assert t.grad.dtype == dtype
    assert t.grad.tobytes() == np.where(x > 0, g, ad.LRELU_SLOPE * g).tobytes()


def test_row_cut_needs_columns_in_eights_and_pieces_above_small_gemms(monkeypatch):
    assert ad._row_cut(768, 8, 82944) == 384  # mrff4.to3.res.conv1 on the 2^3 grid
    assert ad._row_cut(384, 64, 41472) == 192
    assert ad._row_cut(768, 13, 82944) == 0
    assert ad._row_cut(3072, 8, 768) == 0  # pieces of 9.4M multiply-adds, below SPLIT_MACS
    assert ad._row_cut(96, 64, 4096) == 0  # no 64-aligned cut leaves two pieces
    monkeypatch.setattr(ad, "SPLIT_MACS", 1)
    assert ad._row_cut(3072, 8, 768) == 1536
    assert ad._row_cut(256, 13, 500) == 0
    assert ad._row_cut(256, 8, 500) == 0  # pieces of 0.5M multiply-adds: a small GEMM's path


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [(2, 2, 2), (4, 4, 4)])
def test_row_cut_conv3_keeps_every_bit(split_runs, dtype, dims):
    # one block of 8 or 64 columns under 128 output rows: pieces of 64 rows,
    # each more than SMALL_GEMM_MACS at the defaults of this test's patch
    c_in = 80
    rng = np.random.default_rng(sum(dims))
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = (rng.standard_normal((128, 27 * c_in)) / 50).astype(dtype)
    r = rng.standard_normal((128,) + dims).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_op(ad.conv3, x, w, r))
    assert whole == one == two
    assert cuts[2] == 64  # the forward of the first split run; each run makes 2 calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_cut_channels_linear_keeps_every_bit(split_runs, dtype):
    # 8 columns give no column cut; 128 rows cut at 64, pieces of 64 x 8 x 2100
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2100, 2, 2, 2)).astype(dtype)
    w = (rng.standard_normal((128, 2100)) / 40).astype(dtype)
    b = rng.standard_normal(128).astype(dtype)
    r = rng.standard_normal((128, 2, 2, 2)).astype(dtype)
    (whole, one, two), cuts = split_runs(lambda: run_graph(ad.channels_linear, r, x, w, b))
    assert whole == one == two
    assert cuts[2] == 64  # the forward of the first split run


def test_forward_blocks_deal_alternately_block_zero_first(monkeypatch):
    # seven one-plane blocks, an odd count like a paper tile's expand2: the
    # caller runs blocks 0, 2, 4 and 6, block 0 first in its zeroed buffer,
    # and the pool thread 1, 3 and 5
    c_in, dims = 2, (7, 8, 8)
    monkeypatch.setattr(ad, "SPLIT_MACS", 1)
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 2 * 27 * c_in * 64 * 4)
    assert ad._forward_blocks(27 * c_in, dims, 3 * 27 * c_in, 4) == (1, 2)
    blocks = [regions for _, _, regions in ad._im2col_regions(dims, 1)]
    pieces, im2col = [], ad._im2col

    def split(piece, n, cut):
        for lo, hi in ((0, cut), (cut, n)):
            pieces.append([])
            piece(lo, hi)

    def spy(x, regions, cols):
        pieces[-1].append(next(i for i, r in enumerate(blocks) if r is regions))
        return im2col(x, regions, cols)

    monkeypatch.setattr(ad, "_split", split)
    monkeypatch.setattr(ad, "_im2col", spy)
    rng = np.random.default_rng(4)
    ad.conv3(Tensor(rng.standard_normal((c_in,) + dims).astype(np.float32)),
             Tensor(rng.standard_normal((3, 27 * c_in)).astype(np.float32)))
    assert pieces == [[0, 2, 4, 6], [1, 3, 5]]


def test_forward_blocks_gate_the_blocks_the_pool_thread_gets(monkeypatch):
    # blocks of 2, 2 and 1 planes: the pool thread gets block 1's two planes,
    # and the blocks are dealt only where those reach SPLIT_MACS
    k, dims, per = 54, (5, 8, 8), 162
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 4 * k * 64 * 4)
    monkeypatch.setattr(ad, "SPLIT_MACS", 2 * 64 * per)
    assert ad._forward_blocks(k, dims, per, 4) == (2, 2)
    monkeypatch.setattr(ad, "SPLIT_MACS", 2 * 64 * per + 1)
    assert ad._forward_blocks(k, dims, per, 4) == (4, 1)  # one buffer's blocks, on the caller


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["conv3", "expand"])
def test_odd_block_count_keeps_every_bit(monkeypatch, split_runs, dtype, kind):
    # seven one-plane blocks dealt to two workers, and to one: the output and
    # both gradients are the whole run's bytes
    c_in, c_out, dims = 2, 3, (7, 8, 8)
    if kind == "conv3":  # the planner's rows: the columns', or the projection's
        k, w_shape, out = 27 * c_in, (c_out, 27 * c_in), (c_out,) + dims
    else:
        k, w_shape, out = 8 * c_out, (8 * c_out, c_in), (c_out,) + tuple(2 * s for s in dims)
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 2 * k * 64 * np.dtype(dtype).itemsize)
    rng = np.random.default_rng(5)
    x, w, r = (rng.standard_normal(s).astype(dtype) for s in ((c_in,) + dims, w_shape, out))
    (whole, one, two), cuts = split_runs(lambda: run_op(getattr(ad, kind), x, w, r))
    assert cuts[2] == 1  # the first split run's forward: dealt
    assert whole == one == two


def test_one_column_conv3_forward_stays_whole(monkeypatch):
    monkeypatch.setattr(ad, "SPLIT_MACS", 1)
    cuts, split = [], ad._split
    monkeypatch.setattr(ad, "_split", lambda piece, n, cut: cuts.append(cut) or split(piece, n, cut))
    rng = np.random.default_rng(6)
    # rows and multiply-adds enough for a row cut (128 x 1 x 8100 a piece),
    # but one column
    x = Tensor(rng.standard_normal((300, 1, 1, 1)).astype(np.float32))
    w = Tensor(rng.standard_normal((256, 27 * 300)).astype(np.float32))
    ad.conv3(x, w)
    assert cuts == [0]


def test_split_conv3_under_a_short_switch_interval(monkeypatch):
    # the interpreter switches threads as often as it can; a piece that wrote
    # into the other's column buffer or output slice would show in some run
    c_in, c_out, dims, fit, _ = BLOCK_CASES[0]
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", fit * 27 * c_in * dims[1] * dims[2] * 4)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((c_in,) + dims).astype(np.float32))
    w = Tensor(rng.standard_normal((c_out, 27 * c_in)).astype(np.float32))
    want = ad.conv3(x, w).data.tobytes()
    monkeypatch.setattr(ad, "SPLIT_MACS", 1)
    monkeypatch.setattr(ad, "WORKERS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [ad.conv3(x, w).data.tobytes() for _ in range(50)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 50


def test_split_forwards_under_a_short_switch_interval(monkeypatch):
    # as above, for the kernels whose forward splits by windows, by a
    # normalised-over axis, by leading-axis halves and by output rows
    rng = np.random.default_rng(1)
    leaf = lambda *shape: Tensor(rng.standard_normal(shape).astype(np.float32))
    q, kt, v, table = leaf(6, 2, 8, 3), leaf(6, 2, 3, 8), leaf(6, 2, 8, 3), leaf(27, 2)
    x, gamma, beta = leaf(5, 4, 6, 2), leaf(5), leaf(5)
    t, w, b = leaf(6, 8, 3), leaf(4, 3), leaf(4)
    cx, cw = leaf(80, 2, 2, 2), leaf(128, 27 * 80)
    kernels = [
        lambda: ad.window_attention(q, kt, v, table, relative_position_index(2))[0],
        lambda: ad.normalize_axes(x, gamma, beta, 0),
        lambda: ad.normalize_axes(x, gamma, beta, (1, 2, 3)),
        lambda: ad.tokens_linear(t, w, b),
        lambda: ad.leaky_relu(x),
        lambda: ad.permute(x, (1, 2, 3, 0), merge=(48, 5)),
        lambda: ad.conv3(cx, cw),
    ]
    want = [k().data.tobytes() for k in kernels]
    monkeypatch.setattr(ad, "SPLIT_MACS", 1)
    monkeypatch.setattr(ad, "SPLIT_ELEMS", 1)
    monkeypatch.setattr(ad, "WORKERS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [[k().data.tobytes() for k in kernels] for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 20


def test_split_backwards_under_a_short_switch_interval(monkeypatch):
    # as above, for the backwards that split: conv3's two branches (the
    # input gradient's blocks on the pool thread) and window_attention's
    # halves of the windows
    c_in, c_out, dims, planes, _ = BACKWARD_BLOCK_CASES[0]
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 4 * planes * 27 * c_in * dims[1] * dims[2] * 4)
    rng = np.random.default_rng(2)
    draw = lambda *shape: rng.standard_normal(shape).astype(np.float32)
    x, w, r = draw(c_in, *dims), draw(c_out, 27 * c_in), draw(c_out, *dims)
    q, kt, v, table, ra = draw(6, 2, 8, 3), draw(6, 2, 3, 8), draw(6, 2, 8, 3), draw(27, 2), draw(6, 8, 6)
    attend = lambda *a: ad.window_attention(*a, relative_position_index(2))[0]

    def run():
        return [a.tobytes() for a in run_op(ad.conv3, x, w, r) + tuple(run_graph(attend, ra, q, kt, v, table))]

    want = run()
    monkeypatch.setattr(ad, "SPLIT_ELEMS", 1)
    monkeypatch.setattr(ad, "WORKERS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [run() for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 20


def test_split_waits_for_both_pieces_and_raises_the_workers_error(monkeypatch):
    monkeypatch.setattr(ad, "WORKERS", 2)
    done = []

    def piece(lo, hi, fails):
        if lo == fails:
            raise RuntimeError(f"piece {lo}:{hi}")
        time.sleep(0.05)
        done.append((lo, hi))

    with pytest.raises(RuntimeError, match="piece 3:5"):  # the worker's piece raises at once
        ad._split(lambda lo, hi: piece(lo, hi, 3), 5, 3)
    assert done == [(0, 3)]  # after the caller's piece finished
    done.clear()
    with pytest.raises(RuntimeError, match="piece 0:3"):  # the caller's piece raises at once
        ad._split(lambda lo, hi: piece(lo, hi, 0), 5, 3)
    assert done == [(3, 5)]  # after the worker's piece finished


def test_importing_the_engine_pins_one_blas_thread():
    # a shell's OPENBLAS_NUM_THREADS does not reach the engine's GEMMs
    if ad.blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    src = str(Path(ad.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    child = subprocess.run([sys.executable, "-c", "import hrstnet.autodiff as ad; print(ad.blas_threads())"],
                           env=env, capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (0, "1\n"), child.stderr


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
    return add(broadcast_matmul(t, ad.permute(weight, (1, 0))), bias)


def composed_channels_linear(x, weight, bias=None):
    c_in, spatial = x.shape[0], x.shape[1:]
    y = broadcast_matmul(weight, ad.reshape(x, (c_in, int(np.prod(spatial)))))
    if bias is not None:
        y = add(y, ad.reshape(bias, (weight.shape[0], 1)))
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
@pytest.mark.parametrize("shape,axes,split,merge", [p for p in PERMUTES if p[3]])
def test_split_permute_copy_keeps_every_bit(split_runs, dtype, shape, axes, split, merge):
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape).astype(dtype)
    ref = x.reshape(split or shape).transpose(axes).reshape(merge)
    r = rng.standard_normal(merge).astype(dtype)
    op = lambda a: ad.permute(a, axes, split=split, merge=merge)
    (whole, one, two), cuts = split_runs(lambda: run_graph(op, r, x))
    assert whole == one == two and whole[0] == ref.tobytes()
    # a merge that copies is cut in both split runs where its leading axis
    # can be halved; one numpy can make as a view stays a view, unsplit
    lead = x.reshape(split or shape).transpose(axes).shape[0]
    assert cuts == ([] if np.shares_memory(ref, x) or lead == 1 else [(lead + 1) // 2] * 2)


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


def composed_expand(x, weight):
    """Reference patch expanding: the linear map, then depth to space as a
    permute whose merge copies."""
    c2, (d, h, w) = weight.shape[0] // 8, x.shape[1:]
    y = ad.channels_linear(x, weight)
    return ad.permute(y, (3, 4, 0, 5, 1, 6, 2), split=(2, 2, 2, c2, d, h, w),
                      merge=(c2, 2 * d, 2 * h, 2 * w))


def incoming(rng, shape, layout, dtype):
    """The r of sum(out * r): C-ordered or transposed (Fortran-ordered). The
    gradient that reaches out's backward rule is r either way, copied by
    `_accum` into out's layout where it has another."""
    if layout == "transposed":
        return rng.standard_normal(shape[::-1]).astype(dtype).T
    return rng.standard_normal(shape).astype(dtype)


LAYOUTS = ["contiguous", "transposed"]
EXPAND_CASES = [  # (C_in, C_out, dims, planes a one-buffer block holds, the split runs' forward cut)
    (4, 3, (4, 8, 8), 2, 1),  # four one-plane blocks dealt alternately, two a worker
    (4, 3, (5, 8, 8), 4, 1),  # two-plane blocks and a one-plane last one: 0 and 2, then 1
    (3, 2, (3, 5, 2), 1, 0),  # 10-column planes: one whole-grid block on the caller
    (2100, 16, (2, 2, 2), 1, 64),  # one block, its GEMM by 64-row halves
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("c_in,c_out,dims,fit,cut", EXPAND_CASES)
def test_expand_matches_composed_bitwise(monkeypatch, split_runs, dtype, layout, c_in, c_out, dims,
                                         fit, cut):
    # output and both gradients equal the composed graph's at WORKERS 1 and 2
    itemsize = np.dtype(dtype).itemsize
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", fit * 8 * c_out * dims[1] * dims[2] * itemsize)
    rng = np.random.default_rng(c_in + sum(dims))
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = (rng.standard_normal((8 * c_out, c_in)) / math.sqrt(c_in)).astype(dtype)
    r = incoming(rng, (c_out,) + tuple(2 * s for s in dims), layout, dtype)
    (whole, one, two), cuts = split_runs(lambda: run_graph(ad.expand, r, x, w))
    assert cuts[2] == cut  # the first split run's first call: a whole run makes two
    assert whole == one == two == [a.tobytes() for a in run_graph(composed_expand, r, x, w)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("c_in,dims,cut", [(5, (4, 6, 8), 128), (2100, (2, 2, 2), 64)],
                         ids=["columns", "rows"])
def test_channels_linear_residual_matches_composed_bitwise(split_runs, dtype, layout, with_bias,
                                                           c_in, dims, cut):
    # residual + (W x + b) as one node against add(residual, channels_linear):
    # the output and every gradient, residual's included, at WORKERS 1 and 2
    rng = np.random.default_rng(c_in + len(layout))
    x = rng.standard_normal((c_in,) + dims).astype(dtype)
    w = (rng.standard_normal((128, c_in)) / math.sqrt(c_in)).astype(dtype)
    b = rng.standard_normal(128).astype(dtype) if with_bias else None
    res = rng.standard_normal((128,) + dims).astype(dtype)
    r = incoming(rng, (128,) + dims, layout, dtype)
    fused = lambda x, w, b, res: ad.channels_linear(x, w, b, residual=res)
    composed = lambda x, w, b, res: add(res, ad.channels_linear(x, w, b))
    (whole, one, two), cuts = split_runs(lambda: run_graph(fused, r, x, w, b, res))
    assert cuts[2] == cut  # the first split run's forward: a whole run makes two calls
    assert whole == one == two == [a.tobytes() for a in run_graph(composed, r, x, w, b, res)]


@pytest.mark.parametrize("kind", ["expand", "residual"])
def test_expand_and_residual_nodes_keep_no_linear_output(kind):
    # the tape holds the inputs, the weights and the node's output, not the
    # full-size output of the linear map inside it
    rng = np.random.default_rng(9)
    leaf = lambda *shape: Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    x, w = leaf(4, 2, 3, 4), leaf(16, 4)
    inputs = [x, w]
    if kind == "expand":
        out = expand_graph(x, w)
    else:
        inputs += [leaf(16), leaf(16, 2, 3, 4)]
        out = ad.channels_linear(*inputs[:3], residual=inputs[3])
    owners = [t.data for t in inputs] + [out.data]
    assert all(any(np.shares_memory(a, o) for o in owners) for a in held_arrays(out))


def test_expand_forward_transient_stays_within_the_block_budget(monkeypatch):
    # a whole [8*C_out, d*h*w] GEMM output is the size of the expanded grid;
    # forward holds one block of it, then frees it
    monkeypatch.setattr(ad, "CONV_BLOCK_BYTES", 1 << 18)
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((16, 16, 16, 16)).astype(np.float32))
    w = Tensor(rng.standard_normal((128, 16)).astype(np.float32))
    out_bytes = 16 * 32**3 * 4
    tracemalloc.start()
    try:
        ad.expand(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out_bytes + ad.CONV_BLOCK_BYTES <= peak < out_bytes + ad.CONV_BLOCK_BYTES + (1 << 16)


# ------------------------------------- the Swin window round trip, two nodes

WINDOW_GRIDS = [  # (C, dims, window, shifts)
    (4, (4, 4, 6), 2, (0, 0, 0)),  # window multiples
    (4, (3, 5, 4), 2, (0, 0, 0)),  # padded
    (4, (4, 6, 4), 2, (1, 1, 1)),  # shifted
    (3, (4, 5, 6), 3, (1, 2, 1)),  # padded and shifted
    (5, (2, 2, 2), 2, (0, 0, 0)),  # one window, whose permutes numpy makes as views
]
X_LAYOUTS = {"c-order": (0, 1, 2, 3), "channels-last": (3, 0, 1, 2)}  # the embed gives the latter


def grid_leaf(rng, c, dims, x_layout, dtype):
    """A leaf and the [C, *dims] permute of it that a graph reads as x: a
    C-ordered grid, or a channels-last view like the embed's output."""
    axes = X_LAYOUTS[x_layout]
    shape = (c,) + dims
    return rng.standard_normal(tuple(shape[i] for i in np.argsort(axes))).astype(dtype), axes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("x_layout", X_LAYOUTS)
@pytest.mark.parametrize("c,dims,window,shifts", WINDOW_GRIDS)
def test_norm_windows_matches_norm_and_partition_bitwise(split_runs, dtype, layout, x_layout, c,
                                                         dims, window, shifts):
    # windows and every gradient, x's included, equal those of the layer norm
    # node followed by partition_graph's nodes, at WORKERS 1 and 2
    rng = np.random.default_rng(c + sum(dims) + len(x_layout))
    x, axes = grid_leaf(rng, c, dims, x_layout, dtype)
    gamma, beta = rng.standard_normal((2, c)).astype(dtype)
    win = window_layout((c,) + dims, window, shifts)
    r = incoming(rng, win.cut[2], layout, dtype)
    fused = lambda x, gamma, beta: ad.norm_windows(ad.permute(x, axes), gamma, beta, win)
    composed = lambda x, gamma, beta: partition_graph(
        ad.normalize_axes(ad.permute(x, axes), gamma, beta, 0), window, shifts)[0]
    (whole, one, two), _ = split_runs(lambda: run_graph(fused, r, x, gamma, beta))
    assert whole == one == two == [a.tobytes() for a in run_graph(composed, r, x, gamma, beta)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("x_layout", X_LAYOUTS)
@pytest.mark.parametrize("c,dims,window,shifts", WINDOW_GRIDS)
def test_window_residual_matches_projection_reverse_and_add_bitwise(
        split_runs, dtype, layout, x_layout, c, dims, window, shifts):
    # the sum and every gradient equal those of the wo projection, then
    # reverse_graph's nodes and the residual add, at WORKERS 1 and 2
    rng = np.random.default_rng(c + sum(dims) + len(layout))
    x, axes = grid_leaf(rng, c, dims, x_layout, dtype)
    win = window_layout((c,) + dims, window, shifts)
    t = rng.standard_normal(win.cut[2]).astype(dtype)
    w = (rng.standard_normal((c, c)) / math.sqrt(c)).astype(dtype)
    b = rng.standard_normal(c).astype(dtype)
    r = incoming(rng, (c,) + dims, layout, dtype)
    fused = lambda x, t, w, b: ad.window_residual(ad.permute(x, axes), t, w, b, win)
    composed = lambda x, t, w, b: add(ad.permute(x, axes), reverse_graph(
        ad.tokens_linear(t, w, b), window, win.padded, dims, shifts))
    (whole, one, two), _ = split_runs(lambda: run_graph(fused, r, x, t, w, b))
    assert whole == one == two == [a.tobytes() for a in run_graph(composed, r, x, t, w, b)]


def composed_swin_layer(x, pt, prefix, heads, window, shifts):
    """A Swin layer of a node per step: the norm, partition_graph,
    attention_graph, the wo projection, reverse_graph and the residual add."""
    p = lambda s: pt[f"{prefix}.{s}"]
    h = ad.normalize_axes(x, p("ln1.gamma"), p("ln1.beta"), 0)
    wins, padded = partition_graph(h, window, shifts)
    mask = compute_attn_mask(padded, window, shifts) if any(shifts) else None
    out = attention_graph(wins, pt, f"{prefix}.attn", heads, window, mask)[0]
    out = ad.tokens_linear(out, p("attn.wo"), p("attn.bo"))
    x = add(x, reverse_graph(out, window, padded, x.shape[1:], shifts))
    h = ad.normalize_axes(x, p("ln2.gamma"), p("ln2.beta"), 0)
    h = ad.gelu(ad.channels_linear(h, p("mlp.w1"), p("mlp.b1")))
    return ad.channels_linear(h, p("mlp.w2"), p("mlp.b2"), x)


def swin_layer_run(layer, c, dims, window, shifts, x_layout, dtype, seed):
    """Output and every gradient of sum(layer(x) * r) for one layer of c
    channels on a [c, *dims] grid read through a permute as in the network."""
    rng = np.random.default_rng(seed)
    heads = 3 if c % 3 == 0 else 1
    specs = list(_block_schema("layer", c, heads, window))
    draws = [rng.standard_normal(s.shape).astype(dtype) / math.sqrt(s.shape[-1]) for s in specs]
    x, axes = grid_leaf(rng, c, dims, x_layout, dtype)
    r = rng.standard_normal((c,) + dims).astype(dtype)

    def op(x, *params):
        pt = dict(zip((s.name for s in specs), params))
        return layer(ad.permute(x, axes), pt, "layer", heads, window, shifts)

    return [a.tobytes() for a in run_graph(op, r, x, *draws)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_layout", X_LAYOUTS)
@pytest.mark.parametrize("c,dims,window,shifts", WINDOW_GRIDS[1:4])
def test_swin_layer_matches_composed_layer_bitwise(dtype, x_layout, c, dims, window, shifts):
    # x is read by the norm twice and by the residual sum: the gradients of
    # the three reach it in the composed graph's order
    run = lambda layer: swin_layer_run(layer, c, dims, window, shifts, x_layout, dtype, c + sum(dims))
    assert run(swin_layer_graph) == run(composed_swin_layer)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_swin_layer_above_split_elems_keeps_every_bit(monkeypatch, dtype):
    # 96 channels on a 15^3 grid padded to 16^3 with window 4: the windows,
    # the norm, the projections and the attention all split at the default
    # thresholds; one and two workers give the composed layer's bytes
    c, dims, window, shifts = 96, (15, 15, 15), 4, (2, 2, 2)
    assert c * 16**3 > ad.SPLIT_ELEMS
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(ad, "WORKERS", workers)
        runs.append(swin_layer_run(swin_layer_graph, c, dims, window, shifts, "c-order", dtype, 3))
    want = swin_layer_run(composed_swin_layer, c, dims, window, shifts, "c-order", dtype, 3)
    assert runs == [want, want]


def held_arrays(out: Tensor) -> list:
    """Every array the tape from `out` holds: each node's output and every
    array its backward closure, or a function in that closure, closes over."""
    held, fns, seen = [], [], set()
    for node in reachable(out):
        held.append(node.data)
        if node._backward is not None:
            fns.append(node._backward)
    while fns:
        fn = fns.pop()
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for cell in fn.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                held.append(value)
            elif callable(value) and hasattr(value, "__closure__"):
                fns.append(value)
    return held


@pytest.mark.parametrize("kind", ["norm_windows", "window_residual"])
def test_window_round_trip_nodes_keep_no_unread_output(kind):
    # on a padded, shifted grid: norm_windows holds its windows and the
    # norm's statistics ([1, *dims]), not the norm's output or the padded or
    # rolled grid; window_residual holds its sum, not the projection or the
    # grid put back from it
    rng = np.random.default_rng(10)
    leaf = lambda *shape: Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    c, dims = 4, (3, 5, 6)
    win = window_layout((c,) + dims, 2, (1, 1, 1))
    x = leaf(c, *dims)
    if kind == "norm_windows":
        inputs = [x, leaf(c), leaf(c)]
        out = ad.norm_windows(*inputs, win)
    else:
        inputs = [x, leaf(*win.cut[2]), leaf(c, c), leaf(c)]
        out = ad.window_residual(*inputs, win)
    owners = [t.data for t in inputs] + [out.data]
    stats = [a for a in held_arrays(out) if not any(np.shares_memory(a, o) for o in owners)]
    assert [a.shape for a in stats] == ([(1,) + dims] * 3 if kind == "norm_windows" else [])


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
    xc = add(x, ad.mul(mu, -1.0))
    var = mean_(ad.mul(xc, xc), axis=axes, keepdims=True)
    inv = pow_const(add(var, ad.NORM_EPS), -0.5)
    return add(ad.mul(ad.mul(xc, inv), ad.reshape(gamma, shape)), ad.reshape(beta, shape))


def composed_window_attention(q, kt, v, table, index, mask=None):
    nw, heads, t, dh = q.shape
    logits = ad.mul(matmul(q, kt), 1.0 / math.sqrt(dh))
    bias = take(table, index.reshape(-1))  # [T*T, heads]
    bias = ad.permute(bias, (2, 0, 1), split=(t, t, heads), merge=(1, heads, t, t))
    logits = add(logits, bias)
    if mask is not None:
        logits = add(logits, Tensor(mask[:, None, :, :].astype(q.dtype, copy=False)))
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
        add(ad.mul(inter, 2.0), training.DICE_EPS),
        pow_const(add(add(psum, gsum), training.DICE_EPS), -1.0),
    )
    dice = add(ad.mul(mean_(per_class), -1.0), 1.0)
    ls = log_softmax(logits, axis=0)
    ce = ad.mul(ad.sum_(ad.mul(ls, g)), -1.0 / onehot[0].size)
    return add(dice, ce), dice, ce


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
            return add(h, out) if shared else out
        return run

    assert_same_bytes(
        run_graph(op(ad.normalize_axes), r, x, gamma, beta),
        run_graph(op(composed_normalize_axes), r, x, gamma, beta),
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axes", [0, (1, 2, 3)], ids=["layer", "instance"])
@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "view"])
def test_normalize_axes_matches_composed_bitwise_under_a_permuted_gradient(dtype, axes, transposed):
    # the gradient reaches the norm as a transposed view, as through a permute
    # in a Swin layer: the products its backward rebuilds and reduces keep
    # the layout of the chain's
    rng = np.random.default_rng(7 + int(transposed))
    shape = (5, 3, 4, 6)
    x = rng.standard_normal(shape[::-1]).astype(dtype).T if transposed else (
        rng.standard_normal(shape).astype(dtype))
    gamma, beta = rng.standard_normal((2, 5)).astype(dtype)
    r = rng.standard_normal((6, 3, 4, 5)).astype(dtype)

    def op(norm):
        return lambda x, gamma, beta: ad.permute(norm(ad.mul(x, 1.5), gamma, beta, axes), (3, 1, 2, 0))

    assert_same_bytes(
        run_graph(op(ad.normalize_axes), r, x, gamma, beta),
        run_graph(op(composed_normalize_axes), r, x, gamma, beta),
    )


@pytest.mark.parametrize("axes", [0, (1, 2, 3)], ids=["layer", "instance"])
def test_norm_and_leaky_relu_nodes_keep_only_output_and_statistics(axes):
    # after its forward, a norm node holds its output and x's mean, ve and
    # inv, not x - mean or the normalised x; a leaky ReLU node holds its
    # output and no sign mask (a quarter of a float32 output)
    rng = np.random.default_rng(8)
    shape = (32, 8, 16, 16)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    gamma, beta = (Tensor(rng.standard_normal(32).astype(np.float32), requires_grad=True) for _ in "gb")
    stats = 3 * 4 * math.prod(1 if i in np.atleast_1d(axes) else s for i, s in enumerate(shape))
    slack = 16 << 10  # the nodes, closures and views
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        norm = ad.normalize_axes(x, gamma, beta, axes)
        kept_norm = tracemalloc.get_traced_memory()[0] - start
        act = ad.leaky_relu(norm)
        kept_act = tracemalloc.get_traced_memory()[0] - start - kept_norm
    finally:
        tracemalloc.stop()
    assert norm.data.nbytes + stats <= kept_norm < norm.data.nbytes + stats + slack
    assert act.data.nbytes <= kept_act < act.data.nbytes + slack


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
    first = ad.sum_(add(shared, b))
    second = ad.sum_(ad.mul(add(shared, 1.0), b))
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
    ad.sum_(add(a, b)).backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 3.0
    assert np.array_equal(b.grad, np.ones(5, np.float32))
    assert np.array_equal(a.grad, np.full(5, 4.0, np.float32))


def test_self_add_accumulates_twice():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = add(x, x)
    r = np.arange(1.0, 7.0).reshape(2, 3)
    ad.sum_(ad.mul(y, Tensor(r))).backward()
    assert np.array_equal(x.grad, 2.0 * r)


def test_slice_backward_scatters_into_accumulator():
    x = Tensor(np.zeros((2, 4)), requires_grad=True)
    left = slice_(x, (slice(None), slice(0, 3)))
    right = slice_(x, (slice(None), slice(1, 4)))
    ad.sum_(add(left, ad.mul(right, 2.0))).backward()
    assert np.array_equal(x.grad, np.array([[1.0, 3.0, 3.0, 2.0]] * 2))


def test_sliced_leaf_gradient_lands_in_its_grad_into():
    # slice_ passes its gradient through _accum, so a sliced parameter's
    # gradient is its view of the flat array, as training.backward expects
    x = Tensor(np.zeros((2, 4)), requires_grad=True)
    x.grad_into = np.full((2, 4), np.nan)
    left = slice_(x, (slice(None), slice(0, 3)))
    right = slice_(x, (slice(None), slice(1, 4)))
    ad.sum_(add(left, ad.mul(right, 2.0))).backward()
    assert x.grad is x.grad_into
    assert np.array_equal(x.grad, np.array([[1.0, 3.0, 3.0, 2.0]] * 2))


# ------------------------------------------------------ sole-consumer hand-off


def copy_always_accum(t: Tensor, g: np.ndarray) -> None:
    """Reference accumulation: every first write is an owned copy, into the
    leaf's `grad_into` where it has one."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data) if t.grad_into is None else t.grad_into
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
    backward = training.backward
    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "backward", lambda *a: captured.append(backward(*a)) or captured[-1])
        finite_difference_check(cfg, num_samples=1)
    return [], captured[0][0]


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
    ad.sum_(ad.mul(add(a, b), Tensor(r))).backward()
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
    doubled = add(y, y)
    top = add(doubled, q) if doubled_first else add(q, doubled)
    r = rng.standard_normal(4)
    ad.sum_(ad.mul(top, Tensor(r))).backward()
    assert kind_of(accum_log, y) == ["copy"]
    assert np.array_equal(x.grad, 2.0 * (r + r))
    assert np.array_equal(u.grad, 3.0 * r)


def test_read_only_broadcast_view_handed_to_slice(accum_log):
    # a column view: its size-1 axis has stride 0, as in a broadcast view
    x = Tensor(np.arange(6.0)[:, None], requires_grad=True)
    part = slice_(x, (slice(0, 3), slice(None)))
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
    assert Counter(k for _, k in accum_log) == {"handoff": 65, "copy": 48, "leaf": 136}


def test_tape_census_on_tiny_training_graph():
    # one node per layout change, per linear map and per network primitive:
    # 18 norms, 6 attention cores, 4 patch expandings and the loss; the skip
    # and MLP projections are summed into their residual in their own node;
    # each Swin layer's ln1 runs with its partition (norm_windows), and its
    # wo projection with the reverse and the residual sum (window_residual).
    # The other norms and token projections are `normalize_axes` and
    # `tokens_linear` nodes, whose backward rules `_normalize` and
    # `_tokens_linear` make
    total, _ = tiny_loss((32, 32, 32))
    ops = Counter(
        node._backward.__qualname__.split(".")[0]
        for node in reachable(total) if node._backward is not None
    )
    assert ops == {
        "_normalize": 12, "_tokens_linear": 19, "channels_linear": 18, "combined_loss_graph": 1,
        "concat": 3, "conv3": 6, "expand": 4, "gelu": 6, "leaky_relu": 6, "norm_windows": 6,
        "permute": 21, "window_attention": 6, "window_residual": 6,
    }
    assert sum(ops.values()) == 114


def test_tape_census_on_padded_shifted_graph():
    # window 3 pads both streams (4^3 -> 6^3, 2^3 -> 3^3) and the shifted
    # layers roll: the pads, rolls and crops run inside each Swin layer's
    # norm_windows and window_residual, so the census is the unpadded one
    total, _ = tiny_loss((16, 16, 16), dataclasses.replace(TINY, window=3))
    ops = Counter(
        node._backward.__qualname__.split(".")[0]
        for node in reachable(total) if node._backward is not None
    )
    assert ops == {
        "_normalize": 12, "_tokens_linear": 19, "channels_linear": 18, "combined_loss_graph": 1,
        "concat": 3, "conv3": 6, "expand": 4, "gelu": 6, "leaky_relu": 6, "norm_windows": 6,
        "permute": 21, "window_attention": 6, "window_residual": 6,
    }
    assert sum(ops.values()) == 114
