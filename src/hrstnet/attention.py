"""Windowed multi-head self-attention with 3D relative position bias.

Covers the per-window attention kernel, shifted-window masking, layer
normalization, the MLP and the two-layer block (plain window
attention followed by shifted window attention, both with pre-norm
residuals).

Masked logits use -1e4 instead of -inf; in float32 the softmax weight of a
masked pair underflows to exactly 0.0, which the isolation tests rely on.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .windowing import padded_extent, partition_graph, reverse_graph, shift_graph

MASK_VALUE = -1e4
LN_EPS = 1e-5


@lru_cache(maxsize=None)
def relative_position_index(window: int) -> np.ndarray:
    """[w^3, w^3] table mapping token pairs to relative-offset codes.

    Entry (i, j) encodes the 3D offset between tokens i and j, shifted into
    [0, (2w-1)^3). Tokens are in lexicographic (d, h, w) order.
    """
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    r = np.arange(window)
    coords = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    rel = coords[:, None, :] - coords[None, :, :] + (window - 1)
    span = 2 * window - 1
    return (rel[..., 0] * span * span + rel[..., 1] * span + rel[..., 2]).astype(np.int64)


def _axis_regions(extent: int, window: int, shift: int) -> np.ndarray:
    """Shifted-window region labels along one padded axis."""
    ids = np.zeros(extent, dtype=np.int64)
    if shift > 0:
        ids[extent - window :] = 1
        ids[extent - shift :] = 2
    return ids


def shift_region_ids(
    dims: tuple[int, int, int], window: int, shifts: tuple[int, int, int],
    frame: str = "original",
) -> np.ndarray:
    """Region-id grid on the window-padded dims, for mask construction/tests.

    Tokens sharing an id may attend after the cyclic shift; ids are given in
    the `original` (pre-shift) frame by default, or `shifted`.
    """
    padded = [padded_extent(d, window) for d in dims]
    axes = [_axis_regions(p, window, s) for p, s in zip(padded, shifts)]
    grid = (
        axes[0][:, None, None] * 9 + axes[1][None, :, None] * 3 + axes[2][None, None, :]
    )
    if frame == "shifted":
        return grid
    return np.roll(grid, tuple(int(s) for s in shifts), (0, 1, 2))


def compute_attn_mask(
    dims: tuple[int, int, int], window: int, shifts: tuple[int, int, int]
) -> np.ndarray:
    """Additive attention masks [num_windows, w^3, w^3] of {0, MASK_VALUE}.

    Tokens wrapped across the volume boundary by the cyclic shift cannot
    attend to non-wrapped tokens. Depends only on (dims, window, shifts);
    dims are padded up to window multiples internally.
    """
    for s in shifts:
        if not 0 <= s < window:
            raise ConfigError(f"shift {shifts} must lie in [0, window={window})")
    ids = shift_region_ids(dims, window, shifts, frame="shifted")
    wins, _ = partition_graph(Tensor(ids[None].astype(np.float32)), window)
    labels = wins.data[:, :, 0]
    mask = np.where(labels[:, :, None] != labels[:, None, :], MASK_VALUE, 0.0)
    return mask.astype(np.float32)


class AttnTensors(NamedTuple):
    """One window-attention layer: QKV + output projections, bias table [(2w-1)^3, heads]."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    table: Tensor
    heads: int
    window: int


class BlockTensors(NamedTuple):
    """One pre-norm layer: attention and MLP, each behind a layer norm."""

    ln1_g: Tensor
    ln1_b: Tensor
    attn: AttnTensors
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


# ------------------------------------------------------------------- graphs


def attention_graph(
    tokens: Tensor,
    at: AttnTensors,
    mask: np.ndarray | None = None,
    debug: bool = False,
) -> tuple[Tensor, np.ndarray | None]:
    """softmax(QK^T/sqrt(d) + B + mask) V per window and head.

    tokens: [nW, T, C]. Returns (output [nW, T, C], attention weights
    [nW, heads, T, T] when debug).
    """
    nw, t, c = tokens.shape
    if c != at.wq.shape[1]:
        raise ShapeError(f"token channels {c} != projection input {at.wq.shape[1]}")
    heads = at.heads
    dh = c // heads

    def split_heads(x):
        return ad.transpose(ad.reshape(x, (nw, t, heads, dh)), (0, 2, 1, 3))

    q = split_heads(ad.tokens_linear(tokens, at.wq, at.bq))
    k = split_heads(ad.tokens_linear(tokens, at.wk, at.bk))
    v = split_heads(ad.tokens_linear(tokens, at.wv, at.bv))

    logits = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    idx = relative_position_index(at.window)
    if t != idx.shape[0]:
        raise ShapeError(f"window holds {t} tokens but window size implies {idx.shape[0]}")
    bias = ad.take(at.table, idx.reshape(-1))  # [T*T, heads]
    bias = ad.reshape(ad.transpose(ad.reshape(bias, (t, t, heads)), (2, 0, 1)), (1, heads, t, t))
    logits = ad.add(logits, bias)
    if mask is not None:
        if mask.shape != (nw, t, t):
            raise ShapeError(f"mask shape {mask.shape} != {(nw, t, t)}")
        logits = ad.add(logits, Tensor(mask[:, None, :, :].astype(tokens.dtype)))
    attn = ad.softmax(logits, axis=-1)
    out = ad.matmul(attn, v)  # [nW, heads, T, dh]
    out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (nw, t, c))
    out = ad.tokens_linear(out, at.wo, at.bo)
    return out, (np.array(attn.data, copy=True) if debug else None)


def layer_norm_graph(x: Tensor, gamma: Tensor, beta: Tensor, axis: int) -> Tensor:
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    return ad.normalize_axes(
        x, ad.reshape(gamma, shape), ad.reshape(beta, shape), axes=axis, eps=LN_EPS
    )


def _mlp_channels(x: Tensor, w1, b1, w2, b2) -> Tensor:
    """Linear -> GELU -> linear over the leading channel axis of [C, *spatial]."""
    h = ad.gelu(ad.channels_linear(x, w1, b1))
    return ad.channels_linear(h, w2, b2)


def swin_layer_graph(
    x: Tensor, bt: BlockTensors, window: int, shifts: tuple[int, int, int]
) -> Tensor:
    """One pre-norm layer on a [C, d, h, w] grid; shifts=(0,0,0) gives W-MSA.

    The grid is padded to window multiples before the cyclic shift so the
    standard shifted-window mask construction is exact on the padded grid.
    """
    dims = x.shape[1:]
    shifted = any(s != 0 for s in shifts)
    h1 = layer_norm_graph(x, bt.ln1_g, bt.ln1_b, axis=0)

    if shifted:
        padded = tuple(padded_extent(d, window) for d in dims)
        if padded != tuple(dims):
            h1 = ad.pad(h1, ((0, 0),) + tuple((0, p - d) for p, d in zip(padded, dims)))
        h1 = shift_graph(h1, tuple(-s for s in shifts))
        mask = compute_attn_mask(padded, window, shifts)
        wins, pdims = partition_graph(h1, window)
        out, _ = attention_graph(wins, bt.attn, mask)
        g = reverse_graph(out, window, pdims, padded)
        g = shift_graph(g, shifts)
        if padded != tuple(dims):
            g = ad.slice_(g, (slice(None),) + tuple(slice(0, d) for d in dims))
    else:
        wins, pdims = partition_graph(h1, window)
        out, _ = attention_graph(wins, bt.attn, None)
        g = reverse_graph(out, window, pdims, dims)

    x = ad.add(x, g)
    h2 = layer_norm_graph(x, bt.ln2_g, bt.ln2_b, axis=0)
    return ad.add(x, _mlp_channels(h2, bt.w1, bt.b1, bt.w2, bt.b2))


def swin_pair_graph(
    x: Tensor, bt0: BlockTensors, bt1: BlockTensors, window: int,
    shifts: tuple[int, int, int],
) -> Tensor:
    """The two-layer block: plain window attention, then shifted."""
    x = swin_layer_graph(x, bt0, window, (0, 0, 0))
    return swin_layer_graph(x, bt1, window, shifts)
