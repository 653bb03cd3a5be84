"""Windowed multi-head self-attention with 3D relative position bias.

Covers the per-window attention kernel, shifted-window masking, the MLP
and the two-layer block (plain window attention followed by shifted window
attention, both with pre-norm residuals). A layer's first norm runs with its
window partition (`windowing.Windows.split`) as one node (`ad.norm_windows`),
and its attention's wo projection with the window reverse (`Windows.join`)
and the residual sum as another (`ad.window_residual`); the second norm is
`ad.normalize_axes`. The shifted-window masks cut their region labels with
the same `Windows.split`.
Weights are read by name from the flat parameter map, under the prefix the
caller passes, as every other graph function in the network does.

Masked logits use -1e4 instead of -inf; in float32 the softmax weight of a
masked pair underflows to exactly 0.0, which the isolation tests rely on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .windowing import padded_extent, window_layout

MASK_VALUE = -1e4


@lru_cache(maxsize=None)
def relative_position_index(window: int) -> np.ndarray:
    """[w^3, w^3] table mapping token pairs to relative-offset codes.

    Entry (i, j) encodes the 3D offset between tokens i and j, shifted into
    [0, (2w-1)^3). Tokens are in lexicographic (d, h, w) order.
    """
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
    dims: tuple[int, int, int], window: int, shifts: tuple[int, int, int]
) -> np.ndarray:
    """Region-id grid on the window-padded dims, in the shifted frame the
    masks are built in: tokens sharing an id may attend after the cyclic
    shift. `np.roll(ids, shifts, (0, 1, 2))` gives the ids in the original
    (pre-shift) frame.
    """
    padded = [padded_extent(d, window) for d in dims]
    axes = [_axis_regions(p, window, s) for p, s in zip(padded, shifts)]
    return axes[0][:, None, None] * 9 + axes[1][None, :, None] * 3 + axes[2][None, None, :]


def compute_attn_mask(
    dims: tuple[int, int, int], window: int, shifts: tuple[int, int, int]
) -> np.ndarray:
    """Additive attention masks [num_windows, w^3, w^3] of {0, MASK_VALUE}.

    Tokens wrapped across the volume boundary by the cyclic shift cannot
    attend to non-wrapped tokens. Depends only on (dims, window, shifts);
    dims are padded up to window multiples internally. Built once per key
    and shared: the returned array is read-only.
    """
    return _attn_mask(tuple(int(d) for d in dims), int(window), tuple(int(s) for s in shifts))


@lru_cache(maxsize=64)
def _attn_mask(dims: tuple[int, int, int], window: int, shifts: tuple[int, int, int]) -> np.ndarray:
    ids = shift_region_ids(dims, window, shifts)
    labels = window_layout((1,) + ids.shape, window).split(ids[None])[:, :, 0]
    mask = np.where(labels[:, :, None] != labels[:, None, :], MASK_VALUE, 0.0).astype(np.float32)
    mask.flags.writeable = False
    return mask


# ------------------------------------------------------------------- graphs


def attention_graph(
    tokens: Tensor, pt: Mapping[str, Tensor], prefix: str, heads: int, window: int,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray]:
    """softmax(QK^T/sqrt(d) + B + mask) V per window and head, heads merged.

    tokens: [nW, T, C], T = window^3 and C the projections' width, as
    `Windows.split` cuts a stream's grid; weights wq/bq, wk/bk, wv/bv and
    bias_table [(2w-1)^3, heads] are read from `pt` under `prefix`. The wo
    projection is not applied here: `ad.window_residual` runs it with the
    window reverse and the residual sum. Returns (output [nW, T, C], the
    attention weights [nW, heads, T, T]).
    """
    p = lambda s: pt[f"{prefix}.{s}"]
    nw, t, c = tokens.shape
    dh = c // heads

    def split_heads(name, axes):
        x = ad.tokens_linear(tokens, p(f"w{name}"), p(f"b{name}"))
        return ad.permute(x, axes, split=(nw, t, heads, dh))

    q = split_heads("q", (0, 2, 1, 3))  # [nW, heads, T, dh]
    kt = split_heads("k", (0, 2, 3, 1))  # [nW, heads, dh, T]
    v = split_heads("v", (0, 2, 1, 3))
    return ad.window_attention(q, kt, v, p("bias_table"), relative_position_index(window), mask)


def _mlp_channels(x: Tensor, w1, b1, w2, b2, residual: Tensor | None = None) -> Tensor:
    """Linear -> GELU -> linear over the leading channel axis of [C, *spatial],
    the last linear map summed into `residual` where one is given."""
    h = ad.gelu(ad.channels_linear(x, w1, b1))
    return ad.channels_linear(h, w2, b2, residual)


def swin_layer_graph(
    x: Tensor, pt: Mapping[str, Tensor], prefix: str, heads: int, window: int,
    shifts: tuple[int, int, int],
) -> Tensor:
    """One pre-norm layer on a [C, d, h, w] grid; shifts=(0,0,0) gives W-MSA.

    Weights are read from `pt` under `prefix` (ln1, attn, ln2, mlp). The
    partition pads the grid to window multiples before the cyclic shift, so
    the standard shifted-window mask is exact on the padded grid. Norm and
    `Windows.split` run as one node, `attention_graph` between, and wo,
    `Windows.join` and the residual sum as another, keeping none of the
    norm output, shifted grids or projection.
    """
    p = lambda s: pt[f"{prefix}.{s}"]
    win = window_layout(x.shape, window, shifts)
    wins = ad.norm_windows(x, p("ln1.gamma"), p("ln1.beta"), win)
    mask = compute_attn_mask(win.padded, window, shifts) if any(shifts) else None
    out = attention_graph(wins, pt, f"{prefix}.attn", heads, window, mask)[0]  # weights not kept
    x = ad.window_residual(x, out, p("attn.wo"), p("attn.bo"), win)
    h = ad.normalize_axes(x, p("ln2.gamma"), p("ln2.beta"), axes=0)
    return _mlp_channels(h, p("mlp.w1"), p("mlp.b1"), p("mlp.w2"), p("mlp.b2"), residual=x)


def swin_pair_graph(
    x: Tensor, pt: Mapping[str, Tensor], prefix: str, heads: int, window: int,
    shifts: tuple[int, int, int],
) -> Tensor:
    """The two-layer block: `prefix`.block0 plain window attention, then block1 shifted."""
    x = swin_layer_graph(x, pt, f"{prefix}.block0", heads, window, (0, 0, 0))
    return swin_layer_graph(x, pt, f"{prefix}.block1", heads, window, shifts)
