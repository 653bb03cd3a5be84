"""Spatial token-grid mechanics: embedding, windows, shifts, merge and expand.

Each operation is one function over autodiff Tensors, used by the model's
forward and backward alike. A token grid is a [C, d, h, w] Tensor. Token
order inside a window is lexicographic (depth, height, width); window order
is lexicographic over window coords.
"""

from __future__ import annotations

from . import autodiff as ad
from .autodiff import Tensor


def padded_extent(dim: int, multiple: int) -> int:
    return ((dim + multiple - 1) // multiple) * multiple


def embed_graph(x: Tensor, weight: Tensor, bias: Tensor, patch: int) -> Tensor:
    """Non-overlapping patch embedding: [K,D,H,W] -> [C, D/P, H/P, W/P].

    Weight is [C, K*P^3]; the patch vector is flattened in (channel, dz, dy, dx)
    order. Each dim is a positive multiple of P, as `forward_graph`'s input
    check guarantees.
    """
    k, dd, hh, ww = x.shape
    p = patch
    d, h, w = dd // p, hh // p, ww // p
    x = ad.permute(
        x, (1, 3, 5, 0, 2, 4, 6), split=(k, d, p, h, p, w, p), merge=(d * h * w, k * p**3)
    )
    y = ad.tokens_linear(x, weight, bias)
    return ad.permute(y, (1, 0), merge=(weight.shape[0], d, h, w))


def partition_graph(
    x: Tensor, window: int, shifts: tuple[int, int, int] = (0, 0, 0)
) -> tuple[Tensor, tuple[int, int, int]]:
    """Zero-pad to window multiples, roll by -shifts, split into [nW, w^3, C]
    windows; also returns the padded dims."""
    c, d, h, w = x.shape
    dp, hp, wp = (padded_extent(s, window) for s in (d, h, w))
    if (dp, hp, wp) != (d, h, w):
        x = ad.pad(x, ((0, 0), (0, dp - d), (0, hp - h), (0, wp - w)))
    if any(shifts):
        x = shift_graph(x, tuple(-s for s in shifts))
    nd, nh, nw = dp // window, hp // window, wp // window
    x = ad.permute(
        x, (1, 3, 5, 2, 4, 6, 0), split=(c, nd, window, nh, window, nw, window),
        merge=(nd * nh * nw, window**3, c),
    )
    return x, (dp, hp, wp)


def reverse_graph(
    t: Tensor, window: int, padded_dims: tuple, out_dims: tuple,
    shifts: tuple[int, int, int] = (0, 0, 0),
) -> Tensor:
    """Inverse of partition_graph: merge windows, roll back by shifts, crop to out_dims."""
    dp, hp, wp = padded_dims
    c = t.shape[2]
    nd, nh, nw = dp // window, hp // window, wp // window
    x = ad.permute(
        t, (6, 0, 3, 1, 4, 2, 5), split=(nd, nh, nw, window, window, window, c),
        merge=(c, dp, hp, wp),
    )
    if any(shifts):
        x = shift_graph(x, shifts)
    d, h, w = out_dims
    if (dp, hp, wp) != (d, h, w):
        x = ad.slice_(x, (slice(None), slice(0, d), slice(0, h), slice(0, w)))
    return x


def shift_graph(x: Tensor, shifts: tuple[int, int, int]) -> Tensor:
    return ad.roll(x, shifts, (1, 2, 3))


def merge_graph(x: Tensor, weight: Tensor) -> Tensor:
    """2x2x2 patch merging: dims halve, channels double (weight [2C, 8C]).

    Every dim is even, as `forward_graph`'s input check guarantees for each
    stream a merge reads. The 8 children are stacked (space-to-depth) in
    lexicographic (dz, dy, dx) offset order, C fastest.
    """
    c, d, h, w = x.shape
    x = ad.permute(
        x, (2, 4, 6, 0, 1, 3, 5), split=(c, d // 2, 2, h // 2, 2, w // 2, 2),
        merge=(8 * c, d // 2, h // 2, w // 2),
    )
    return ad.channels_linear(x, weight)


def expand_graph(x: Tensor, weight: Tensor) -> Tensor:
    """Patch expanding: project C -> 4C, rearrange into 2x2x2 blocks of C/2,
    as one node (`autodiff.expand`) that keeps no projected copy.

    C is even: every expanded width is embed_dim/2 times a power of two, and
    `ModelConfig` makes embed_dim a multiple of 4.

    Block (a, b, c) of the output takes channel slab 4a+2b+c of the projected
    vector, so tokens tile the expanded vector in lexicographic block order.
    """
    return ad.expand(x, weight)
