"""Spatial token-grid mechanics: embedding, windows, shifts, merge and expand.

Embedding, merge and expand are each one function over autodiff Tensors,
used by the model's forward and backward alike. A token grid is a
[C, d, h, w] Tensor. The window layout (pad, cyclic shift, partition and
their inverse) is `Windows`, whose `split` and `join` act on ndarrays:
`autodiff.norm_windows` and `autodiff.window_residual` run them inside their
nodes, and `attention.compute_attn_mask` cuts its region labels with them.
Token order inside a window is lexicographic (depth, height, width); window
order is lexicographic over window coords.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


class Windows(NamedTuple):
    """How a [C, *dims] grid maps onto its [nW, window^3, C] windows: zero-
    padded at the high end of each dim to `padded` (window multiples),
    rolled by -shifts over (d, h, w), then cut by the permute `cut` (`split`);
    back, the permute `uncut`, a roll by +shifts and the crop to dims
    (`join`). The Swin layer's window round trip is these two, run inside
    `autodiff.norm_windows` and `autodiff.window_residual`."""

    c: int
    dims: tuple[int, int, int]
    padded: tuple[int, int, int]
    window: int
    shifts: tuple[int, int, int]

    @property
    def pad_width(self) -> tuple:
        return ((0, 0),) + tuple((0, p - d) for d, p in zip(self.dims, self.padded))

    @property
    def crop(self) -> tuple:
        return (slice(None),) + tuple(slice(0, d) for d in self.dims)

    @property
    def cut(self) -> tuple[tuple, tuple, tuple]:
        """(split, axes, merge) of the permute from the padded, rolled grid to the windows."""
        w = self.window
        nd, nh, nw = (p // w for p in self.padded)
        return (self.c, nd, w, nh, w, nw, w), (1, 3, 5, 2, 4, 6, 0), (nd * nh * nw, w**3, self.c)

    @property
    def uncut(self) -> tuple[tuple, tuple, tuple]:
        """(split, axes, merge) of the inverse permute, windows to grid."""
        split, axes, _ = self.cut
        return tuple(split[i] for i in axes), tuple(np.argsort(axes)), (self.c,) + self.padded

    def split(self, a: np.ndarray) -> np.ndarray:
        """A [C, *dims] grid, or one padded already, as its windows: pad, roll
        by -shifts and the permute `cut`, the copy as `autodiff.permute`
        makes it (`autodiff._permuted`), whole on the caller."""
        if a.shape[1:] != self.padded:
            a = np.pad(a, self.pad_width)
        if any(self.shifts):
            a = np.roll(a, tuple(-s for s in self.shifts), (1, 2, 3))
        return ad._permuted(a, *self.cut)

    def join(self, t: np.ndarray) -> np.ndarray:
        """The windows back on their [C, *dims] grid: the permute `uncut`, a
        roll by +shifts and the crop, a view."""
        a = ad._permuted(t, *self.uncut)
        if any(self.shifts):
            a = np.roll(a, self.shifts, (1, 2, 3))
        return a[self.crop] if self.padded != self.dims else a


def window_layout(shape, window: int, shifts: tuple[int, int, int] = (0, 0, 0)) -> Windows:
    """The windows of a [C, d, h, w] grid of this shape."""
    c, *dims = shape
    padded = tuple(padded_extent(s, window) for s in dims)
    return Windows(c, tuple(dims), padded, window, tuple(shifts))


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
