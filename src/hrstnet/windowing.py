"""Spatial token-grid mechanics: embedding, windows, shifts, merge and expand.

Every operation exists in two layers: a graph-level function over autodiff
Tensors (used inside the model forward/backward), and a thin public wrapper
over the numpy domain types. Token order inside a window is lexicographic
(depth, height, width); window order is lexicographic over window coords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .volume import VolumeTensor


@dataclass
class TokenGrid:
    """Spatial grid of embedding vectors, stored [channels, d, h, w]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 4:
            raise ShapeError(f"token grid must be 4D [C,d,h,w], got {self.data.shape}")
        if min(self.data.shape[1:]) < 1:
            raise ShapeError(f"grid dims must be >= 1, got {self.data.shape[1:]}")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

    @property
    def token_count(self) -> int:
        return int(np.prod(self.dims))


@dataclass
class WindowSet:
    """Windows as [num_windows, w^3, channels]; remembers how to invert."""

    data: np.ndarray
    window: int
    source_dims: tuple[int, int, int]
    padded_dims: tuple[int, int, int]

    @property
    def num_windows(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class PatchEmbedConfig:
    patch_size: int = 4
    embed_dim: int = 96
    in_channels: int = 1

    def validate(self):
        if self.patch_size < 1 or self.embed_dim < 1 or self.in_channels < 1:
            raise ConfigError(f"invalid patch embed config {self}")


def padded_extent(dim: int, multiple: int) -> int:
    return ((dim + multiple - 1) // multiple) * multiple


# ---------------------------------------------------------------- graph level


def embed_graph(x: Tensor, weight: Tensor, bias: Tensor, patch: int) -> Tensor:
    """Non-overlapping patch embedding: [K,D,H,W] -> [C, D//P, H//P, W//P].

    Weight is [C, K*P^3]; the patch vector is flattened in (channel, dz, dy, dx)
    order. Trailing voxels that do not fill a patch are dropped.
    """
    k, dd, hh, ww = x.shape
    p = patch
    d, h, w = dd // p, hh // p, ww // p
    if min(d, h, w) < 1:
        raise ConfigError(f"input dims {(dd, hh, ww)} smaller than patch size {p}")
    x = ad.slice_(x, (slice(None), slice(0, d * p), slice(0, h * p), slice(0, w * p)))
    x = ad.reshape(x, (k, d, p, h, p, w, p))
    x = ad.transpose(x, (1, 3, 5, 0, 2, 4, 6))
    x = ad.reshape(x, (d * h * w, k * p**3))
    y = ad.tokens_linear(x, weight, bias)
    return ad.reshape(ad.transpose(y, (1, 0)), (weight.shape[0], d, h, w))


def partition_graph(x: Tensor, window: int) -> tuple[Tensor, tuple[int, int, int]]:
    """Zero-pad to window multiples and split into [nW, w^3, C] windows."""
    if window < 1:
        raise ConfigError(f"window size must be >= 1, got {window}")
    c, d, h, w = x.shape
    dp, hp, wp = (padded_extent(s, window) for s in (d, h, w))
    if (dp, hp, wp) != (d, h, w):
        x = ad.pad(x, ((0, 0), (0, dp - d), (0, hp - h), (0, wp - w)))
    nd, nh, nw = dp // window, hp // window, wp // window
    x = ad.reshape(x, (c, nd, window, nh, window, nw, window))
    x = ad.transpose(x, (1, 3, 5, 2, 4, 6, 0))
    return ad.reshape(x, (nd * nh * nw, window**3, c)), (dp, hp, wp)


def reverse_graph(
    t: Tensor, window: int, padded_dims: tuple, out_dims: tuple
) -> Tensor:
    """Inverse of partition_graph; crops padding back to out_dims."""
    dp, hp, wp = padded_dims
    c = t.shape[2]
    nd, nh, nw = dp // window, hp // window, wp // window
    x = ad.reshape(t, (nd, nh, nw, window, window, window, c))
    x = ad.transpose(x, (6, 0, 3, 1, 4, 2, 5))
    x = ad.reshape(x, (c, dp, hp, wp))
    d, h, w = out_dims
    if (dp, hp, wp) != (d, h, w):
        x = ad.slice_(x, (slice(None), slice(0, d), slice(0, h), slice(0, w)))
    return x


def shift_graph(x: Tensor, shifts: tuple[int, int, int]) -> Tensor:
    return ad.roll(x, shifts, (1, 2, 3))


def merge_graph(x: Tensor, weight: Tensor) -> Tensor:
    """2x2x2 patch merging: dims halve, channels double (weight [2C, 8C]).

    Odd dims are zero-padded to even first. The 8 children are stacked
    (space-to-depth) in lexicographic (dz, dy, dx) offset order, C fastest.
    """
    c, d, h, w = x.shape
    de, he, we = (s + (s % 2) for s in (d, h, w))
    if (de, he, we) != (d, h, w):
        x = ad.pad(x, ((0, 0), (0, de - d), (0, he - h), (0, we - w)))
    x = ad.reshape(x, (c, de // 2, 2, he // 2, 2, we // 2, 2))
    x = ad.transpose(x, (2, 4, 6, 0, 1, 3, 5))
    return ad.channels_linear(ad.reshape(x, (8 * c, de // 2, he // 2, we // 2)), weight)


def expand_graph(x: Tensor, weight: Tensor) -> Tensor:
    """Patch expanding: project C -> 4C, rearrange into 2x2x2 blocks of C/2.

    Block (a, b, c) of the output takes channel slab 4a+2b+c of the projected
    vector, so tokens tile the expanded vector in lexicographic block order.
    """
    c, d, h, w = x.shape
    if c % 2 != 0:
        raise ConfigError(f"patch expand needs even channels, got {c}")
    y = ad.channels_linear(x, weight)  # [4C, d, h, w]
    c2 = c // 2
    y = ad.reshape(y, (2, 2, 2, c2, d, h, w))
    y = ad.transpose(y, (3, 4, 0, 5, 1, 6, 2))
    return ad.reshape(y, (c2, 2 * d, 2 * h, 2 * w))


# --------------------------------------------------------------- public level


def patch_embed(vol: VolumeTensor, cfg: PatchEmbedConfig, weight, bias) -> TokenGrid:
    cfg.validate()
    if vol.channels != cfg.in_channels:
        raise ShapeError(f"volume has {vol.channels} channels, config says {cfg.in_channels}")
    out = embed_graph(
        Tensor(vol.data), Tensor(np.asarray(weight, dtype=np.float32)),
        Tensor(np.asarray(bias, dtype=np.float32)), cfg.patch_size,
    )
    return TokenGrid(out.data)


def window_partition(grid: TokenGrid, window: int) -> WindowSet:
    t, padded = partition_graph(Tensor(grid.data), window)
    return WindowSet(t.data, window, grid.dims, padded)


def window_reverse(ws: WindowSet) -> TokenGrid:
    t = reverse_graph(Tensor(ws.data), ws.window, ws.padded_dims, ws.source_dims)
    return TokenGrid(t.data)


def cyclic_shift(grid: TokenGrid, shifts: tuple[int, int, int]) -> TokenGrid:
    return TokenGrid(np.roll(grid.data, tuple(int(s) for s in shifts), (1, 2, 3)))


def patch_merge(grid: TokenGrid, weight) -> TokenGrid:
    weight = np.asarray(weight, dtype=np.float32)
    if weight.shape != (2 * grid.channels, 8 * grid.channels):
        raise ShapeError(
            f"merge weight must be [2C, 8C] = {(2 * grid.channels, 8 * grid.channels)}, "
            f"got {weight.shape}"
        )
    return TokenGrid(merge_graph(Tensor(grid.data), Tensor(weight)).data)


def patch_expand(grid: TokenGrid, weight) -> TokenGrid:
    weight = np.asarray(weight, dtype=np.float32)
    if weight.shape != (4 * grid.channels, grid.channels):
        raise ShapeError(
            f"expand weight must be [4C, C] = {(4 * grid.channels, grid.channels)}, "
            f"got {weight.shape}"
        )
    return TokenGrid(expand_graph(Tensor(grid.data), Tensor(weight)).data)
