"""Network assembly: parallel stages, multi-resolution fusion, head, tracing.

Stream r runs at 1/(patch_size*2^r) of the input resolution with embed_dim*2^r
channels. Stage n holds n streams; every stream passes a two-layer window
attention block, every block output passes patch merging (the last stage
merges only the first n-1 streams). The deepest merged map spawns the next
stage's new stream; all other merged maps and all block outputs feed the
fusion block, which renders every stream at every other resolution,
concatenates per target and projects back with a residual block. A stage's
streams, each with its merge, are independent of each other, and so are a
fusion block's targets: where stream 0 is large they are built as two tasks
on the engine's two workers (`autodiff.tasks`).

Parameters live in a name -> float32 ndarray mapping, fully determined by
(config, seed), whose arrays are views of one flat array in schema order
(`flat_views`); `param_schema` is the single source of truth for names,
shapes, init rules and parameter families, so `param_count` and the
per-block counts of `shape_trace` need no allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import swin_pair_graph
from .errors import ConfigError, NumericError, ShapeError
from .volume import VolumeTensor
from .windowing import embed_graph, expand_graph, merge_graph

DEPTH_PER_BLOCK = 2
CONV_KERNEL = 3  # residual-block convolutions are 3x3x3, padding 1
MLP_RATIO = 4  # Swin MLP hidden width per channel


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of one network variant."""

    variant: int = 4
    embed_dim: int = 96
    patch_size: int = 4
    window: int = 4
    heads: tuple[int, ...] = (3, 6, 12, 24)
    in_channels: int = 4
    num_classes: int = 4

    def __post_init__(self):
        if self.variant not in (2, 3, 4):
            raise ConfigError(f"variant must be 2, 3 or 4, got {self.variant}")
        if self.embed_dim < 4 or self.embed_dim % 4 != 0:
            raise ConfigError(
                f"embed_dim must be a positive multiple of 4 (two head expansions), "
                f"got {self.embed_dim}"
            )
        if self.patch_size < 1 or self.window < 1:
            raise ConfigError("patch_size and window must be >= 1")
        if len(self.heads) < self.variant:
            raise ConfigError(
                f"need at least {self.variant} head counts, got {self.heads}"
            )
        for r in range(self.variant):
            c = self.stream_channels(r)
            if self.heads[r] < 1 or c % self.heads[r] != 0:
                raise ConfigError(
                    f"stream {r} channels {c} not divisible by heads {self.heads[r]}"
                )
        if self.in_channels < 1:
            raise ConfigError("in_channels must be >= 1")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")

    def stream_channels(self, r: int) -> int:
        return self.embed_dim * (2**r)

    @property
    def shift(self) -> tuple[int, int, int]:
        s = self.window // 2
        return (s, s, s)

    @property
    def input_multiple(self) -> int:
        """Required input-dim multiple (window padding enabled)."""
        return self.patch_size * 2 ** (self.variant - 1)

    @property
    def window_exact_multiple(self) -> int:
        """Input-dim multiple for window-exact (padding-free) operation."""
        return self.input_multiple * self.window

    def stage_merge_count(self, n: int) -> int:
        return n if n < self.variant else n - 1


# ----------------------------------------------------------------- schema


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple[int, ...]
    init: str  # "trunc" | "zeros" | "ones"
    family: str  # role the gradient checker samples by; one of training.FD_FAMILIES

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))


def _block_schema(prefix: str, c: int, heads: int, window: int):
    span = (2 * window - 1) ** 3
    hid = MLP_RATIO * c
    yield ParamSpec(f"{prefix}.ln1.gamma", (c,), "ones", "layer_norm")
    yield ParamSpec(f"{prefix}.ln1.beta", (c,), "zeros", "layer_norm")
    for proj in ("wq", "wk", "wv", "wo"):
        yield ParamSpec(f"{prefix}.attn.{proj}", (c, c), "trunc", "qkv")
        yield ParamSpec(f"{prefix}.attn.{proj.replace('w', 'b')}", (c,), "zeros", "qkv")
    yield ParamSpec(f"{prefix}.attn.bias_table", (span, heads), "zeros", "bias_table")
    yield ParamSpec(f"{prefix}.ln2.gamma", (c,), "ones", "layer_norm")
    yield ParamSpec(f"{prefix}.ln2.beta", (c,), "zeros", "layer_norm")
    yield ParamSpec(f"{prefix}.mlp.w1", (hid, c), "trunc", "mlp")
    yield ParamSpec(f"{prefix}.mlp.b1", (hid,), "zeros", "mlp")
    yield ParamSpec(f"{prefix}.mlp.w2", (c, hid), "trunc", "mlp")
    yield ParamSpec(f"{prefix}.mlp.b2", (c,), "zeros", "mlp")


def _residual_schema(prefix: str, c_in: int, c_out: int):
    k3 = CONV_KERNEL**3
    yield ParamSpec(f"{prefix}.conv1.weight", (c_out, k3 * c_in), "trunc", "residual")
    yield ParamSpec(f"{prefix}.in1.gamma", (c_out,), "ones", "residual")
    yield ParamSpec(f"{prefix}.in1.beta", (c_out,), "zeros", "residual")
    yield ParamSpec(f"{prefix}.conv2.weight", (c_out, k3 * c_out), "trunc", "residual")
    yield ParamSpec(f"{prefix}.in2.gamma", (c_out,), "ones", "residual")
    yield ParamSpec(f"{prefix}.in2.beta", (c_out,), "zeros", "residual")
    yield ParamSpec(f"{prefix}.skip.weight", (c_out, c_in), "trunc", "residual")
    yield ParamSpec(f"{prefix}.skip.bias", (c_out,), "zeros", "residual")


def _mrff_chain_specs(cfg: ModelConfig, n: int, t: int, r: int):
    c = cfg.embed_dim
    if r < t:
        for j, lvl in enumerate(range(r + 1, t)):
            ci = c * 2**lvl
            name = f"mrff{n}.to{t}.from{r}.down{j}.weight"
            yield ParamSpec(name, (2 * ci, 8 * ci), "trunc", "merge")
    else:
        for j, lvl in enumerate(range(r, t, -1)):
            ci = c * 2**lvl
            yield ParamSpec(f"mrff{n}.to{t}.from{r}.up{j}.weight", (4 * ci, ci), "trunc", "expand")


@lru_cache
def param_schema(cfg: ModelConfig) -> tuple[ParamSpec, ...]:
    """Every learnable tensor of the variant, in allocation order; built once
    per config."""
    return tuple(_schema(cfg))


def _schema(cfg: ModelConfig) -> Iterator[ParamSpec]:
    c, k, p, w = cfg.embed_dim, cfg.variant, cfg.patch_size, cfg.window
    yield ParamSpec("embed.weight", (c, cfg.in_channels * p**3), "trunc", "embedding")
    yield ParamSpec("embed.bias", (c,), "zeros", "embedding")
    for n in range(1, k + 1):
        for r in range(n):
            cr = cfg.stream_channels(r)
            for b in range(DEPTH_PER_BLOCK):
                yield from _block_schema(f"stage{n}.stream{r}.block{b}", cr, cfg.heads[r], w)
        for r in range(cfg.stage_merge_count(n)):
            cr = cfg.stream_channels(r)
            yield ParamSpec(f"stage{n}.merge{r}.weight", (2 * cr, 8 * cr), "trunc", "merge")
        if n >= 2:
            for t in range(n):
                for r in range(n):
                    if r != t:
                        yield from _mrff_chain_specs(cfg, n, t, r)
                yield from _residual_schema(
                    f"mrff{n}.to{t}.res", n * cfg.stream_channels(t), cfg.stream_channels(t)
                )
    for t in range(1, k):
        for j, lvl in enumerate(range(t, 0, -1)):
            ci = cfg.stream_channels(lvl)
            yield ParamSpec(f"head.up{t}.exp{j}.weight", (4 * ci, ci), "trunc", "expand")
    yield from _residual_schema("head.res", k * c, c)
    yield ParamSpec("head.expand1.weight", (4 * c, c), "trunc", "expand")
    yield ParamSpec("head.expand2.weight", (2 * c, c // 2), "trunc", "expand")
    yield ParamSpec("head.out.weight", (cfg.num_classes, c // 4), "trunc", "head")
    yield ParamSpec("head.out.bias", (cfg.num_classes,), "zeros", "head")


def param_count(cfg: ModelConfig) -> int:
    return sum(spec.size for spec in param_schema(cfg))


class FlatViews(dict):
    """name -> view of `flat`, one 1-D array, as `flat_views` laid them out.
    `views` holds those views in order, so `is_whole` knows an entry
    replaced, deleted or added since."""

    __slots__ = ("flat", "views")


def flat_views(shapes: Mapping[str, tuple[int, ...]], dtype, alloc=np.empty) -> FlatViews:
    """name -> a view of one new 1-D array `alloc(total, dtype)`: the shapes
    laid back to back in the map's order. Parameters, Adam moments and leaf
    gradients are held this way, so AdamW and checkpoint I/O run over whole
    buffers."""
    out = FlatViews()
    out.flat = alloc(sum(math.prod(s) for s in shapes.values()), dtype)
    at = 0
    for name, shape in shapes.items():
        out[name] = np.ndarray(shape, out.flat.dtype, out.flat, at * out.flat.itemsize)
        at += out[name].size
    out.views = tuple(out.values())
    return out


def is_whole(tensors: Mapping[str, np.ndarray], names: list[str]) -> bool:
    """Whether `tensors` is a `flat_views` map of `names`, in that order, each
    entry still the view it made: then its `flat` holds exactly those tensors."""
    made = getattr(tensors, "views", None)
    return (made is not None and len(made) == len(tensors) and list(tensors) == names
            and all(a is b for a, b in zip(tensors.values(), made)))


def _trunc_normal(rng: np.random.Generator, shape, std=0.02, bound=2.0, out=None) -> np.ndarray:
    """float32(std * z) for standard normal z redrawn while |z| > bound,
    written into `out` (a C-contiguous float32 array of `shape`) if given.

    The float64 draws stream through chunks of 2^20 values; the rejected flat
    indices are redrawn in ascending order, round after round. The numbers
    therefore equal one full-size draw followed by redraws of every rejected
    entry in flat order, without holding a float64 copy of the tensor; each
    draw is scaled in place, so a round holds its draws and indices only.
    """
    chunk = 1 << 20
    flat = np.empty(math.prod(shape), np.float32) if out is None else out.reshape(-1)
    rejected = [np.empty(0, np.intp)]
    for lo in range(0, flat.size, chunk):
        draw = rng.standard_normal(min(chunk, flat.size - lo))
        np.multiply(draw, std, out=flat[lo:lo + draw.size])
        rejected.append(np.flatnonzero(np.abs(draw, out=draw) > bound) + lo)
        del draw  # freed before the next chunk is drawn
    idx = np.concatenate(rejected)
    del rejected
    while idx.size:
        draw = rng.standard_normal(idx.size)
        keep = (draw > bound) | (draw < -bound)  # |draw| > bound, without a float copy
        flat[idx] = np.multiply(draw, std, out=draw)
        idx = idx[keep]
        del draw, keep
    return flat.reshape(shape)


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Seed-deterministic initialization: truncated normal weights (std 0.02,
    clipped at 2 std), zero biases and bias tables, unit norm gains. Each
    tensor is drawn straight into its view of one flat float32 array."""
    rng = np.random.default_rng(seed)
    schema = param_schema(cfg)
    params = flat_views({spec.name: spec.shape for spec in schema}, np.float32)
    for spec in schema:
        if spec.init == "trunc":
            _trunc_normal(rng, spec.shape, out=params[spec.name])
        else:
            params[spec.name].fill(1.0 if spec.init == "ones" else 0.0)
    return params


# ----------------------------------------------------------------- graphs


def residual_graph(x: Tensor, pt: Mapping[str, Tensor], prefix: str) -> Tensor:
    """Two conv-instancenorm-leakyrelu layers plus a 1x1x1-projected skip.

    Every residual block in the network concatenates n >= 2 streams of the
    output width, so the skip always changes the channel count.
    """
    p = lambda s: pt[f"{prefix}.{s}"]
    b = ad.conv3(x, p("conv1.weight"))
    b = ad.leaky_relu(ad.normalize_axes(b, p("in1.gamma"), p("in1.beta"), (1, 2, 3)))
    b = ad.conv3(b, p("conv2.weight"))
    b = ad.leaky_relu(ad.normalize_axes(b, p("in2.gamma"), p("in2.beta"), (1, 2, 3)))
    return ad.channels_linear(x, p("skip.weight"), p("skip.bias"), residual=b)


def stage_graph(
    cfg: ModelConfig, pt: Mapping[str, Tensor], n: int, streams: list[Tensor]
) -> tuple[list[Tensor], list[Tensor]]:
    souts, merged = [None] * n, [None] * cfg.stage_merge_count(n)

    def stream(r):  # its Swin pair, then its merge
        souts[r] = swin_pair_graph(streams[r], pt, f"stage{n}.stream{r}", cfg.heads[r], cfg.window,
                                   cfg.shift)
        if r < len(merged):
            merged[r] = merge_graph(souts[r], pt[f"stage{n}.merge{r}.weight"])

    ad.tasks([partial(stream, r) for r in range(n)], streams[0].data.size)
    return souts, merged


def mrff_graph(
    cfg: ModelConfig, pt: Mapping[str, Tensor], n: int,
    souts: list[Tensor], merged: list[Tensor],
) -> list[Tensor]:
    fused = [None] * n

    def target(t):  # every other stream rendered at t's resolution, then t's residual block
        parts = [souts[t]]
        for r in range(n):
            if r == t:
                continue
            if r < t:
                m = merged[r]
                for j in range(t - r - 1):
                    m = merge_graph(m, pt[f"mrff{n}.to{t}.from{r}.down{j}.weight"])
            else:
                m = souts[r]
                for j in range(r - t):
                    m = expand_graph(m, pt[f"mrff{n}.to{t}.from{r}.up{j}.weight"])
            parts.append(m)
        fused[t] = residual_graph(ad.concat(parts), pt, f"mrff{n}.to{t}.res")

    ad.tasks([partial(target, t) for t in range(n)], souts[0].data.size)
    return fused


def head_graph(cfg: ModelConfig, pt: Mapping[str, Tensor], fused: list[Tensor]) -> Tensor:
    parts = [fused[0]]
    for t in range(1, cfg.variant):
        e = fused[t]
        for j in range(t):
            e = expand_graph(e, pt[f"head.up{t}.exp{j}.weight"])
        parts.append(e)
    x = residual_graph(ad.concat(parts), pt, "head.res")
    x = expand_graph(x, pt["head.expand1.weight"])
    x = expand_graph(x, pt["head.expand2.weight"])
    return ad.channels_linear(x, pt["head.out.weight"], pt["head.out.bias"])


def input_dim_ok(cfg: ModelConfig, d: int) -> bool:
    """Whether one input dim is a positive multiple of `cfg.input_multiple`."""
    return d >= cfg.input_multiple and d % cfg.input_multiple == 0


def check_input_dims(cfg: ModelConfig, dims: tuple[int, int, int]) -> None:
    """Raise ConfigError unless there are three dims and each passes `input_dim_ok`."""
    if len(dims) != 3 or not all(input_dim_ok(cfg, d) for d in dims):
        raise ConfigError(
            f"input dims {tuple(dims)} must be 3 positive multiples of {cfg.input_multiple} "
            f"(patch {cfg.patch_size} x 2^{cfg.variant - 1} merges)"
        )


def forward_graph(cfg: ModelConfig, pt: Mapping[str, Tensor], x: Tensor) -> Tensor:
    """Full network: embedding, stages with fusion, segmentation head.

    The channel and dims checks here are the network's only shape decision:
    with every input dim a positive multiple of `cfg.input_multiple`, each
    embed, merge and expand below is exact, and the graph functions assume it.
    """
    if x.shape[0] != cfg.in_channels:
        raise ShapeError(f"volume has {x.shape[0]} channels, model expects {cfg.in_channels}")
    check_input_dims(cfg, x.shape[1:])
    streams = [embed_graph(x, pt["embed.weight"], pt["embed.bias"], cfg.patch_size)]
    for n in range(1, cfg.variant + 1):
        souts, merged = stage_graph(cfg, pt, n, streams)
        fused = souts if n == 1 else mrff_graph(cfg, pt, n, souts, merged[: n - 1])
        streams = fused + merged[n - 1:]
    return head_graph(cfg, pt, fused)


def as_tensors(params: Mapping[str, np.ndarray], requires_grad: bool = False) -> dict[str, Tensor]:
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def forward(cfg: ModelConfig, params: Mapping[str, np.ndarray], vol: VolumeTensor) -> VolumeTensor:
    """Whole-network inference; deterministic in (params, vol)."""
    logits = forward_graph(cfg, as_tensors(params), Tensor(vol.data))
    if not np.isfinite(logits.data).all():
        raise NumericError("forward produced non-finite logits")
    return VolumeTensor(logits.data, vol.spacing)


# ----------------------------------------------------------------- tracing


def shape_trace(cfg: ModelConfig, input_dims: tuple[int, int, int]) -> dict:
    """Structural walk of the network: shapes, channels, params, constraints.

    Never allocates tensors. Dims that `forward_graph` refuses raise the same
    `ConfigError` here; padding a stream grid to the window is the only
    `violations` entry.
    """
    input_dims = tuple(int(d) for d in input_dims)
    check_input_dims(cfg, input_dims)
    c, k, p = cfg.embed_dim, cfg.variant, cfg.patch_size
    sizes = {spec.name: spec.size for spec in param_schema(cfg)}

    violations = []
    m, we = cfg.input_multiple, cfg.window_exact_multiple
    if any(d % we != 0 for d in input_dims):
        violations.append(
            f"input dims {input_dims} need padding for window size {cfg.window} "
            f"(window-exact operation requires multiples of {we})"
        )

    stream_dims = [tuple(d // (p * 2**r) for d in input_dims) for r in range(k)]
    grid0 = stream_dims[0]

    streams = [
        {
            "stream": r,
            "resolution": list(stream_dims[r]),
            "channels": cfg.stream_channels(r),
            "heads": cfg.heads[r],
            "downscale": p * 2**r,
        }
        for r in range(k)
    ]

    def block(prefix, in_shape, out_shape, name=None, **extra):
        """One trace row; its params are every schema entry under `prefix`."""
        params = sum(v for n, v in sizes.items() if n.startswith(prefix + "."))
        return {"name": name or prefix, "in_shape": in_shape, "out_shape": out_shape,
                "params": params, **extra}

    blocks = [block("embed", [cfg.in_channels, *input_dims], [c, *grid0])]
    for n in range(1, k + 1):
        for r in range(n):
            prefix, shape = f"stage{n}.stream{r}", [cfg.stream_channels(r), *stream_dims[r]]
            blocks.append(block(prefix, shape, shape, f"{prefix}.swin_pair"))
        for r in range(cfg.stage_merge_count(n)):
            cr = cfg.stream_channels(r)
            blocks.append(block(
                f"stage{n}.merge{r}", [cr, *stream_dims[r]], [2 * cr, *stream_dims[r + 1]]
            ))
        if n >= 2:
            for t in range(n):
                ct = cfg.stream_channels(t)
                blocks.append(block(
                    f"mrff{n}.to{t}", [n * ct, *stream_dims[t]], [ct, *stream_dims[t]],
                    concat_channels=n * ct,
                ))
    blocks.append(block("head", [k * c, *grid0], [cfg.num_classes, *input_dims]))

    return {
        "variant": k,
        "embed_dim": c,
        "patch_size": p,
        "window": cfg.window,
        "depth_per_block": DEPTH_PER_BLOCK,
        "heads": list(cfg.heads[:k]),
        "in_channels": cfg.in_channels,
        "num_classes": cfg.num_classes,
        "input_dims": list(input_dims),
        "min_input_multiple": {"with_padding": m, "window_exact": we},
        "violations": violations,
        "streams": streams,
        "blocks": blocks,
        "param_total": sum(sizes.values()),
    }


def trace_text(report: dict) -> str:
    lines = [
        f"HRSTNet-{report['variant']}  embed_dim={report['embed_dim']} "
        f"patch={report['patch_size']} window={report['window']} "
        f"depth={report['depth_per_block']} heads={report['heads']}",
        f"input dims: {report['input_dims']}  "
        f"min multiple: {report['min_input_multiple']['with_padding']} (padded), "
        f"{report['min_input_multiple']['window_exact']} (window-exact)",
    ]
    for v in report["violations"]:
        lines.append(f"VIOLATION: {v}")
    lines.append("streams:")
    for s in report["streams"]:
        lines.append(
            f"  stream {s['stream']}: 1/{s['downscale']} resolution "
            f"{s['resolution']} channels {s['channels']} heads {s['heads']}"
        )
    lines.append(f"{'block':<28}{'in':<20}{'out':<20}{'params':>10}")
    for b in report["blocks"]:
        lines.append(
            f"{b['name']:<28}{str(b['in_shape']):<20}{str(b['out_shape']):<20}"
            f"{b['params']:>10}"
        )
    lines.append(f"total parameters: {report['param_total']}")
    return "\n".join(lines)
