"""Print sha256 digests of losses, gradients and logits, one line per check.

A change that must keep every bit runs this on the parent commit and on the
change and compares the output: equal digests mean byte-identical results.
It hashes whatever `hrstnet` the import path resolves, so point PYTHONPATH
at the tree to check, and run that tree's own copy (the fd-* lines capture
gradients where that tree's checker takes them):

    PYTHONPATH=src python tools/grad_hash.py
    mkdir -p /tmp/parent && git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python /tmp/parent/tools/grad_hash.py

Checks (float32 unless noted):
  backward-*   `training.backward` losses and every parameter gradient
               (`backward-k4-32`: four channels and four classes, where the
               others have one and two);
  fd-*         the float64 analytic gradients `finite_difference_check`
               takes from `training.backward` and compares against central
               differences;
  fd-report-*  the checker's report text and per-family statistics, and,
               at tolerance 0 where every probe is listed as a failure,
               each sampled coordinate with both of its gradients;
  trace-grid   `topology.shape_trace` JSON for variants 2-4 x windows 2-4 x
               patch 2 and 4, at a window-exact and a padded input size;
  trace-invalid  the same grid at an input size `check_input_dims` refuses:
               the report, or the raised error's type and message;
  train-tiny   the `train_log.csv`, `best.ckpt` and `latest.ckpt` bytes a
               `training.train` run leaves: three epochs on two 16^3 cases,
               stopped at the first step of the third by an exception raised
               from `training.random_crop`, as a kill there would stop it,
               and resumed into the same directory;
  conv3-blocked  the output and both gradients of one `autodiff.conv3`
               layer, 96 -> 96 channels at 16^3, in float32 and float64:
               its forward builds the columns, and its backward the input
               gradient's column gradient, in several blocks;
  conv3-weight-groups  the output and both gradients of four
               `autodiff.conv3` layers (C_in 32, 64, 64 and 128 over 512
               voxels: 8^3 and flatter grids), in float32 and float64: the
               weight gradient builds its columns in groups of 10 offsets
               and a last group of 7 (32 channels), then in groups of 1, 9
               and 3 offsets. Not 48 channels: that forward's GEMM moves
               with the BLAS thread count, and this line must not;
  conv3-weight-tail  both gradients of variant 4's concat convs at 16^3
               (C_in 16 and 32 -> 16, WEIGHT_TAIL_CASES), in float32 and
               float64, whose weight gradient ends on a shorter last group
               of offsets: its digest is the one whole weight-gradient
               columns give. Not the output: the 16-channel float64
               forward's GEMM moves with the BLAS thread count;
  split        the outputs and gradients of `autodiff.channels_linear`
               (384 -> 96 channels over 16^3, with bias) and of a Swin MLP,
               `attention._mlp_channels` (96 -> 384 -> 96 channels over 16^3,
               with a residual), in float32 and float64: sizes above the
               default thresholds, so the map, and the MLP's fc1, GELU and
               fc2, each run in two pieces;
  split-forward  the outputs and every gradient, float32 and float64, of
               the other kernels whose forward splits, at sizes above the
               default thresholds: `tokens_linear` over windows,
               and `window_attention` without and with a shift mask;
               beside them, at the same sizes, kernels that run whole:
               `conv3` (512 -> 640 channels at 2^3: one block, and no
               GEMM is cut by rows), `tokens_linear` over rows (4096 x
               256 -> 96, the patch embedding's shape: a 2-D input is not
               cut),
               `channels_linear` (9216 -> 1024 over 2^3: 8 columns, too
               few to cut), `normalize_axes` as layer norm and as instance
               norm, and `leaky_relu`;
  swin-layer   the output and every gradient, float32 and float64, of one
               shifted `attention.swin_layer_graph` of 96 channels on a 15^3
               grid with window 4: the grid pads to 16^3; its projections,
               attention and GELU run split pieces, its norms and window
               round trip whole;
  adamw        params, m and v after three `training.adamw_step`s from
               TINY's `init_params` state with gradients laid out like it,
               run on that state, on per-tensor copies of all of it, on
               per-tensor params beside flat g, m and v (`train_v4_64`'s
               layout) and on the state with one entry replaced by a copy:
               one digest when all agree, else each;
  forward-paper  paper-default `topology.forward` logits on one 64^3 tile
               (about 0.9 GB peak): its stages and fusion blocks run as
               tasks (`autodiff.tasks`);
  stream-tasks  `training.backward` losses and gradients of variant 4 /
               embed 16 at 32^3 with `autodiff.SPLIT_ELEMS` set to its
               stream 0's 8192 elements, so that its forward builds each
               stage's streams and each fusion block's targets as two
               tasks. Its record was taken from the tree before tasks
               existed, with the same setting: the line shows that tasks
               give the bits of one thread in order.
Where the engine splits large kernels across its two workers, these lines run
split pieces (SPLIT_LINES): conv3-blocked, conv3-weight-groups,
conv3-weight-tail, split, split-forward, swin-layer, forward-paper,
backward-v4-64 and stream-tasks (the TINY-sized lines split nothing). Their digests must not depend on the worker count, so diff a run
at the default against one at one worker:

    PYTHONPATH=src python -c "import runpy, hrstnet.autodiff as ad; ad.WORKERS = 1; \
        runpy.run_path('tools/grad_hash.py', run_name='__main__')"

The package path, the worker count and the BLAS thread count go to stderr,
so the digests on stdout diff cleanly.

RECORD (`tools/grad_hash.json`) holds every line's digest with the numeric
environment it was taken in (`environment()`), and tests/test_grad_hash.py
checks the tree against it. A change that moves bits on purpose rewrites it:

    PYTHONPATH=src python -c "import runpy; \
        runpy.run_path('tools/grad_hash.py')['write_record']()"
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import hrstnet
from hrstnet import autodiff as ad
from hrstnet import attention, cli, errors, topology, training, volume

RECORD = Path(__file__).with_name("grad_hash.json")  # the digests of record and their environment
# the lines whose kernels run split pieces; the others split nothing
SPLIT_LINES = ("backward-v4-64", "conv3-blocked", "conv3-weight-groups", "conv3-weight-tail",
               "split", "split-forward", "swin-layer", "forward-paper", "stream-tasks")
# variant 4's concat convs at 16^3 (C_in, C_out, dims): groups of 4 and 2 offsets, the last shorter
WEIGHT_TAIL_CASES = ((16, 16, (16, 16, 16)), (32, 16, (16, 16, 16)))
TINY = cli.TINY_GRADCHECK_CONFIG
K4 = dataclasses.replace(TINY, in_channels=4, num_classes=4)
V4 = topology.ModelConfig(
    variant=4, embed_dim=16, patch_size=4, window=4, heads=(1, 2, 4, 8),
    in_channels=1, num_classes=2,
)


def digest(losses, arrays: dict) -> str:
    h = hashlib.sha256()
    for v in losses:
        h.update(np.float64(v).tobytes())
    for name in sorted(arrays):
        a = arrays[name]
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def json_digest(items) -> str:
    """sha256 of each item's sorted-key JSON, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()


def backward_case(cfg, dims, seed) -> str:
    vol, lab = volume.generate_synthetic(volume.SyntheticSpec(
        seed=seed, dims=dims, channels=cfg.in_channels, num_classes=cfg.num_classes,
    ))
    grads, losses = training.backward(cfg, topology.init_params(cfg, seed + 1), vol, lab)
    return digest(losses, grads)


def fd_case(cfg) -> str:
    """Capture the analytic gradients from inside the checker itself."""
    captured = []
    backward = training.backward
    training.backward = lambda *a: captured.append(backward(*a)) or captured[-1]
    try:
        training.finite_difference_check(cfg, num_samples=1)
    finally:
        training.backward = backward
    return digest((), captured[0][0])


def fd_report_case(cfg) -> str:
    report = training.finite_difference_check(cfg, tolerance=0.0)
    return json_digest([report.text(), report.families, report.failures])


def trace_configs():
    for variant in (2, 3, 4):
        for window in (2, 3, 4):
            for patch in (2, 4):
                yield topology.ModelConfig(
                    variant=variant, embed_dim=8, patch_size=patch, window=window,
                    heads=(1, 2, 4, 8), in_channels=2, num_classes=3,
                )


def trace_grid() -> str:
    reports = []
    for cfg in trace_configs():
        m, we = cfg.input_multiple, cfg.window_exact_multiple
        for dims in ((we, we, we), (m, 2 * m, 3 * m)):
            reports.append(topology.shape_trace(cfg, dims))
    return json_digest(reports)


def trace_invalid() -> str:
    items = []
    for cfg in trace_configs():
        m = cfg.input_multiple
        try:
            items.append(topology.shape_trace(cfg, (m, m, m + 1)))
        except errors.HRSTError as e:
            items.append([type(e).__name__, str(e)])
    return json_digest(items)


class Stopped(Exception):
    """Raised into `train_tiny`'s first run to stop it."""


def train_tiny() -> str:
    data = [
        volume.generate_synthetic(volume.SyntheticSpec(
            seed=40 + i, dims=(16, 16, 16), channels=1, num_classes=2, radius_range=(6, 7),
            noise_sigma=0.1,
        ))
        for i in range(2)
    ]
    # validation DSC 0, 0, 0.07: epoch 0 links latest.ckpt to best.ckpt, epoch 1
    # writes latest.ckpt alone, and the resumed epoch 2 writes a new best.ckpt
    cfg = training.TrainConfig(epochs=3, crop=(16, 16, 16), seed=0, base_lr=0.1, warmup_epochs=0)
    crops, crop = 2 * len(data), training.random_crop

    def stop_at_epoch_2(*args):
        nonlocal crops
        if crops == 0:
            raise Stopped
        crops -= 1
        return crop(*args)

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        training.random_crop = stop_at_epoch_2
        try:
            training.train(cfg, TINY, data, out_dir=out)
        except Stopped:
            pass
        finally:
            training.random_crop = crop
        training.train(cfg, TINY, data, out_dir=out, resume_from=f"{out}/latest.ckpt")
        for name in ("train_log.csv", "best.ckpt", "latest.ckpt"):
            h.update(name.encode())
            h.update(Path(out, name).read_bytes())
    return h.hexdigest()


def conv3_blocked() -> str:
    rng = np.random.default_rng(11)
    arrays = {}
    for dtype in (np.float32, np.float64):
        x = ad.Tensor(rng.standard_normal((96, 16, 16, 16)).astype(dtype), requires_grad=True)
        w = ad.Tensor((rng.standard_normal((96, 27 * 96)) / 50).astype(dtype), requires_grad=True)
        y = ad.conv3(x, w)
        ad.sum_(ad.mul(y, ad.Tensor(rng.standard_normal(y.shape).astype(dtype)))).backward()
        arrays |= {f"{x.dtype.name}.{k}": a for k, a in (("y", y.data), ("gx", x.grad), ("gw", w.grad))}
    return digest((), arrays)


def conv3_layers(seed, cases, names=("y", "gx", "gw")) -> str:
    """The output and both gradients (those of `names`) of one conv3 per
    (C_in, C_out, dims), in float32 and float64."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for c_in, c_out, dims in cases:
        for dtype in (np.float32, np.float64):
            x = ad.Tensor(rng.standard_normal((c_in,) + dims).astype(dtype), requires_grad=True)
            w = ad.Tensor((rng.standard_normal((c_out, 27 * c_in)) / 50).astype(dtype), requires_grad=True)
            y = ad.conv3(x, w)
            ad.sum_(ad.mul(y, ad.Tensor(rng.standard_normal(y.shape).astype(dtype)))).backward()
            arrays |= {f"{c_in}-{c_out}.{x.dtype.name}.{k}": a
                       for k, a in (("y", y.data), ("gx", x.grad), ("gw", w.grad)) if k in names}
    return digest((), arrays)


def split_kernels() -> str:
    rng = np.random.default_rng(12)
    arrays = {}
    for dtype in (np.float32, np.float64):
        leaves = {
            "x": rng.standard_normal((384, 16, 16, 16)),
            "w": rng.standard_normal((96, 384)) / 20,
            "b": rng.standard_normal(96),
            "xm": rng.standard_normal((96, 16, 16, 16)),
            "w1": rng.standard_normal((384, 96)) / 10,
            "b1": rng.standard_normal(384),
            "w2": rng.standard_normal((96, 384)) / 20,
            "b2": rng.standard_normal(96),
            "r": rng.standard_normal((96, 16, 16, 16)),
        }
        t = {k: ad.Tensor(v.astype(dtype), requires_grad=True) for k, v in leaves.items()}
        y = ad.channels_linear(t["x"], t["w"], t["b"])
        m = attention._mlp_channels(t["xm"], t["w1"], t["b1"], t["w2"], t["b2"], residual=t["r"])
        for out in (y, m):  # a walk each
            ad.sum_(ad.mul(out, ad.Tensor(rng.standard_normal(out.shape).astype(dtype)))).backward()
        named = {"y": y.data, "m": m.data, **{f"g{k}": v.grad for k, v in t.items()}}
        arrays |= {f"{dtype.__name__}.{k}": a for k, a in named.items()}
    return digest((), arrays)


def split_forward() -> str:
    rng = np.random.default_rng(15)
    index = attention.relative_position_index(4)
    mask = attention.compute_attn_mask((16, 16, 16), 4, (2, 2, 2))
    cases = {  # name -> (kernel, leaf arrays, constant arguments after them)
        "tokens-windows": (ad.tokens_linear, [(64, 64, 96), (96, 96), (96,)], ()),
        "tokens-rows": (ad.tokens_linear, [(4096, 256), (96, 256), (96,)], ()),
        "attention": (lambda *a: ad.window_attention(*a)[0],
                      [(64, 3, 64, 32), (64, 3, 32, 64), (64, 3, 64, 32), (343, 3)], (index,)),
        "attention-masked": (lambda *a: ad.window_attention(*a)[0],
                             [(64, 3, 64, 32), (64, 3, 32, 64), (64, 3, 64, 32), (343, 3)],
                             (index, mask)),
        "layer-norm": (ad.normalize_axes, [(96, 16, 16, 16), (96,), (96,)], (0,)),
        "instance-norm": (ad.normalize_axes, [(96, 16, 16, 16), (96,), (96,)], ((1, 2, 3),)),
        "leaky-relu": (ad.leaky_relu, [(96, 16, 16, 16)], ()),
        "conv3-rows": (ad.conv3, [(512, 2, 2, 2), (640, 27 * 512)], ()),
        "channels-rows": (ad.channels_linear, [(9216, 2, 2, 2), (1024, 9216), (1024,)], ()),
    }
    arrays = {}
    for name, (kernel, shapes, consts) in cases.items():
        draws = [rng.standard_normal(s, np.float32) / np.float32(math.sqrt(s[-1])) for s in shapes]
        r = None
        for dtype in (np.float32, np.float64):
            leaves = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in draws]
            y = kernel(*leaves, *consts)
            r = rng.standard_normal(y.shape, np.float32) if r is None else r
            ad.sum_(ad.mul(y, ad.Tensor(r.astype(dtype)))).backward()
            arrays[f"{dtype.__name__}.{name}.y"] = y.data
            arrays |= {f"{dtype.__name__}.{name}.g{i}": t.grad for i, t in enumerate(leaves)}
    return digest((), arrays)


def swin_layer() -> str:
    rng = np.random.default_rng(18)
    c, heads, window, shifts = 96, 3, 4, (2, 2, 2)
    specs = topology._block_schema("layer", c, heads, window)
    draws = {s.name: rng.standard_normal(s.shape, np.float32) / np.float32(math.sqrt(s.shape[-1]))
             for s in specs}
    x, r = rng.standard_normal((2, c, 15, 15, 15), np.float32)
    arrays = {}
    for dtype in (np.float32, np.float64):
        pt = {k: ad.Tensor(v.astype(dtype), requires_grad=True) for k, v in draws.items()}
        xt = ad.Tensor(x.astype(dtype), requires_grad=True)
        y = attention.swin_layer_graph(xt, pt, "layer", heads, window, shifts)
        ad.sum_(ad.mul(y, ad.Tensor(r.astype(dtype)))).backward()
        named = {"y": y.data, "gx": xt.grad, **{f"g.{k}": t.grad for k, t in pt.items()}}
        arrays |= {f"{dtype.__name__}.{k}": a for k, a in named.items()}
    return digest((), arrays)


def adamw_case() -> str:
    params = topology.init_params(TINY, 13)
    rng = np.random.default_rng(14)
    ends = np.cumsum([0] + [p.size for p in params.values()])
    steps = []
    for lr in (1e-3, 3e-4, 0.05):
        flat = rng.standard_normal(ends[-1]).astype(np.float32)
        grads = training.init_optim_state(params).m  # laid out as the engine lays out gradients
        for g, a, b in zip(grads.values(), ends, ends[1:]):
            g[...] = flat[a:b].reshape(g.shape)
        steps.append((lr, grads))
    copy = lambda t: {k: a.copy() for k, a in t.items()}
    replaced = topology.init_params(TINY, 13)  # the same state, one entry replaced by a copy
    name = list(replaced)[70]
    replaced[name] = replaced[name].copy()
    states = [  # params, and whether m, v and the gradients are per-tensor copies too
        (params, False),
        (copy(params), True),
        (copy(params), False),  # train_v4_64's layout: per-tensor params only
        (replaced, False),
    ]
    digests = []
    for state, split in states:
        opt = training.init_optim_state(state)
        if split:
            opt.m, opt.v = copy(opt.m), copy(opt.v)
        for lr, grads in steps:
            training.adamw_step(state, copy(grads) if split else grads, opt, lr)
        digests.append(digest((), {**{f"p.{k}": a for k, a in state.items()},
                                  **{f"m.{k}": a for k, a in opt.m.items()},
                                  **{f"v.{k}": a for k, a in opt.v.items()}}))
    return digests[0] if len(set(digests)) == 1 else " ".join(digests)


def forward_case(seed) -> str:
    cfg = topology.ModelConfig()
    vol, _ = volume.generate_synthetic(volume.SyntheticSpec(
        seed=seed, dims=(64, 64, 64), channels=cfg.in_channels,
        num_classes=cfg.num_classes, radius_range=(8, 14),
    ))
    logits = topology.forward(cfg, topology.init_params(cfg, seed + 1), vol)
    return digest((), {"logits": logits.data})


def stream_tasks() -> str:
    elems = ad.SPLIT_ELEMS
    ad.SPLIT_ELEMS = V4.embed_dim * 8**3  # stream 0 at 32^3: V4's forward takes tasks
    try:
        return backward_case(V4, (32, 32, 32), 19)
    finally:
        ad.SPLIT_ELEMS = elems


CHECKS = {
    "backward-tiny-32": lambda: backward_case(TINY, (32, 32, 32), 5),
    "backward-window3-16": lambda: backward_case(dataclasses.replace(TINY, window=3), (16, 16, 16), 6),
    "backward-v4-64": lambda: backward_case(V4, (64, 64, 64), 7),
    "backward-k4-32": lambda: backward_case(K4, (32, 32, 32), 9),
    "fd-tiny": lambda: fd_case(TINY),
    "fd-window3": lambda: fd_case(dataclasses.replace(TINY, window=3)),
    "fd-report-tiny": lambda: fd_report_case(TINY),
    "fd-report-window3": lambda: fd_report_case(dataclasses.replace(TINY, window=3)),
    "trace-grid": trace_grid,
    "trace-invalid": trace_invalid,
    "train-tiny": train_tiny,
    "conv3-blocked": conv3_blocked,
    # C_in, C_out, dims: groups of 10 offsets and a last of 7 (C_in 32), then of 1, 9 and 3
    "conv3-weight-groups": lambda: conv3_layers(16, [
        (32, 16, (8, 8, 8)), (64, 48, (4, 8, 16)), (64, 4, (8, 16, 4)), (128, 8, (16, 4, 8))]),
    "conv3-weight-tail": lambda: conv3_layers(17, WEIGHT_TAIL_CASES, ("gx", "gw")),
    "split": split_kernels,
    "split-forward": split_forward,
    "swin-layer": swin_layer,
    "adamw": adamw_case,
    "forward-paper": lambda: forward_case(8),
    "stream-tasks": stream_tasks,
}


def environment() -> dict:
    """What the digests depend on besides the code: numpy, its BLAS build and
    the OpenBLAS kernels."""
    return {"numpy": np.__version__, "blas": cli.blas_build(), "openblas_core": ad.openblas_core()}


def write_record() -> None:
    """Write every line's digest, the environment and the engine's BLAS
    thread count to RECORD."""
    record = {"environment": environment(), "blas_threads": ad.blas_threads(),
              "digests": {name: run() for name, run in CHECKS.items()}}
    RECORD.write_text(json.dumps(record, indent=2) + "\n")


def main() -> None:
    print(f"hrstnet from {hrstnet.__file__}, {ad.WORKERS} worker(s), {ad.blas_threads()} BLAS thread(s)",
          file=sys.stderr)
    for name, run in CHECKS.items():
        print(f"{name} {run()}", flush=True)


if __name__ == "__main__":
    main()
