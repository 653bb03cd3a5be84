"""Print sha256 digests of losses, gradients and logits, one line per check.

A change that must keep every bit runs this on the parent commit and on the
change and compares the output: equal digests mean byte-identical results.
It hashes whatever `hrstnet` the import path resolves, so point PYTHONPATH
at the tree to check:

    PYTHONPATH=src python tools/grad_hash.py
    mkdir -p /tmp/parent && git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tools/grad_hash.py

Checks (float32 unless noted):
  backward-*   `training.backward` losses and every parameter gradient
               (`backward-k4-32`: four channels and four classes, where the
               others have one and two);
  fd-*         the float64 analytic gradients `finite_difference_check`
               compares against central differences;
  fd-report-*  the checker's report text and per-family statistics, and,
               at tolerance 0 where every probe is listed as a failure,
               each sampled coordinate with both of its gradients;
  trace-grid   `topology.shape_trace` JSON for variants 2-4 x windows 2-4 x
               patch 2 and 4, at a window-exact and a padded input size;
  trace-invalid  the same grid at an input size `check_input_dims` refuses:
               the report, or the raised error's type and message;
  train-tiny   the `train_log.csv`, `best.ckpt` and `latest.ckpt` bytes a
               `training.train` run leaves: three epochs on two 16^3 cases,
               stopped after two and resumed into the same directory;
  conv3-blocked  the output and both gradients of one `autodiff.conv3`
               layer, 96 -> 96 channels at 16^3, in float32 and float64:
               its forward builds the columns in several blocks;
  forward-paper  paper-default `topology.forward` logits on one 64^3 tile
               (about 0.9 GB peak).
The package path goes to stderr, so the digests on stdout diff cleanly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import hrstnet
from hrstnet import autodiff as ad
from hrstnet import errors, topology, training, volume

TINY = topology.ModelConfig(
    variant=2, embed_dim=8, patch_size=4, window=2, heads=(2, 4),
    in_channels=1, num_classes=2,
)
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
        h.update(np.ascontiguousarray(a).tobytes())
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
    param_grads = training._param_grads
    training._param_grads = lambda pt: captured.append(param_grads(pt)) or captured[-1]
    try:
        training.finite_difference_check(cfg, num_samples=1)
    finally:
        training._param_grads = param_grads
    return digest((), captured[0])


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
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out:
        training.train(cfg, TINY, data, out_dir=out, stop_after_epochs=2)
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


def forward_case(seed) -> str:
    cfg = topology.ModelConfig()
    vol, _ = volume.generate_synthetic(volume.SyntheticSpec(
        seed=seed, dims=(64, 64, 64), channels=cfg.in_channels,
        num_classes=cfg.num_classes, radius_range=(8, 14),
    ))
    logits = topology.forward(cfg, topology.init_params(cfg, seed + 1), vol)
    return digest((), {"logits": logits.data})


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
    "forward-paper": lambda: forward_case(8),
}


def main() -> None:
    print(f"hrstnet from {hrstnet.__file__}", file=sys.stderr)
    for name, run in CHECKS.items():
        print(f"{name} {run()}", flush=True)


if __name__ == "__main__":
    main()
