"""Operator entry points: train, predict, evaluate, trace, gradcheck, synth.

Configuration is a strict JSON document (unknown keys and wrong-typed values
are rejected) with `model`, `train` and `data` sections, decoded by
`training.decode` from the fields of the config dataclasses; command-line
flags override file values and the fully resolved configuration is echoed
into the run manifest. Exit codes: 0 success, 2 configuration/validation
error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import autodiff as ad
from . import metrics, topology, training, volume
from .errors import ConfigError, HRSTError, NumericError, PersistenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

TINY_GRADCHECK_CONFIG = topology.ModelConfig(
    variant=2, embed_dim=8, patch_size=4, window=2, heads=(2, 4),
    in_channels=1, num_classes=2,
)


def build_id() -> str:
    h = hashlib.sha1()
    for src in sorted(Path(__file__).parent.glob("*.py")):
        h.update(src.name.encode())
        h.update(src.read_bytes())
    return h.hexdigest()[:12]


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def blas_build() -> dict:
    """The name and version of the BLAS numpy was built against, each None
    where numpy's build configuration does not say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"name": blas.get("name"), "version": blas.get("version")}


def write_manifest(out_dir: Path, command: str, config: dict, seeds: dict,
                   outputs: list[str], started: str) -> Path:
    """Write manifest.json: the command, its resolved config, seeds, build and
    outputs, and the numeric environment it ran in: library versions, the
    BLAS build, the engine's worker count, the BLAS thread count in effect
    and the OpenBLAS kernel set, the BLAS/OpenMP thread settings, the
    process's peak RSS so far and the command's wall time."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ended = datetime.now(timezone.utc)
    manifest = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "build_id": build_id(),
        "started_utc": started,
        "ended_utc": ended.isoformat(),
        "outputs": outputs,
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_build(),
            "workers": ad.WORKERS,
            "blas_threads": ad.blas_threads(),
            "openblas_core": ad.openblas_core(),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # Linux: KiB
            "wall_s": (ended - datetime.fromisoformat(started)).total_seconds(),
        },
    }
    path = out_dir / "manifest.json"
    write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def write_text(path, text: str) -> None:
    """Write `text` as UTF-8 through `volume.atomic_write`: a failed write
    leaves the previous file whole and raises a PersistenceError naming `path`."""
    try:
        volume.atomic_write(path, lambda f: f.write(text.encode()))
    except OSError as e:
        raise PersistenceError(f"cannot write {path}: {e.strerror or e}") from e


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except ValueError as e:  # bad UTF-8 or JSON
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    training.strict_section(raw, {"model", "train", "data"}, "config")
    for name, section in raw.items():
        training.typed(section, dict, f"config.{name}")
    return raw


def _given(args, names) -> dict:
    """The flags among `names` that the command line set."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _synthetic_pairs(section: dict):
    where = "config.data.synthetic"
    kw = {"seed": 0, **training.typed(section, dict, where)}
    num_cases = training.typed(kw.pop("num_cases", 1), int, f"{where}.num_cases")
    val_cases = training.typed(kw.pop("val_cases", 0), int, f"{where}.val_cases")
    for key, value, least in (("num_cases", num_cases, 1), ("val_cases", val_cases, 0)):
        if value < least:
            raise ConfigError(f"{where}.{key} must be >= {least}, got {value}")
    spec = training.decode(volume.SyntheticSpec, kw, where)
    make = lambda s: volume.generate_synthetic(replace(spec, seed=s))
    train_set = [make(spec.seed + i) for i in range(num_cases)]
    val_set = [make(spec.seed + 10_000 + j) for j in range(val_cases)] or None
    return train_set, val_set


def _dir_pairs(section: dict, key: str, num_classes: int):
    d = Path(training.typed(section[key], str, f"config.data.{key}"))
    if not d.is_dir():
        raise ConfigError(f"data directory not found: {d}")
    pairs = []
    for img in sorted(d.glob("*_img.rvol")):
        lbl = d / img.name.replace("_img.rvol", "_lbl.rvol")
        if not lbl.is_file():
            raise ConfigError(f"no labels for {img.name} (expected {lbl.name})")
        pairs.append((volume.read_volume(img), volume.read_labels(lbl, num_classes)))
    if not pairs:
        raise ConfigError(f"no *_img.rvol cases in {d}")
    return pairs


def datasets_from(section: dict, num_classes: int):
    """(train, val) cases; label files are read as `num_classes`-class labels."""
    training.strict_section(section, {"synthetic", "train_dir", "val_dir"}, "config.data")
    if "synthetic" in section:
        dirs = [k for k in ("train_dir", "val_dir") if k in section]
        if dirs:
            raise ConfigError(f"config.data: 'synthetic' and {dirs} are exclusive data sources")
        return _synthetic_pairs(section["synthetic"])
    if "train_dir" not in section:
        raise ConfigError("config.data needs either 'synthetic' or 'train_dir'")
    train_set = _dir_pairs(section, "train_dir", num_classes)
    val_set = _dir_pairs(section, "val_dir", num_classes) if "val_dir" in section else None
    return train_set, val_set


# ----------------------------------------------------------------- commands


def cmd_train(args) -> int:
    started = _utc_now()
    raw = load_config(args.config)
    model_section = {**raw.get("model", {}), **_given(args, ("variant", "embed_dim", "window"))}
    train_section = {**raw.get("train", {}), **_given(args, ("seed", "epochs"))}
    model_cfg = training.decode(topology.ModelConfig, model_section, "config.model")
    train_cfg = training.decode(training.TrainConfig, train_section, "config.train")
    train_set, val_set = datasets_from(dict(raw.get("data", {})), model_cfg.num_classes)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = training.train(train_cfg, model_cfg, train_set, val_set, resume_from=args.resume,
                            out_dir=str(out))
    resolved = {
        "model": asdict(model_cfg),
        "train": asdict(train_cfg),
        "data": raw.get("data", {}),
        "resume": args.resume,
    }
    write_manifest(
        out, "train", resolved, {"train_seed": train_cfg.seed},
        ["best.ckpt", "latest.ckpt", "train_log.csv"], started,
    )
    print(
        f"trained {train_cfg.epochs} epochs, best val DSC {result.checkpoint.best_val_dsc:.4f} "
        f"in {out / 'best.ckpt'}; outputs in {out}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    started = _utc_now()
    vol = volume.read_volume(args.input)  # a bad input exits before the checkpoint is read
    ckpt = training.load_checkpoint(args.checkpoint, params_only=True)
    cfg = ckpt.model_config
    roi = tuple(args.roi) if args.roi else vol.dims
    out = Path(args.out)  # output directories are made, or fail, before inference
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.logits:
        Path(args.logits).parent.mkdir(parents=True, exist_ok=True)
    model = lambda tile: topology.forward(cfg, ckpt.params, tile)
    logits = volume.sliding_window_infer(model, vol, roi, args.overlap)
    # argmax tie rule: the lowest class id wins
    pred = volume.LabelVolume(np.argmax(logits.data, axis=0), cfg.num_classes, vol.spacing)
    volume.write_labels(pred, out)
    outputs = [out.name]
    if args.logits:
        volume.write_volume(logits, args.logits)
        outputs.append(Path(args.logits).name)
    write_manifest(
        out.parent, "predict",
        {"checkpoint": str(args.checkpoint), "input": str(args.input),
         "roi": list(roi), "overlap": args.overlap},
        {}, outputs, started,
    )
    print(f"wrote prediction {out}")
    return EXIT_OK


def _region_spec_for(args, label_paths) -> metrics.RegionSpec:
    """The `--regions` spec; 'perclass' spans every class in the files at `label_paths`."""
    if args.regions == "brats":
        return metrics.brats_region_spec()
    if args.regions == "perclass":
        top = max(volume.read_labels(p).num_classes for p in label_paths)
        return metrics.perclass_region_spec(top)
    try:
        raw = json.loads(Path(args.regions).read_text())
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"cannot read regions file {args.regions}: {e}") from e
    regions = training.typed(raw, dict, f"regions file {args.regions}").items()
    return metrics.RegionSpec(tuple(
        (k, training.typed(v, tuple[int, ...], f"region {k!r} in {args.regions}")) for k, v in regions
    ))


def cmd_evaluate(args) -> int:
    started = _utc_now()
    pred_dir, gt_dir = Path(args.pred_dir), Path(args.gt_dir)
    pred_files = {p.name: p for p in pred_dir.glob("*.rvol")}
    gt_files = {p.name: p for p in gt_dir.glob("*.rvol")}
    if set(pred_files) != set(gt_files):
        only_pred = sorted(set(pred_files) - set(gt_files))
        only_gt = sorted(set(gt_files) - set(pred_files))
        raise ConfigError(
            f"case filenames differ: only in predictions {only_pred}, "
            f"only in ground truth {only_gt}"
        )
    if not gt_files:
        raise ConfigError(f"no .rvol cases found in {gt_dir}")
    out = Path(args.out)  # the report's directory is made, or fails, before any case is read
    out.parent.mkdir(parents=True, exist_ok=True)
    spec = _region_spec_for(args, [*pred_files.values(), *gt_files.values()])

    reports = [
        metrics.evaluate_case(volume.read_labels(pred_files[name]), volume.read_labels(gt_files[name]),
                              spec, case_id=name)
        for name in sorted(gt_files)
    ]

    lines = [reports[0].csv_header()]
    lines += [r.csv_row() for r in reports]
    cols = zip(*(r.values() for r in reports))
    lines.append(metrics.csv_line(["mean"] + [str(float(np.mean(col))) for col in cols]))
    write_text(out, "\n".join(lines) + "\n")
    write_manifest(
        out.parent, "evaluate",
        {"pred_dir": str(pred_dir), "gt_dir": str(gt_dir), "regions": args.regions},
        {}, [out.name], started,
    )
    print("\n".join(lines))
    return EXIT_OK


def cmd_trace(args) -> int:
    flags = _given(args, ("variant", "embed_dim", "patch_size", "window", "heads",
                          "in_channels", "num_classes"))
    cfg = training.decode(topology.ModelConfig, flags, "trace flags")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
    report = topology.shape_trace(cfg, tuple(args.dims))
    print(topology.trace_text(report))
    if args.json:
        write_text(args.json, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = TINY_GRADCHECK_CONFIG
    report = training.finite_difference_check(
        cfg, seed=args.seed, tolerance=args.tolerance, num_samples=args.samples
    )
    print(report.text())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_synth(args) -> int:
    started = _utc_now()
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    flags = _given(args, ("seed", "dims", "channels", "num_classes", "blobs_per_class",
                          "radius_range", "noise_sigma"))
    spec = training.decode(volume.SyntheticSpec, flags, "synth flags")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i in range(args.count):
        vol, lab = volume.generate_synthetic(replace(spec, seed=spec.seed + i))
        img_path = out / f"case{i:03d}_img.rvol"
        lbl_path = out / f"case{i:03d}_lbl.rvol"
        volume.write_volume(vol, img_path)
        volume.write_labels(lab, lbl_path)
        outputs += [img_path.name, lbl_path.name]
    write_manifest(
        out, "synth", {**asdict(spec), "count": args.count}, {"base_seed": spec.seed},
        outputs, started,
    )
    print(f"wrote {args.count} synthetic cases to {out}")
    return EXIT_OK


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hrstnet", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--variant", type=int, choices=(2, 3, 4))
    t.add_argument("--embed-dim", type=int, dest="embed_dim")
    t.add_argument("--window", type=int)
    t.add_argument("--resume", help="continue the run from this checkpoint (its latest.ckpt)")
    t.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="segment a volume with a checkpoint")
    pr.add_argument("--checkpoint", required=True)
    pr.add_argument("--input", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--roi", type=int, nargs=3)
    pr.add_argument("--overlap", type=float, default=0.5)
    pr.add_argument("--logits")
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="score predictions against ground truth")
    ev.add_argument("--pred-dir", required=True, dest="pred_dir")
    ev.add_argument("--gt-dir", required=True, dest="gt_dir")
    ev.add_argument("--out", required=True)
    ev.add_argument("--regions", default="brats",
                    help="'brats', 'perclass' or a JSON file of name -> label ids")
    ev.set_defaults(func=cmd_evaluate)

    tr = sub.add_parser("trace", help="print the shape/parameter trace")
    tr.add_argument("--variant", type=int, choices=(2, 3, 4))
    tr.add_argument("--embed-dim", type=int, dest="embed_dim")
    tr.add_argument("--patch", type=int, dest="patch_size")
    tr.add_argument("--window", type=int)
    tr.add_argument("--heads", type=int, nargs="+")
    tr.add_argument("--in-channels", type=int, dest="in_channels")
    tr.add_argument("--classes", type=int, dest="num_classes")
    tr.add_argument("--dims", type=int, nargs=3, default=[128, 128, 128])
    tr.add_argument("--json")
    tr.set_defaults(func=cmd_trace)

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--tolerance", type=float, default=1e-3)
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--samples", type=int, default=200)
    gc.set_defaults(func=cmd_gradcheck)

    sy = sub.add_parser("synth", help="generate synthetic volume/label cases")
    sy.add_argument("--out", required=True)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--dims", type=int, nargs=3)
    sy.add_argument("--channels", type=int)
    sy.add_argument("--classes", type=int, dest="num_classes")
    sy.add_argument("--blobs", type=int, dest="blobs_per_class")
    sy.add_argument("--radius", type=int, nargs=2, dest="radius_range")
    sy.add_argument("--sigma", type=float, dest="noise_sigma")
    sy.add_argument("--count", type=int, default=1)
    sy.set_defaults(func=cmd_synth)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except HRSTError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # a path that cannot be read or written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
