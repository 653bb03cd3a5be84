import csv
import errno
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from hrstnet import autodiff, cli, metrics, topology, training, volume
from hrstnet.metrics import evaluate_case, perclass_region_spec
from hrstnet.volume import LabelVolume, read_labels

from conftest import TINY, train_stopped_after


def tiny_config_dict(epochs=2, seed=0):
    return {
        "model": {
            "variant": 2, "embed_dim": 8, "patch_size": 4, "window": 2,
            "heads": [2, 4], "in_channels": 1, "num_classes": 2,
        },
        "train": {
            "epochs": epochs, "crop": [16, 16, 16], "seed": seed,
            "base_lr": 1e-3, "warmup_epochs": 1, "val_every": 1,
        },
        "data": {
            "synthetic": {
                "seed": 30, "dims": [16, 16, 16], "channels": 1,
                "num_classes": 2, "radius_range": [3, 4], "num_cases": 2,
            }
        },
    }


def write_config(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.json" in capsys.readouterr().err


def test_config_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err and "Traceback" not in err


@pytest.mark.parametrize("path, value", [
    (("model", "dropout"), 0.5),
    (("train", "crop"), 16),
    (("train", "epochs"), 1.5),
    (("train", "base_lr"), "x"),
    (("model", "heads"), 3),
    (("model", "embed_dim"), "8"),
    (("model",), 5),
    (("data", "synthetic", "dims"), 16),
    (("data", "synthetic", "num_cases"), "x"),
    (("data",), {"train_dir": 5}),
    (("data", "train_dir"), "cases"),  # beside "synthetic": two data sources
    (("data", "val_dir"), "cases"),
    (("train", "min_lr"), 0.0),
    (("train", "val_overlap"), 0.5),
    (("train", "seed"), -1),
    (("data", "synthetic", "seed"), -1),
    (("data", "synthetic", "dims"), [-1, 4, 4]),
    (("data", "synthetic", "dims"), [0, 4, 4]),
    (("data", "synthetic", "num_cases"), 0),
    (("data", "synthetic", "num_cases"), -2),
    (("data", "synthetic", "val_cases"), -3),  # not a silent fall-back to the training set
    (("train", "weight_decay"), math.nan),  # JSON NaN and Infinity: not a run that exits 3 at step 1
    (("train", "base_lr"), math.inf),
    (("data", "synthetic", "noise_sigma"), math.nan),
    pytest.param(("train", "base_lr"), 10**400, id="train.base_lr-10**400"),  # no float holds it
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_unknown_config_key_rejected(tmp_path, capsys, path, value):
    # unknown, wrong-typed and conflicting values alike are config errors naming the key
    cfg = tiny_config_dict()
    *parents, key = path
    section = cfg
    for name in parents:
        section = section[name]
    section[key] = value
    rc = cli.main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_warmup_longer_than_the_run_names_both_keys(tmp_path, capsys):
    cfg = tiny_config_dict(epochs=10)
    cfg["train"]["warmup_epochs"] = 50
    rc = cli.main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "warmup_epochs 50" in err and "epochs 10" in err and "total_epochs" not in err


def write_cases(d, seed, count=2):
    d.mkdir()
    for i in range(count):
        vol, lab = volume.generate_synthetic(volume.SyntheticSpec(
            seed=seed + i, dims=(16, 16, 16), channels=1, num_classes=2, radius_range=(3, 4)))
        volume.write_volume(vol, d / f"case{i:03d}_img.rvol")
        volume.write_labels(lab, d / f"case{i:03d}_lbl.rvol")
    return d


def test_train_on_case_directories(tmp_path):
    cfg = tiny_config_dict()
    cfg["data"] = {
        "train_dir": str(write_cases(tmp_path / "train", 40)),
        "val_dir": str(write_cases(tmp_path / "val", 50)),
    }
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "train_log.csv").read_text().splitlines()]
    assert rows[0][-1] == "val_dsc" and len(rows) == 1 + 2 * 2  # two train cases, two epochs
    assert all(0.0 <= float(r[-1]) <= 1.0 for r in rows[1:] if r[-1])
    assert any(r[-1] for r in rows[1:])  # validated on the val_dir cases
    assert json.loads((out / "manifest.json").read_text())["config"]["data"] == cfg["data"]


def test_train_smoke_writes_artifacts(tmp_path, capsys):
    cfgp = write_config(tmp_path, tiny_config_dict())
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfgp), "--out", str(out)]) == 0
    said = capsys.readouterr().out
    assert str(out / "best.ckpt") in said and "at epoch" not in said
    for name in ("best.ckpt", "latest.ckpt", "train_log.csv", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["model"]["embed_dim"] == 8
    assert manifest["build_id"]
    env = manifest["environment"]
    assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
    assert env["workers"] == autodiff.WORKERS
    assert (env["blas_threads"], env["openblas_core"]) == (autodiff.blas_threads(), autodiff.openblas_core())
    assert env["threads"] == {k: os.environ.get(k) for k in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    assert env["peak_rss_mb"] > 10 and env["wall_s"] > 0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert manifest["config"]["resume"] is None
    log = (out / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,epoch,lr,loss,dice,ce,val_dsc"
    assert len(log) == 1 + 2 * 2  # header + steps


def test_blas_build_is_null_where_numpy_does_not_say(monkeypatch):
    monkeypatch.setattr(np, "show_config", lambda mode: {"Build Dependencies": {}})
    assert cli.blas_build() == {"name": None, "version": None}
    monkeypatch.setattr(np, "show_config", lambda mode: {"Build Dependencies": {"blas": {"name": "b"}}})
    assert cli.blas_build() == {"name": "b", "version": None}


def test_train_resume_matches_an_uninterrupted_run(tmp_path, capsys):
    cfgp = write_config(tmp_path, tiny_config_dict(epochs=3))
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    assert cli.main(["train", "--config", str(cfgp), "--out", str(whole)]) == 0
    raw = cli.load_config(str(cfgp))
    model_cfg = training.decode(topology.ModelConfig, raw["model"], "model")
    train_set, val_set = cli.datasets_from(raw["data"], model_cfg.num_classes)
    cut.mkdir()
    train_stopped_after(1, training.decode(training.TrainConfig, raw["train"], "train"), model_cfg,
                        train_set, val_set, out_dir=str(cut))
    latest = str(cut / "latest.ckpt")
    assert cli.main(["train", "--config", str(cfgp), "--out", str(cut), "--resume", latest]) == 0
    for name in ("train_log.csv", "best.ckpt", "latest.ckpt"):
        assert (cut / name).read_bytes() == (whole / name).read_bytes(), name
    assert json.loads((cut / "manifest.json").read_text())["config"]["resume"] == latest
    capsys.readouterr()
    other = tmp_path / "other"
    rc = cli.main(["train", "--config", str(cfgp), "--out", str(other), "--resume", latest,
                   "--embed-dim", "16"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model config" in err and "Traceback" not in err


def _train_command(cfgp, out, *flags):
    """argv and environment of a child `hrstnet train` of the engine this test imports."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return [sys.executable, "-m", "hrstnet.cli", "train", "--config", str(cfgp), "--out", str(out), *flags], env


def test_killed_train_resumes_to_the_uninterrupted_files(tmp_path):
    # SIGKILL the child the moment its first latest.ckpt appears, mid-run;
    # resumed from the CLI, it leaves the bytes a run never killed leaves
    cfgp = write_config(tmp_path, tiny_config_dict(epochs=8))
    whole, cut = tmp_path / "whole", tmp_path / "cut"
    argv, env = _train_command(cfgp, cut)
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not (cut / "latest.ckpt").exists() and child.poll() is None and time.monotonic() < deadline:
            time.sleep(0.001)
    finally:
        child.kill()  # this child only; a no-op once it has been reaped
        child.wait()
    assert child.returncode == -signal.SIGKILL
    assert (cut / "train_log.csv").read_text().count("\n") < 1 + 8 * 2  # cut short
    for out, flags in ((whole, ()), (cut, ("--resume", str(cut / "latest.ckpt")))):
        argv, env = _train_command(cfgp, out, *flags)
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
    for name in ("train_log.csv", "best.ckpt", "latest.ckpt"):
        assert (cut / name).read_bytes() == (whole / name).read_bytes(), name


def test_train_deterministic_csv(tmp_path):
    cfgp = write_config(tmp_path, tiny_config_dict())
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["train", "--config", str(cfgp), "--out", str(a)]) == 0
    assert cli.main(["train", "--config", str(cfgp), "--out", str(b)]) == 0
    assert (a / "train_log.csv").read_bytes() == (b / "train_log.csv").read_bytes()


def test_trace_prints_stream_resolutions(capsys):
    assert cli.main(["trace", "--dims", "128", "128", "128"]) == 0
    out = capsys.readouterr().out
    for frag in ("1/4 resolution [32, 32, 32]", "1/8 resolution [16, 16, 16]",
                 "1/16 resolution [8, 8, 8]", "1/32 resolution [4, 4, 4]"):
        assert frag in out


def test_trace_downscale_follows_patch_size(capsys):
    assert cli.main(["trace", "--patch", "2", "--dims", "32", "32", "32"]) == 0
    out = capsys.readouterr().out
    for frag in ("1/2 resolution [16, 16, 16]", "1/4 resolution [8, 8, 8]",
                 "1/8 resolution [4, 4, 4]", "1/16 resolution [2, 2, 2]"):
        assert frag in out


def test_train_channel_mismatch_exit_2(tmp_path, capsys):
    cfg = tiny_config_dict(epochs=1)
    cfg["data"]["synthetic"]["channels"] = 2
    rc = cli.main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "volume has 2 channels, model expects 1" in capsys.readouterr().err


def test_synth_manifest_echoes_the_spec(tmp_path):
    out = tmp_path / "s"
    assert cli.main(["synth", "--out", str(out), "--dims", "16", "16", "16", "--sigma", "0"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    # every field of the spec, argparse leaving the defaults to SyntheticSpec
    assert config == {
        "seed": 0, "dims": [16, 16, 16], "channels": 1, "num_classes": 2,
        "blobs_per_class": 1, "radius_range": [3, 5], "noise_sigma": 0.0, "count": 1,
    }
    _, lab = volume.generate_synthetic(volume.SyntheticSpec(seed=0, dims=(16, 16, 16), noise_sigma=0.0))
    assert np.array_equal(read_labels(out / "case000_lbl.rvol").data, lab.data)


def test_synth_bad_flag_exit_2(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "s"), "--radius", "5", "3"]) == 2
    assert "radius_range" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_trace_json_output(tmp_path):
    jp = tmp_path / "new" / "trace.json"  # its directory is made
    assert cli.main(["trace", "--dims", "128", "128", "128", "--json", str(jp)]) == 0
    report = json.loads(jp.read_text())
    assert report["heads"] == [3, 6, 12, 24]
    assert report["depth_per_block"] == 2


def test_trace_json_into_a_directory_exits_2(tmp_path, capsys):
    rc = cli.main(["trace", "--dims", "128", "128", "128", "--json", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err and "Traceback" not in err


def test_trace_json_under_a_file_fails_before_the_trace(tmp_path, capsys):
    (tmp_path / "f").write_text("")
    rc = cli.main(["trace", "--dims", "128", "128", "128", "--json", str(tmp_path / "f" / "t.json")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(tmp_path / "f") in err and ".tmp" not in err


def test_synth_deterministic_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["synth", "--seed", "5", "--dims", "16", "16", "16", "--count", "2"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    for name in ("case000_img.rvol", "case000_lbl.rvol", "case001_img.rvol", "case001_lbl.rvol"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_predict_zero_checkpoint_tie_rule(tmp_path):
    params = {k: np.zeros_like(v) for k, v in topology.init_params(TINY, 0).items()}
    ck = training.Checkpoint(TINY, params, training.init_optim_state(params), 0, 0, 0.0)
    ckpt = tmp_path / "zero.ckpt"
    training.save_checkpoint(ck, ckpt)
    vol, _ = volume.generate_synthetic(
        volume.SyntheticSpec(seed=2, dims=(16, 16, 16), channels=1, num_classes=2)
    )
    vp = tmp_path / "v.rvol"
    volume.write_volume(vol, vp)
    outp = tmp_path / "pred.rvol"
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(vp),
                   "--out", str(outp), "--roi", "16", "16", "16"])
    assert rc == 0
    pred = read_labels(outp, num_classes=2)
    assert not pred.data.any()  # uniform logits: argmax picks class 0


@pytest.mark.parametrize("make_input", [
    lambda path: None,
    lambda path: path.write_bytes(b"not a volume"),
], ids=["missing", "malformed"])
def test_predict_checks_the_input_before_reading_the_checkpoint(tmp_path, monkeypatch, capsys,
                                                                 make_input):
    def no_load(path):
        raise AssertionError("the checkpoint was read before the input")

    monkeypatch.setattr(training, "load_checkpoint", no_load)
    vp = tmp_path / "v.rvol"
    make_input(vp)
    rc = cli.main(["predict", "--checkpoint", str(tmp_path / "c.ckpt"), "--input", str(vp),
                   "--out", str(tmp_path / "p.rvol")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_predict_reads_the_parameters_only(tmp_path):
    # predict stops reading after the parameters: overwriting every m and v
    # byte changes neither output, and a truncated file is still refused
    params = topology.init_params(TINY, 3)
    ck = training.Checkpoint(TINY, params, training.init_optim_state(params), 0, 0, 0.0)
    clean = tmp_path / "clean.ckpt"
    training.save_checkpoint(ck, clean)
    raw = clean.read_bytes()
    moments = 2 * 4 * topology.param_count(TINY)
    (tmp_path / "moments.ckpt").write_bytes(raw[:-moments] + b"\xff" * moments)
    (tmp_path / "short.ckpt").write_bytes(raw[:-1])
    vol, _ = volume.generate_synthetic(
        volume.SyntheticSpec(seed=2, dims=(16, 16, 16), channels=1, num_classes=2)
    )
    vp = tmp_path / "v.rvol"
    volume.write_volume(vol, vp)

    def predict(name):
        out = tmp_path / name
        rc = cli.main(["predict", "--checkpoint", str(tmp_path / f"{name}.ckpt"), "--input", str(vp),
                       "--out", str(out / "p.rvol"), "--logits", str(out / "l.rvol")])
        return rc, [(out / f).read_bytes() for f in ("p.rvol", "l.rvol")] if rc == 0 else None

    assert predict("clean") == predict("moments")
    assert predict("short") == (2, None)


def test_predict_roi_violations_exit_2(tmp_path, capsys):
    params = topology.init_params(TINY, 0)
    ck = training.Checkpoint(TINY, params, training.init_optim_state(params), 0, 0, 0.0)
    ckpt = tmp_path / "c.ckpt"
    training.save_checkpoint(ck, ckpt)
    vol, _ = volume.generate_synthetic(
        volume.SyntheticSpec(seed=2, dims=(16, 16, 16), channels=1, num_classes=2)
    )
    vp = tmp_path / "v.rvol"
    volume.write_volume(vol, vp)
    # roi not a multiple of the model constraint
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(vp),
                   "--out", str(tmp_path / "p.rvol"), "--roi", "12", "12", "12"])
    assert rc == 2
    # roi larger than the volume
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(vp),
                   "--out", str(tmp_path / "p.rvol"), "--roi", "32", "32", "32"])
    assert rc == 2
    # a roi dim below 1 is refused by name
    capsys.readouterr()
    for roi in (["-8", "8", "8"], ["0", "0", "0"]):
        rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(vp),
                       "--out", str(tmp_path / "p.rvol"), "--roi", *roi])
        assert rc == 2
        assert capsys.readouterr().err == f"error: roi {roi[0]} must be >= 1\n"


def test_predict_overfit_run_reaches_dice(tmp_path, overfit_run):
    vol, lab = overfit_run["vol"], overfit_run["lab"]
    vp = tmp_path / "v.rvol"
    volume.write_volume(vol, vp)
    outp = tmp_path / "pred.rvol"
    rc = cli.main(["predict", "--checkpoint", str(overfit_run["out"] / "best.ckpt"),
                   "--input", str(vp), "--out", str(outp),
                   "--roi", "16", "16", "16", "--logits", str(tmp_path / "logits.rvol")])
    assert rc == 0
    pred = read_labels(outp, num_classes=2)
    inter = int(((pred.data == 1) & (lab.data == 1)).sum())
    denom = int((pred.data == 1).sum()) + int((lab.data == 1).sum())
    assert 2.0 * inter / denom >= 0.95
    assert (tmp_path / "logits.rvol").exists()


def _make_eval_dirs(tmp_path, identical=True):
    rng = np.random.default_rng(8)
    pred_d = tmp_path / "pred"
    gt_d = tmp_path / "gt"
    pred_d.mkdir()
    gt_d.mkdir()
    labs = []
    for i in range(3):
        lab = LabelVolume(rng.integers(0, 2, (8, 8, 8)).astype(np.int32), 2)
        volume.write_labels(lab, gt_d / f"case{i}.rvol")
        out = lab if identical else LabelVolume(np.zeros((8, 8, 8), np.int32), 2)
        volume.write_labels(out, pred_d / f"case{i}.rvol")
        labs.append(lab)
    return pred_d, gt_d, labs


def test_evaluate_identical_dirs_all_ones(tmp_path, capsys):
    pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
    outp = tmp_path / "report.csv"
    rc = cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                   "--out", str(outp), "--regions", "perclass"])
    assert rc == 0
    lines = outp.read_text().splitlines()
    assert lines[0] == "case,hd95_avg,dsc_avg,hd95_class1,dsc_class1"
    for row in lines[1:4]:
        cells = row.split(",")
        assert float(cells[2]) == 1.0 and float(cells[1]) == 0.0


def test_evaluate_matches_library_and_mean_row(tmp_path):
    pred_d, gt_d, labs = _make_eval_dirs(tmp_path)
    outp = tmp_path / "report.csv"
    assert cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                     "--out", str(outp), "--regions", "perclass"]) == 0
    lines = outp.read_text().splitlines()
    lib = evaluate_case(labs[0], labs[0], perclass_region_spec(2), case_id="case0.rvol")
    assert lines[1] == lib.csv_row()
    rows = [list(map(float, l.split(",")[1:])) for l in lines[1:4]]
    mean_row = [float(v) for v in lines[4].split(",")[1:]]
    assert mean_row == pytest.approx(np.mean(rows, axis=0).tolist())


def test_evaluate_unmatched_case_exit_2(tmp_path, capsys):
    pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
    (pred_d / "case2.rvol").unlink()
    rc = cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                   "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "case2.rvol" in capsys.readouterr().err


def test_evaluate_out_a_directory_exits_2(tmp_path, capsys):
    pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
    rc = cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                   "--out", str(gt_d)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(gt_d) in err


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--seed", "-1"),
    ("synth", "--seed", "-1"),
    ("gradcheck", "--seed", "-1"),
    ("synth", "--count", "0"),
    ("synth", "--dims", "-1 4 4"),  # no blobs: nothing else refuses these dims
    ("synth", "--dims", "0 4 4"),
], ids=lambda v: v.strip("-").replace(" ", "-"))
def test_negative_seed_or_empty_count_exits_2(tmp_path, capsys, command, flag, value):
    args = {
        "train": ["--config", str(write_config(tmp_path, tiny_config_dict())), "--out", str(tmp_path / "o")],
        "synth": ["--out", str(tmp_path / "s"), "--dims", "16", "16", "16", "--blobs", "0"],
        "gradcheck": ["--samples", "27"],
    }[command]
    values = value.split()
    assert cli.main([command, *args, flag, *values]) == 2
    err = capsys.readouterr().err
    got = values[0] if len(values) == 1 else f"({', '.join(values)})"
    assert err.startswith("error: ") and f"{flag.strip('-')} must be >= " in err and f"got {got}" in err
    assert "Traceback" not in err and not (tmp_path / "o").exists() and not (tmp_path / "s").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("gradcheck", "--tolerance", "nan", "tolerance must be finite and >= 0, got nan"),
    ("gradcheck", "--tolerance", "inf", "tolerance must be finite and >= 0, got inf"),
    ("gradcheck", "--tolerance", "-1", "tolerance must be finite and >= 0, got -1.0"),
    ("gradcheck", "--samples", "-3", "num_samples must be >= 1, got -3"),
    ("gradcheck", "--samples", "0", "num_samples must be >= 1, got 0"),
    ("synth", "--blobs", "-1", "blobs_per_class must be >= 0, got -1"),
    ("synth", "--sigma", "nan", "noise_sigma must be a finite float, got NaN"),
], ids=["tolerance-nan", "tolerance-inf", "tolerance-negative", "samples-negative",
        "samples-zero", "blobs-negative", "sigma-nan"])
def test_malformed_check_or_blob_flag_exits_2(tmp_path, capsys, command, flag, value, message):
    # a NaN or infinite tolerance fails no probe, so the check would pass
    # whatever the gradients are; tolerance 0 stays legal (every probe is
    # listed as a failure). A negative blob count would draw no blobs
    args = {
        "synth": ["--out", str(tmp_path / "s"), "--dims", "16", "16", "16"],
        "gradcheck": ["--samples", "27"],
    }[command]
    assert cli.main([command, *args, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_gradcheck_cli_exit_codes():
    assert cli.main(["gradcheck", "--samples", "27", "--seed", "2"]) == 0


def test_build_id_stable():
    assert cli.build_id() == cli.build_id()
    assert len(cli.build_id()) == 12


def test_evaluate_regions_from_json_file(tmp_path):
    pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
    spec_file = tmp_path / "regions.json"
    spec_file.write_text(json.dumps({"FG": [1]}))
    outp = tmp_path / "r.csv"
    rc = cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                   "--out", str(outp), "--regions", str(spec_file)])
    assert rc == 0
    assert outp.read_text().splitlines()[0] == "case,hd95_avg,dsc_avg,hd95_FG,dsc_FG"


def test_evaluate_report_quotes_names_with_commas(tmp_path):
    # a case file and a region named with a comma stay one cell each, and
    # every row keeps the header's column count
    pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
    for d in (pred_d, gt_d):
        (d / "case0.rvol").rename(d / "a,b.rvol")
    spec_file = tmp_path / "regions.json"
    spec_file.write_text(json.dumps({"a,b": [1]}))
    outp = tmp_path / "r.csv"
    assert cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                     "--out", str(outp), "--regions", str(spec_file)]) == 0
    with open(outp, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["case", "hd95_avg", "dsc_avg", "hd95_a,b", "dsc_a,b"]
    assert [r[0] for r in rows[1:]] == ["a,b.rvol", "case1.rvol", "case2.rvol", "mean"]
    assert all(len(r) == len(rows[0]) for r in rows)
    assert float(rows[1][4]) == 1.0


@pytest.mark.parametrize("text", ["{bad", '{"FG": 1}', "{}", '{"WT": [1, 2, 3], "X": [-1]}'],
                         ids=["not_json", "ids_not_a_list", "no_regions", "negative_id"])
def test_evaluate_bad_regions_file_exits_2(tmp_path, capsys, text):
    pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
    spec_file = tmp_path / "regions.json"
    spec_file.write_text(text)
    rc = cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                   "--out", str(tmp_path / "r.csv"), "--regions", str(spec_file)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_dir_labels_take_the_model_class_count(tmp_path):
    # a 3-class model on cases where one lacks class 2: the labels are read
    # as 3-class labels, not with the count the file's largest label suggests
    d = tmp_path / "cases"
    d.mkdir()
    for i, classes in enumerate((3, 2)):
        vol, lab = volume.generate_synthetic(volume.SyntheticSpec(
            seed=60 + i, dims=(16, 16, 16), channels=1, num_classes=classes, radius_range=(3, 4)))
        volume.write_volume(vol, d / f"case{i:03d}_img.rvol")
        volume.write_labels(lab, d / f"case{i:03d}_lbl.rvol")
    cfg = tiny_config_dict(epochs=1)
    cfg["model"]["num_classes"] = 3
    cfg["data"] = {"train_dir": str(d)}
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert (out / "best.ckpt").is_file()


def test_evaluate_extra_predicted_class_reports_sentinel(tmp_path):
    # no ET in the ground truth, one ET voxel in the prediction: the ET
    # region scores the volume-diagonal sentinel instead of failing the read
    gt = np.zeros((8, 8, 8), np.int32)
    gt[2:5, 2:5, 2:5] = 2
    gt[3, 3, 3] = 1
    pred = gt.copy()
    pred[6, 6, 6] = 3
    pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
    pred_d.mkdir()
    gt_d.mkdir()
    volume.write_labels(LabelVolume(gt, 3), gt_d / "case0.rvol")
    volume.write_labels(LabelVolume(pred, 4), pred_d / "case0.rvol")
    outp = tmp_path / "r.csv"
    assert cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                     "--out", str(outp)]) == 0
    header, row = outp.read_text().splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["hd95_ET"]) == metrics.diagonal_sentinel((8, 8, 8), (1.0, 1.0, 1.0))
    assert float(cells["dsc_ET"]) == 0.0


def test_evaluate_uses_ground_truth_spacing(tmp_path):
    spacing = (0.5, 1.0, 2.0)
    zz, yy, xx = np.meshgrid(*[np.arange(16)] * 3, indexing="ij")
    gt = ((zz - 8) ** 2 + (yy - 8) ** 2 + (xx - 8) ** 2 <= 25).astype(np.int32)
    pred = ((zz - 7) ** 2 + (yy - 8) ** 2 + (xx - 9) ** 2 <= 16).astype(np.int32)
    pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
    pred_d.mkdir()
    gt_d.mkdir()
    volume.write_labels(LabelVolume(gt, 2, spacing), gt_d / "case0.rvol")
    volume.write_labels(LabelVolume(pred, 2, spacing), pred_d / "case0.rvol")
    outp = tmp_path / "r.csv"
    assert cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                     "--out", str(outp), "--regions", "perclass"]) == 0
    header, row = outp.read_text().splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    mask = metrics.BinaryMask
    expect = metrics.hd95(mask(pred == 1, spacing), mask(gt == 1, spacing))
    assert expect != metrics.hd95(mask(pred == 1), mask(gt == 1))
    assert float(cells["hd95_class1"]) == expect


def test_evaluate_spacing_mismatch_exit_2(tmp_path, capsys):
    lab = np.zeros((8, 8, 8), np.int32)
    lab[2:5, 2:5, 2:5] = 1
    pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
    pred_d.mkdir()
    gt_d.mkdir()
    volume.write_labels(LabelVolume(lab, 2, (0.5, 1.0, 2.0)), gt_d / "case0.rvol")
    volume.write_labels(LabelVolume(lab, 2), pred_d / "case0.rvol")
    rc = cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                   "--out", str(tmp_path / "r.csv"), "--regions", "perclass"])
    assert rc == 2
    assert "spacing" in capsys.readouterr().err


def test_predict_keeps_the_input_spacing(tmp_path):
    params = topology.init_params(TINY, 0)
    ck = training.Checkpoint(TINY, params, training.init_optim_state(params), 0, 0, 0.0)
    ckpt = tmp_path / "c.ckpt"
    training.save_checkpoint(ck, ckpt)
    vp = tmp_path / "v.rvol"
    spacing = (0.5, 1.0, 2.0)
    volume.write_volume(volume.VolumeTensor(np.zeros((1, 16, 16, 16), np.float32), spacing), vp)
    outp = tmp_path / "pred.rvol"
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(vp), "--out", str(outp)])
    assert rc == 0
    assert read_labels(outp).spacing == spacing


def _predict_inputs(tmp_path):
    """`predict` arguments naming a TINY checkpoint and a 16^3 input written under tmp_path."""
    params = topology.init_params(TINY, 0)
    ckpt = tmp_path / "c.ckpt"
    training.save_checkpoint(
        training.Checkpoint(TINY, params, training.init_optim_state(params), 0, 0, 0.0), ckpt)
    vp = tmp_path / "v.rvol"
    volume.write_volume(volume.VolumeTensor(np.zeros((1, 16, 16, 16), np.float32)), vp)
    return ["predict", "--checkpoint", str(ckpt), "--input", str(vp)]


def test_predict_writes_logits_into_a_new_directory(tmp_path):
    args = _predict_inputs(tmp_path)
    outp, lp = tmp_path / "pred" / "p.rvol", tmp_path / "nodir" / "l.rvol"
    assert cli.main(args + ["--out", str(outp), "--logits", str(lp)]) == 0
    assert volume.read_volume(lp).data.shape == (2, 16, 16, 16)
    assert json.loads((outp.parent / "manifest.json").read_text())["outputs"] == ["p.rvol", "l.rvol"]


def test_predict_logits_under_a_file_fails_before_inference(tmp_path, monkeypatch, capsys):
    def no_infer(*a):
        raise AssertionError("inference ran before the output directories were made")

    monkeypatch.setattr(volume, "sliding_window_infer", no_infer)
    (tmp_path / "f").write_text("")
    args = _predict_inputs(tmp_path)
    outp = tmp_path / "pred" / "p.rvol"
    assert cli.main(args + ["--out", str(outp), "--logits", str(tmp_path / "f" / "l.rvol")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "f") in err and ".tmp" not in err
    assert not outp.exists()


def test_trace_flags_decoded_like_config_files(capsys):
    assert cli.main(["trace", "--variant", "2", "--embed-dim", "8", "--heads", "2", "4",
                     "--in-channels", "1", "--classes", "2", "--dims", "16", "16", "16"]) == 0
    assert "HRSTNet-2  embed_dim=8 patch=4 window=4" in capsys.readouterr().out
    assert cli.main(["trace", "--heads", "3"]) == 2  # variant 4 needs four head counts
    assert capsys.readouterr().err.startswith("error: ")


def test_trace_refuses_the_dims_forward_graph_refuses(capsys):
    for flags, multiple in (
        (["--dims", "0", "-8", "7"], 32),
        (["--dims", "31", "32", "32", "--variant", "2", "--embed-dim", "8", "--heads", "2", "4"], 8),
    ):
        assert cli.main(["trace", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"multiples of {multiple}" in err
        assert "Traceback" not in err
    assert cli.main(["trace", "--dims", "64", "64", "96"]) == 0
    assert "VIOLATION: input dims (64, 64, 96) need padding" in capsys.readouterr().out


def test_evaluate_perclass_scores_a_class_only_the_prediction_holds(tmp_path):
    # ground truth {0, 1}, one class-2 voxel in the prediction: class 2 is a
    # false positive (Dice 0, HD95 sentinel), not an uncovered label id
    gt = np.zeros((8, 8, 8), np.int32)
    gt[2:5, 2:5, 2:5] = 1
    pred = gt.copy()
    pred[6, 6, 6] = 2
    pred_d, gt_d = tmp_path / "pred", tmp_path / "gt"
    pred_d.mkdir()
    gt_d.mkdir()
    volume.write_labels(LabelVolume(gt, 2), gt_d / "case0.rvol")
    volume.write_labels(LabelVolume(pred, 3), pred_d / "case0.rvol")
    outp = tmp_path / "r.csv"
    assert cli.main(["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d),
                     "--out", str(outp), "--regions", "perclass"]) == 0
    header, row = outp.read_text().splitlines()[:2]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["dsc_class1"]) == 1.0
    assert float(cells["dsc_class2"]) == 0.0
    assert float(cells["hd95_class2"]) == metrics.diagonal_sentinel((8, 8, 8), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("command", ["evaluate", "trace"])
def test_a_failed_report_write_leaves_the_previous_report_whole(tmp_path, monkeypatch, capsys, command):
    if command == "evaluate":
        pred_d, gt_d, _ = _make_eval_dirs(tmp_path)
        out = tmp_path / "report.csv"
        args = ["evaluate", "--pred-dir", str(pred_d), "--gt-dir", str(gt_d), "--out", str(out),
                "--regions", "perclass"]
    else:
        out = tmp_path / "trace.json"
        args = ["trace", "--dims", "128", "128", "128", "--json", str(out)]
    assert cli.main(args) == 0
    before = out.read_bytes()[:-1] + b"#"  # a previous report that differs from the next
    out.write_bytes(before)

    def full_disk(fd):  # the new bytes are written but not yet durable
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(volume.os, "fsync", full_disk)
    assert cli.main(args) == 2
    assert "No space left" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert not list(out.parent.glob("*.tmp"))
