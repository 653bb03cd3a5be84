"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N PASS (...)` line and enforces the
documented runtime budget. Desk-scale surrogates stand in for full-dataset
training runs; all tolerances are pinned here.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hrstnet import training, volume
from hrstnet.attention import attention_graph, compute_attn_mask, shift_region_ids
from hrstnet.metrics import (
    BinaryMask,
    brats_region_spec,
    brats_regions,
    diagonal_sentinel,
    dice_score,
    hd95,
    surface_voxels,
)
from hrstnet.topology import ModelConfig, init_params, param_count, shape_trace
from hrstnet.volume import LabelVolume, VolumeTensor
from hrstnet.windowing import partition_graph, reverse_graph, shift_graph

from conftest import TINY, graph, train_stopped_after
from test_attention import rand_attn_params
from test_windowing import round_trip

GOLDEN_TRACE = Path(__file__).parent / "data" / "golden_trace_hrstnet4_128.json"


class Budget:
    def __init__(self, criterion: int, limit_s: float):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *a):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            print(f"criterion {self.criterion} PASS ({elapsed:.2f}s, budget {self.limit:.0f}s)")
            assert elapsed < self.limit, f"criterion {self.criterion} over budget: {elapsed:.1f}s"
        else:
            print(f"criterion {self.criterion} FAIL ({elapsed:.2f}s)")
        return False


def test_c01_structural_fidelity():
    with Budget(1, 1.0):
        report = shape_trace(ModelConfig(), (128, 128, 128))
        golden = json.loads(GOLDEN_TRACE.read_text())
        assert json.loads(json.dumps(report)) == golden  # exact JSON match
        assert [s["resolution"] for s in report["streams"]] == [
            [32, 32, 32], [16, 16, 16], [8, 8, 8], [4, 4, 4]
        ]
        assert [s["heads"] for s in report["streams"]] == [3, 6, 12, 24]
        assert report["depth_per_block"] == 2
        assert report["violations"] == []


def test_c02_windowing_bijection():
    with Budget(2, 10.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            dims = tuple(int(d) for d in rng.integers(1, 10, 3))
            win = int(rng.integers(1, 5))
            g = rng.standard_normal((2,) + dims).astype(np.float32)
            back = round_trip(g, win)
            assert np.array_equal(back, g)
        for _ in range(1000):
            dims = tuple(int(d) for d in rng.integers(1, 10, 3))
            s = tuple(int(x) for x in rng.integers(-4, 5, 3))
            g = rng.standard_normal((2,) + dims).astype(np.float32)
            back = graph(shift_graph, graph(shift_graph, g, s), tuple(-x for x in s))
            assert np.array_equal(back, g)


def _dense_attention(tokens, p, heads, window, mask_row=None):
    t, c = tokens.shape
    dh = c // heads
    from hrstnet.attention import relative_position_index

    idx = relative_position_index(window)
    q = tokens @ p["attn.wq"].T + p["attn.bq"]
    k = tokens @ p["attn.wk"].T + p["attn.bk"]
    v = tokens @ p["attn.wv"].T + p["attn.bv"]
    outs = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh) + p["attn.bias_table"][idx, h]
        if mask_row is not None:
            logits = logits + mask_row
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ v[:, sl])
    return np.concatenate(outs, axis=1) @ p["attn.wo"].T + p["attn.bo"]


def test_c03_attention_oracle():
    with Budget(3, 30.0):
        rng = np.random.default_rng(303)
        for _ in range(200):
            w = int(rng.integers(1, 4))  # w^3 <= 27 tokens
            heads = int(rng.choice((1, 2, 4)))
            c = int(heads * rng.integers(1, 4))
            g = rng.standard_normal((c, w, w, w)).astype(np.float32)
            p = rand_attn_params(rng, c, heads, w)
            wins, _ = graph(partition_graph, g, w)
            out, _ = graph(attention_graph, wins, p, "attn", heads, w)
            oracle = _dense_attention(wins[0], p, heads, w)
            assert np.abs(out[0] - oracle).max() < 1e-5


def test_c04_shift_mask_isolation():
    with Budget(4, 10.0):
        rng = np.random.default_rng(404)
        for _ in range(50):
            w = int(rng.integers(2, 5))
            dims = tuple(int(w * rng.integers(1, 4)) for _ in range(3))
            shifts = tuple(int(rng.integers(0, w)) for _ in range(3))
            if not any(shifts):
                shifts = (1, 0, 0)
            heads = int(rng.choice((1, 2)))
            c = int(heads * rng.integers(1, 4))
            ids = np.roll(shift_region_ids(dims, w, shifts), shifts, (0, 1, 2))  # the original frame
            consts = {rid: float(i + 1) for i, rid in enumerate(np.unique(ids))}
            data = np.zeros((c,) + dims, np.float32)
            for rid, val in consts.items():
                data[:, ids == rid] = val
            p = {
                **rand_attn_params(rng, c, heads, w),
                "attn.wv": np.eye(c, dtype=np.float32), "attn.bv": np.zeros(c, np.float32),
                "attn.wo": np.eye(c, dtype=np.float32), "attn.bo": np.zeros(c, np.float32),
            }
            shifted = graph(shift_graph, data, tuple(-s for s in shifts))
            wins, padded = graph(partition_graph, shifted, w)
            mask = compute_attn_mask(dims, w, shifts)
            out, attn = graph(attention_graph, wins, p, "attn", heads, w, mask=mask)
            restored = graph(shift_graph, graph(reverse_graph, out, w, padded, dims), shifts)
            # cross-region attention mass is exactly zero...
            blocked = np.broadcast_to((mask < 0)[:, None], attn.shape)
            assert (attn[blocked] == 0.0).all()
            # ...so region constants pass through untouched
            assert np.abs(restored - data).max() < 1e-5


def test_c05_gradient_correctness():
    with Budget(5, 600.0):
        rep = training.finite_difference_check(
            TINY, seed=0, tolerance=1e-3, num_samples=200
        )
        assert rep.checked >= 200
        assert set(rep.families) == set(training.FD_FAMILIES)
        assert all(st["checked"] >= 3 for st in rep.families.values())
        assert rep.passed, rep.text()
        assert rep.max_rel_err < 1e-3


def test_c06_overfit_oracle(overfit_run):
    t0 = time.monotonic()
    rows = overfit_run["result"].log_rows
    assert len(rows) == 300  # 300 optimizer steps
    assert rows[-1]["loss"] < 0.05
    vol, lab = overfit_run["vol"], overfit_run["lab"]
    dsc = training.mean_foreground_dice(
        overfit_run["cfg"], overfit_run["result"].checkpoint.params,
        [(vol, lab)], (16, 16, 16),
    )
    assert dsc >= 0.95
    elapsed = overfit_run["train_seconds"] + (time.monotonic() - t0)
    assert elapsed < 1800.0
    print(f"criterion 6 PASS ({elapsed:.2f}s incl. training, budget 1800s)")


def test_c07_schedule_values():
    with Budget(7, 1.0):
        sched = training.ScheduleConfig(
            base_lr=1e-4, warmup_epochs=50, total_epochs=300, steps_per_epoch=4
        )
        assert training.lr_at(0, sched) == 0.0
        assert training.lr_at(sched.warmup_steps, sched) == pytest.approx(1e-4, abs=1e-15)
        assert training.lr_at(sched.total_steps, sched) == sched.min_lr == 0.0
        linear_limit = sched.base_lr * sched.warmup_steps / sched.warmup_steps
        assert abs(linear_limit - training.lr_at(sched.warmup_steps, sched)) < 1e-9


def _hd95_oracle(a: BinaryMask, b: BinaryMask) -> float:
    ea, eb = not a.data.any(), not b.data.any()
    if ea and eb:
        return 0.0
    if ea or eb:
        return diagonal_sentinel(a.data.shape, a.spacing)
    sp = np.asarray(a.spacing, dtype=np.float64)
    pa = surface_voxels(a.data) * sp
    pb = surface_voxels(b.data) * sp
    d_ab = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(-1).min(axis=1)
    d_ba = ((pb[:, None, :] - pa[None, :, :]) ** 2).sum(-1).min(axis=1)
    return float(np.percentile(np.sqrt(np.concatenate([d_ab, d_ba])), 95.0))


def test_c08_metric_oracles():
    with Budget(8, 60.0):
        rng = np.random.default_rng(808)
        for _ in range(500):
            dims = tuple(int(d) for d in rng.integers(1, 13, 3))
            sp = tuple(float(s) for s in rng.choice((0.5, 1.0, 2.0), 3))
            a = BinaryMask(rng.random(dims) < rng.uniform(0.0, 0.7), sp)
            b = BinaryMask(rng.random(dims) < rng.uniform(0.0, 0.7), sp)
            assert hd95(a, b) == _hd95_oracle(a, b)
        m = BinaryMask(rng.random((5, 5, 5)) < 0.4)
        assert dice_score(m, m) == 1.0
        d1 = np.zeros((4, 4, 4), bool)
        d2 = np.zeros((4, 4, 4), bool)
        d1[0, 0, 0] = True
        d2[1, 1, 1] = True
        assert dice_score(BinaryMask(d1), BinaryMask(d2)) == 0.0
        h1 = np.zeros((4, 4, 4), bool)
        h2 = np.zeros((4, 4, 4), bool)
        h1[0, 0, :4] = True
        h2[0, 0, 2:4] = True
        h2[0, 1, :2] = True
        assert dice_score(BinaryMask(h1), BinaryMask(h2)) == 0.5
        spec = brats_region_spec()
        for _ in range(100):
            lab = LabelVolume(rng.integers(0, 4, (6, 6, 6)).astype(np.int32), 4)
            r = brats_regions(lab, spec)
            assert not (r["TC"].data & ~r["WT"].data).any()
            assert not (r["ET"].data & ~r["TC"].data).any()


def test_c09_determinism_and_persistence(tmp_path):
    with Budget(9, 300.0):
        data = [
            volume.generate_synthetic(
                volume.SyntheticSpec(seed=40 + i, dims=(16, 16, 16), channels=1,
                                     num_classes=2, radius_range=(3, 4))
            )
            for i in range(2)
        ]
        cfg = training.TrainConfig(
            epochs=4, crop=(16, 16, 16), seed=1, base_lr=1e-3, warmup_epochs=1
        )
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        training.train(cfg, TINY, data, out_dir=str(run_a))
        training.train(cfg, TINY, data, out_dir=str(run_b))
        assert (run_a / "train_log.csv").read_bytes() == (run_b / "train_log.csv").read_bytes()

        # interrupted + resumed run reproduces the tail of the loss sequence
        part = tmp_path / "part"
        part.mkdir()
        train_stopped_after(2, cfg, TINY, data, out_dir=str(part))
        resumed = training.train(cfg, TINY, data, resume_from=part / "latest.ckpt", out_dir=str(part))
        full_rows = (run_a / "train_log.csv").read_text().splitlines()[1:]
        full_losses = [float(r.split(",")[3]) for r in full_rows]
        res_losses = [r["loss"] for r in resumed.log_rows]
        assert res_losses == full_losses[len(full_losses) - len(res_losses):]

        rng = np.random.default_rng(909)
        for _ in range(20):
            dims = tuple(int(d) for d in rng.integers(1, 7, 3))
            k = int(rng.integers(1, 4))
            vol = VolumeTensor(rng.standard_normal((k,) + dims).astype(np.float32))
            p = tmp_path / "v.rvol"
            volume.write_volume(vol, p)
            assert volume.read_volume(p).data.tobytes() == vol.data.tobytes()


def test_c10_channel_and_parameter_bookkeeping():
    with Budget(10, 60.0):
        rng = np.random.default_rng(1010)
        for _ in range(50):
            k = int(rng.choice((2, 3, 4)))
            c = int(rng.choice((4, 8, 12, 16)))
            heads = []
            for r in range(k):
                divisors = [h for h in (1, 2, 3, 4, 6, 8) if (c * 2**r) % h == 0]
                heads.append(int(rng.choice(divisors)))
            cfg = ModelConfig(
                variant=k, embed_dim=c, patch_size=int(rng.choice((2, 4))),
                window=int(rng.choice((2, 3, 4))), heads=tuple(heads),
                in_channels=int(rng.integers(1, 4)),
                num_classes=int(rng.integers(2, 5)),
            )
            params = init_params(cfg, int(rng.integers(1000)))
            assert sum(v.size for v in params.values()) == param_count(cfg)
            m = cfg.input_multiple
            report = shape_trace(cfg, (2 * m, 2 * m, 2 * m))
            for n in range(2, k + 1):
                for t in range(n):
                    blk = [b for b in report["blocks"] if b["name"] == f"mrff{n}.to{t}"][0]
                    assert blk["concat_channels"] == n * c * 2**t
