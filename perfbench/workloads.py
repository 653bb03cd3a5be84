"""The benchmark's four workloads.

Every workload builds its inputs from an input set picked by the seed, runs
ops through the engine's public functions in a closed loop (one caller; the
next op starts when the previous one has ended) and checks each op's output
against the stored references in reference.json. Module functions are always
called through their module (`training.backward`, not a bare `backward`) so
the traced run's wrappers see the calls.
"""

from __future__ import annotations

import base64
import math
import shutil
import zlib
from pathlib import Path

import numpy as np

from hrstnet import metrics, topology, training, volume

# The seed picks one of POOL input sets (seed % POOL); each has stored
# reference outputs, so every op's output can be checked exactly.
POOL = 16

# Loss and gradient-norm tolerance: relative, loose enough for low-bit
# changes such as another gradient accumulation order. Losses alone would
# not catch a wrong gradient (an AdamW step follows the gradient's sign, so
# the loss barely moves in a few steps); per-group gradient norms do.
LOSS_RTOL = 1e-4
GRAD_RTOL = 1e-4
VAL_DSC_ATOL = 1e-2
# Share of sampled voxels whose predicted label must match the reference.
LABEL_AGREEMENT = 0.999
LOGIT_RTOL = 1e-3

TINY = topology.ModelConfig(
    variant=2, embed_dim=8, patch_size=4, window=2, heads=(2, 4),
    in_channels=1, num_classes=2,
)
V4 = topology.ModelConfig(
    variant=4, embed_dim=16, patch_size=4, window=4, heads=(1, 2, 4, 8),
    in_channels=1, num_classes=2,
)
PAPER = topology.ModelConfig()


def input_set(seed: int) -> int:
    return seed % POOL


def derive(input_id: int, *tags: int) -> int:
    """A 32-bit seed for one input of an input set."""
    return int(np.random.SeedSequence([input_id, *tags]).generate_state(1)[0])


def close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref) + 1e-12


def grad_norms(grads) -> dict[str, float]:
    """L2 norm, in float64, of the gradient of each parameter group (the name up
    to its first dot: embed, stage1, mrff2, head, ...)."""
    squares: dict[str, float] = {}
    for name, g in grads.items():
        group = name.split(".", 1)[0]
        squares[group] = squares.get(group, 0.0) + float(np.sum(np.asarray(g, np.float64) ** 2))
    return {group: math.sqrt(v) for group, v in sorted(squares.items())}


def check_close(got: dict, ref: dict, rtol: float, what: str) -> tuple[bool, str]:
    """Every value of `got` finite and within `rtol` of `ref`, key by key."""
    if got.keys() != ref.keys():
        return False, f"{what}: keys {sorted(got)} != reference {sorted(ref)}"
    for key, a in got.items():
        xs, ys = (a, ref[key]) if isinstance(a, list) else ([a], [ref[key]])
        if len(xs) != len(ys):
            return False, f"{what} {key}: {len(xs)} values, reference has {len(ys)}"
        for x, y in zip(xs, ys):
            if not close(x, y, rtol):
                return False, f"{what} {key}: {x!r} != reference {y!r}"
    return True, ""


def closed_loop(workload, st, stats, deadline: float, clock) -> None:
    """Run ops until the deadline (at least one); check each one that returned
    and count the voxels of each that passed."""
    i = 0
    while i == 0 or clock() < deadline:
        workload.prepare(st, i)
        with stats.op() as op:
            out = workload.op(st, i)
        if op.ok and stats.check(*workload.check(st, i, out)):
            stats.add_work(workload.op_voxels, op.seconds)
        workload.cleanup(st, i)
        i += 1


class Workload:
    name = ""
    op_voxels = 0
    CYCLE = 1  # op i is checked against the reference of op i % CYCLE
    HOST_KERNEL = "mixed"  # the calibration kernel whose speed the op's follows (harness.CAL_KERNELS)

    def inputs(self, input_id: int) -> dict:
        """The generated inputs of an input set (what the program is given)."""
        raise NotImplementedError

    def setup(self, input_id: int, workdir: Path) -> dict:
        """Inputs plus model and optimizer state; timed as set-up."""
        raise NotImplementedError

    def prepare(self, st: dict, i: int) -> None:
        """Untimed work before op i."""

    def op(self, st: dict, i: int):
        raise NotImplementedError

    def summary(self, out):
        """The JSON-able part of an op's output that is stored as reference."""
        raise NotImplementedError

    def check(self, st: dict, i: int, out) -> tuple[bool, str]:
        raise NotImplementedError

    def cleanup(self, st: dict, i: int) -> None:
        """Untimed work after op i has been checked."""

    def warmup(self, st: dict, stats, clock) -> None:
        self.prepare(st, 0)
        with stats.op() as op:
            out = self.op(st, 0)
        if op.ok:
            stats.check(*self.check(st, 0, out))
        self.cleanup(st, 0)

    def run(self, st: dict, stats, deadline: float, clock) -> None:
        closed_loop(self, st, stats, deadline, clock)

    def reference(self, input_id: int, workdir: Path):
        """Summaries of ops 0..CYCLE-1 on a fresh set-up."""
        st = self.setup(input_id, workdir)
        refs = []
        for i in range(self.CYCLE):
            self.prepare(st, i)
            refs.append(self.summary(self.op(st, i)))
            self.cleanup(st, i)
        return refs


# ------------------------------------------------------------------ train_tiny


class TrainTiny(Workload):
    """One op = one seeded `training.train()` call: one epoch of one step on a
    32^3 crop, validation by sliding window, best/latest checkpoints and the log."""

    name = "train_tiny"
    CYCLE = 4
    HOST_KERNEL = "compute"  # interpreter-bound: ~1.1k small tape nodes
    STEPS = 1
    CROP = (32, 32, 32)
    op_voxels = STEPS * 32**3

    def inputs(self, input_id):
        def case(k, dims):
            return volume.generate_synthetic(volume.SyntheticSpec(
                seed=derive(input_id, 1, k), dims=dims, channels=1, num_classes=2,
                radius_range=(5, 8),
            ))

        return {
            "train": [case(k, (40, 40, 40)) for k in range(self.STEPS)],
            "val": [case(self.STEPS, self.CROP)],
        }

    def setup(self, input_id, workdir):
        return {"input_id": input_id, "workdir": workdir, **self.inputs(input_id)}

    def _out_dir(self, st, i) -> Path:
        return st["workdir"] / f"train_tiny-{i}"

    def prepare(self, st, i):
        self._out_dir(st, i).mkdir(parents=True, exist_ok=True)

    def op(self, st, i):
        cfg = training.TrainConfig(
            epochs=1, crop=self.CROP, seed=derive(st["input_id"], 2, i % self.CYCLE),
            base_lr=1e-2, warmup_epochs=0, val_every=1,
        )
        return training.train(cfg, TINY, st["train"], st["val"], out_dir=str(self._out_dir(st, i)))

    def summary(self, result):
        # After the single step, AdamW's first moment is (1 - beta1) * gradient.
        return {
            "loss": [float(r["loss"]) for r in result.log_rows],
            "m_norms": grad_norms(result.checkpoint.opt_state.m),
            "val_dsc": float(result.log_rows[-1]["val_dsc"]),
        }

    def check(self, st, i, result):
        ref = st["ref"][i % self.CYCLE]
        got = self.summary(result)
        out = self._out_dir(st, i)
        ok, reason = check_close({"loss": got["loss"]}, {"loss": ref["loss"]}, LOSS_RTOL, f"op {i}")
        if ok:
            ok, reason = check_close(got["m_norms"], ref["m_norms"], GRAD_RTOL, f"op {i} first-moment norm")
        if not ok:
            return False, reason
        if not abs(got["val_dsc"] - ref["val_dsc"]) <= VAL_DSC_ATOL:
            return False, f"op {i}: val_dsc {got['val_dsc']!r} != reference {ref['val_dsc']!r}"
        for name in ("best.ckpt", "latest.ckpt", "train_log.csv"):
            if not (out / name).is_file():
                return False, f"op {i}: train() wrote no {name}"
        log_lines = (out / "train_log.csv").read_text().splitlines()
        if len(log_lines) != 1 + self.STEPS:
            return False, f"op {i}: train_log.csv has {len(log_lines)} lines"
        return True, ""

    def cleanup(self, st, i):
        shutil.rmtree(self._out_dir(st, i), ignore_errors=True)


# ----------------------------------------------------------------- train_v4_64


class TrainV4(Workload):
    """One op = one optimizer step: random 64^3 crop, backward, AdamW.

    Every CYCLE steps params and optimizer state go back to their initial
    values (untimed), so step k of every cycle has a stored reference loss.
    """

    name = "train_v4_64"
    CYCLE = 4
    CROP = (64, 64, 64)
    LR = 1e-3
    op_voxels = 64**3

    def inputs(self, input_id):
        return {"cases": [
            volume.generate_synthetic(volume.SyntheticSpec(
                seed=derive(input_id, 1, k), dims=(80, 80, 80), channels=1,
                num_classes=2, radius_range=(8, 14),
            ))
            for k in range(2)
        ]}

    def setup(self, input_id, workdir):
        st = {"input_id": input_id, **self.inputs(input_id)}
        st["init"] = topology.init_params(V4, derive(input_id, 3))
        self._reset(st)
        return st

    def _reset(self, st):
        st["params"] = {k: v.copy() for k, v in st["init"].items()}
        st["opt"] = training.init_optim_state(st["params"])

    def prepare(self, st, i):
        if i % self.CYCLE == 0:
            self._reset(st)

    def op(self, st, i):
        k = i % self.CYCLE
        vol, lab = st["cases"][k % len(st["cases"])]
        cv, cl = volume.random_crop(vol, lab, self.CROP, derive(st["input_id"], 2, k))
        grads, losses = training.backward(V4, st["params"], cv, cl)
        training.adamw_step(st["params"], grads, st["opt"], self.LR)
        return losses, grads

    def summary(self, out):
        losses, grads = out
        return {"loss": list(losses), "grad_norms": grad_norms(grads)}

    def check(self, st, i, out):
        got, ref = self.summary(out), st["ref"][i % self.CYCLE]
        ok, reason = check_close({"loss": got["loss"]}, {"loss": ref["loss"]}, LOSS_RTOL, f"op {i}")
        if ok:
            ok, reason = check_close(got["grad_norms"], ref["grad_norms"], GRAD_RTOL, f"op {i} grad norm")
        return ok, reason


# --------------------------------------------------------------- predict_paper


class _PassAborted(Exception):
    """A tile op failed; the sliding-window pass it belonged to stops."""


def pack_labels(labels: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(labels.astype(np.uint8).tobytes(), 9)).decode()


def unpack_labels(text: str, shape) -> np.ndarray:
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), dtype=np.uint8).reshape(shape)


class PredictPaper(Workload):
    """One op = one 64^3 tile forward of the paper-default model, timed inside
    the model callable that `volume.sliding_window_infer` calls (8 tiles per
    96^3 pass at overlap 0.5)."""

    name = "predict_paper"
    DIMS = (96, 96, 96)
    ROI = (64, 64, 64)
    OVERLAP = 0.5
    SAMPLE_STRIDE = 4  # reference labels are kept on every 4th voxel per axis

    def inputs(self, input_id):
        vol, _ = volume.generate_synthetic(volume.SyntheticSpec(
            seed=derive(input_id, 1), dims=self.DIMS, channels=PAPER.in_channels,
            num_classes=PAPER.num_classes, radius_range=(8, 14),
        ))
        return {"vol": vol}

    def setup(self, input_id, workdir):
        params = topology.init_params(PAPER, derive(input_id, 3))
        return {"input_id": input_id, "params": params, **self.inputs(input_id)}

    def _tile_forward(self, st, tile):
        return topology.forward(PAPER, st["params"], tile)

    def summary(self, logits: np.ndarray) -> dict:
        s = self.SAMPLE_STRIDE
        labels = np.argmax(logits, axis=0)[::s, ::s, ::s]
        return {
            "labels": pack_labels(labels),
            "logit_mean": [float(x) for x in logits.mean(axis=(1, 2, 3), dtype=np.float64)],
            "logit_std": [float(x) for x in logits.std(axis=(1, 2, 3), dtype=np.float64)],
        }

    def check_pass(self, st, logits) -> tuple[bool, str]:
        ref = st["ref"]
        want = (PAPER.num_classes,) + self.DIMS
        if logits.shape != want:
            return False, f"logits shape {logits.shape} != {want}"
        if not np.isfinite(logits).all():
            return False, "non-finite logits"
        s = self.SAMPLE_STRIDE
        labels = np.argmax(logits, axis=0)[::s, ::s, ::s]
        agree = float((labels == unpack_labels(ref["labels"], labels.shape)).mean())
        if agree < LABEL_AGREEMENT:
            return False, f"labels agree with reference on {agree:.5f} of sampled voxels"
        got = self.summary(logits)
        stats = ("logit_mean", "logit_std")
        return check_close({k: got[k] for k in stats}, {k: ref[k] for k in stats}, LOGIT_RTOL, "pass")

    def warmup(self, st, stats, clock):
        tile = volume.VolumeTensor(st["vol"].data[(slice(None),) + tuple(slice(0, r) for r in self.ROI)])
        with stats.op() as op:
            logits = self._tile_forward(st, tile)
        if op.ok:
            want = (PAPER.num_classes,) + self.ROI
            stats.check(logits.data.shape == want and bool(np.isfinite(logits.data).all()),
                        f"warm-up tile logits {logits.data.shape}, want {want} and finite")

    def run(self, st, stats, deadline, clock):
        # Tiles are checked through the assembled pass: sliding_window_infer
        # rejects tile logits of the wrong dims, and a non-finite tile makes
        # the averaged logits non-finite.
        def model(tile):
            with stats.op() as op:
                logits = self._tile_forward(st, tile)
            if not op.ok:
                raise _PassAborted
            return logits

        # A pass that fails in any way fails every tile op it attempted.
        passes = 0
        while passes == 0 or clock() < deadline:
            passes += 1
            attempted_before, failed_before = stats.attempted, stats.failed
            host_before = stats.host_seconds
            t0 = clock()
            try:
                logits = volume.sliding_window_infer(model, st["vol"], self.ROI, self.OVERLAP)
            except _PassAborted:
                ok, reason = False, f"pass {passes}: a tile op failed"
            except Exception as e:
                ok, reason = False, f"pass {passes}: sliding_window_infer: {type(e).__name__}: {e}"
            else:
                seconds = clock() - t0 - (stats.host_seconds - host_before)
                ok, reason = self.check_pass(st, logits.data)
            if ok:
                stats.add_work(int(np.prod(self.DIMS)), seconds, stats.attempted - attempted_before)
            else:
                stats.fail_since(attempted_before, failed_before, reason)

    def reference(self, input_id, workdir):
        st = self.setup(input_id, workdir)
        logits = volume.sliding_window_infer(
            lambda tile: self._tile_forward(st, tile), st["vol"], self.ROI, self.OVERLAP
        )
        return self.summary(logits.data)


# -------------------------------------------------------------- evaluate_brats


def sphere(dims, center, radius) -> np.ndarray:
    zz, yy, xx = np.ogrid[: dims[0], : dims[1], : dims[2]]
    c = center
    return (zz - c[0]) ** 2 + (yy - c[1]) ** 2 + (xx - c[2]) ** 2 <= radius * radius


def brats_pair(seed: int, dims=(96, 96, 96)) -> tuple[np.ndarray, np.ndarray]:
    """Nested BraTS-style (gt, pred) label maps: edema (2) holding an enhancing
    shell (3) around a necrotic core (1); pred is gt with each structure moved
    by up to 2 voxels per axis.

    Radii are fixed, so every seed gives the same surface sizes (the cost of
    HD95) and only positions vary.
    """
    rng = np.random.default_rng(seed)
    r_ed, r_et, r_ncr = 16, 10, 5
    ed = rng.integers(r_ed + 3, np.array(dims) - r_ed - 3)
    et = ed + rng.integers(-2, 3, 3)
    ncr = et + rng.integers(-1, 2, 3)

    def draw(ed_c, et_c, ncr_c):
        lab = np.zeros(dims, dtype=np.int32)
        lab[sphere(dims, ed_c, r_ed)] = 2
        lab[sphere(dims, et_c, r_et)] = 3
        lab[sphere(dims, ncr_c, r_ncr)] = 1
        return lab

    gt = draw(ed, et, ncr)
    j_ed = rng.integers(-2, 3, 3)
    j_et = j_ed + rng.integers(-1, 2, 3)
    pred = draw(ed + j_ed, et + j_et, ncr + j_et + rng.integers(-1, 2, 3))
    return gt, pred


class EvaluateBrats(Workload):
    """One op = one case scored as `hrstnet evaluate` does: `read_labels` on
    both files, then `metrics.evaluate_case` with the BraTS region spec."""

    name = "evaluate_brats"
    CYCLE = 8  # cases
    DIMS = (96, 96, 96)
    op_voxels = 96**3
    SPEC = metrics.brats_region_spec()

    def inputs(self, input_id):
        return {"pairs": [brats_pair(derive(input_id, 1, k), self.DIMS) for k in range(self.CYCLE)]}

    def setup(self, input_id, workdir):
        paths = []
        for k, (gt, pred) in enumerate(self.inputs(input_id)["pairs"]):
            pair = (workdir / f"gt{k:02d}.rvol", workdir / f"pred{k:02d}.rvol")
            volume.write_labels(volume.LabelVolume(gt, 4), pair[0])
            volume.write_labels(volume.LabelVolume(pred, 4), pair[1])
            paths.append(pair)
        return {"paths": paths}

    def op(self, st, i):
        gt_path, pred_path = st["paths"][i % self.CYCLE]
        gt = volume.read_labels(gt_path)
        pred = volume.read_labels(pred_path, num_classes=gt.num_classes)
        return metrics.evaluate_case(pred, gt, self.SPEC, case_id=gt_path.name)

    def summary(self, report):
        return {"dice": report.dice, "hd95": report.hd95}

    def check(self, st, i, report):
        got, ref = self.summary(report), st["ref"][i % self.CYCLE]
        return got == ref, f"op {i}: {got} != reference {ref}"


WORKLOADS = {w.name: w for w in (TrainTiny(), TrainV4(), PredictPaper(), EvaluateBrats())}
