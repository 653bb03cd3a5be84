"""Losses, gradients, AdamW with warmup-cosine schedule, training loop,
checkpointing, the finite-difference gradient verifier, and the strict
decoder that builds config dataclasses from outside values.

The training recipe follows the reference setup: AdamW at base lr 1e-4 with
50 warmup epochs and cosine decay, batch size 1 on random crops, loss =
soft dice + cross entropy, and best-validation-DSC checkpoint selection.
Everything is seed-deterministic: per-epoch shuffles and per-sample crop
offsets are derived from (seed, epoch, index), so a resumed run reproduces
the uninterrupted loss sequence bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import struct
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import CheckpointError, ConfigError, FormatError, NumericError, ShapeError
from .metrics import BinaryMask, dice_score
from .topology import (
    ModelConfig,
    as_tensors,
    check_input_dims,
    flat_views,
    forward,
    forward_graph,
    init_params,
    is_whole,
    param_count,
    param_schema,
)
from .volume import (
    LabelVolume, SyntheticSpec, VolumeTensor, atomic_write, generate_synthetic, random_crop,
    sliding_window_infer,
)

DICE_EPS = 1e-5


# ------------------------------------------------------- decoding outside values


def strict_section(raw: dict, allowed: set[str], where: str) -> None:
    """ConfigError naming `where` if `raw` holds a key outside `allowed`."""
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def typed(value, hint, where: str):
    """`value` checked against type `hint`: a JSON list becomes a tuple and an
    int stands for a float; anything else is a ConfigError naming `where`."""
    if typing.get_origin(hint) is tuple:
        kinds = typing.get_args(hint)
        if isinstance(value, list):
            kinds = kinds[:1] * len(value) if kinds[-1] is Ellipsis else kinds
            if len(kinds) == len(value):
                return tuple(typed(v, k, where) for v, k in zip(value, kinds))
    elif isinstance(value, hint) and not isinstance(value, bool):
        return value
    elif hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    name = str(hint) if typing.get_origin(hint) else hint.__name__
    raise ConfigError(f"{where} must be {name}, got {json.dumps(value)}")


def decode(cls, section, where: str):
    """Build dataclass `cls` from a JSON object; keys, types and required keys
    are taken from its fields. Config files, command-line flags and checkpoint
    metadata all come in through here."""
    known = {f.name: f for f in fields(cls)}
    strict_section(typed(section, dict, where), set(known), where)
    missing = [n for n, f in known.items() if f.default is MISSING and n not in section]
    if missing:
        raise ConfigError(f"{where} requires {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: typed(v, hints[k], f"{where}.{k}") for k, v in section.items()})


# ------------------------------------------------------------------- losses


def one_hot(labels: LabelVolume) -> np.ndarray:
    classes = np.arange(labels.num_classes)[:, None, None, None]
    return (labels.data == classes).astype(np.float32)


def _check_loss_shapes(logits_shape, labels: LabelVolume):
    if logits_shape[0] != labels.num_classes:
        raise ShapeError(
            f"logits have {logits_shape[0]} channels, labels declare "
            f"{labels.num_classes} classes"
        )
    if tuple(logits_shape[1:]) != labels.dims:
        raise ShapeError(f"logits dims {logits_shape[1:]} != label dims {labels.dims}")


def combined_loss_graph(logits: Tensor, onehot: np.ndarray) -> tuple[Tensor, Tensor, Tensor]:
    """dice + CE as one node: dice = 1 - mean over classes of (2*sum(p*g)+eps)
    / (sum(p)+sum(g)+eps), eps = DICE_EPS, p = softmax over classes; ce = mean
    over voxels of -log p at the true class. Returns (total, dice, ce), the
    last two without tape. logits are a parent twice (softmax, log-softmax);
    the backward makes the composed graphs' numpy calls in their order."""
    x = logits.data
    f = x.dtype.type
    k, n_vox = x.shape[0], onehot[0].size
    hot = onehot.astype(x.dtype, copy=False)
    shifted = x - x.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    esum = e.sum(axis=0, keepdims=True)
    probs = e / esum
    num = (probs * hot).sum(axis=(1, 2, 3)) * f(2.0) + f(DICE_EPS)
    den = probs.sum(axis=(1, 2, 3)) + onehot.sum(axis=(1, 2, 3)).astype(x.dtype) + f(DICE_EPS)
    rden = den**-1.0
    dice = (num * rden).sum() * f(1.0 / k) * f(-1.0) + f(1.0)
    ls = shifted - np.log(esum)
    ce = (ls * hot).sum() * f(-1.0 / n_vox)

    def bwd(g):  # into buffers made here; gp and gx may be handed over, so neither is reused
        gpc = g * f(-1.0) * f(1.0 / k)
        gp, scratch = np.empty_like(probs), np.empty_like(probs)
        np.multiply(np.expand_dims(gpc * rden * f(2.0), (1, 2, 3)), hot, out=gp)
        gp += np.expand_dims(gpc * num * (-1.0 * den**-2.0), (1, 2, 3))
        np.subtract(gp, np.multiply(gp, probs, out=scratch).sum(axis=0, keepdims=True), out=gp)
        ad._accum(logits, np.multiply(probs, gp, out=gp))
        del gp
        gls = np.multiply(g * f(-1.0 / n_vox), hot, out=scratch)
        gx = np.exp(ls)
        gx *= gls.sum(axis=0, keepdims=True)
        ad._accum(logits, np.subtract(gls, gx, out=gx))

    return ad._node(dice + ce, (logits, logits), bwd), Tensor(dice), Tensor(ce)


# ----------------------------------------------------------------- backward


def backward(
    cfg: ModelConfig, params: Mapping[str, np.ndarray], vol: VolumeTensor,
    labels: LabelVolume,
) -> tuple[dict[str, np.ndarray], tuple[float, float, float]]:
    """Reverse-mode gradients of the combined loss for every parameter, as
    views of one flat array of the parameters' dtype laid out in `params`'
    order (`flat_views`): the first gradient to reach a parameter is copied
    into its view (`Tensor.grad_into`), or written there by the backward rule
    (conv3 and channels_linear weights), and a parameter the loss does not
    reach gets zeros."""
    _check_loss_shapes((cfg.num_classes,) + vol.dims, labels)
    pt = as_tensors(params, requires_grad=True)
    grads = flat_views({k: p.shape for k, p in params.items()}, np.result_type(*params.values()))
    for k, t in pt.items():
        t.grad_into = grads[k]
    logits = forward_graph(cfg, pt, Tensor(vol.data))
    total, dice, ce = combined_loss_graph(logits, one_hot(labels))
    if not math.isfinite(total.item()):
        raise NumericError(f"non-finite loss {total.item()}")
    total.backward()
    for k, t in pt.items():  # zeros where not reached; a gradient `_accum` did not make, copied in
        if t.grad is not grads[k]:
            grads[k][...] = 0.0 if t.grad is None else t.grad
    return grads, (total.item(), dice.item(), ce.item())


def _param_grads(pt: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Each parameter's gradient after backward(); zeros where it was not reached."""
    return {k: (t.grad if t.grad is not None else np.zeros_like(t.data)) for k, t in pt.items()}


# ----------------------------------------------------------------- schedule


@dataclass(frozen=True)
class ScheduleConfig:
    base_lr: float = 1e-4
    warmup_epochs: int = 50
    total_epochs: int = 300
    steps_per_epoch: int = 1
    min_lr: float = 0.0

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be > 0")
        if not 0 <= self.warmup_epochs <= self.total_epochs:
            raise ConfigError("need 0 <= warmup_epochs <= total_epochs")
        if self.steps_per_epoch < 1:
            raise ConfigError("steps_per_epoch must be >= 1")
        if not 0 <= self.min_lr <= self.base_lr:
            raise ConfigError("need 0 <= min_lr <= base_lr")

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch


def lr_at(step: int, sched: ScheduleConfig) -> float:
    """Linear warmup 0 -> base_lr, then cosine decay to min_lr.

    lr_at(0) = 0, lr_at(warmup_steps) = base_lr, lr_at(total_steps) = min_lr.
    """
    ws, ts = sched.warmup_steps, sched.total_steps
    if step < ws:
        return sched.base_lr * step / ws
    span = ts - ws
    t = 1.0 if span == 0 else min((step - ws) / span, 1.0)
    return sched.min_lr + 0.5 * (sched.base_lr - sched.min_lr) * (1.0 + math.cos(math.pi * t))


# ------------------------------------------------------------------- AdamW


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_SLICE = 1 << 20  # elements per slice of adamw_step's update


@dataclass
class OptimState:
    """Decoupled-weight-decay Adam moments; shapes mirror the parameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    weight_decay: float = 0.01


def init_optim_state(params: Mapping[str, np.ndarray], weight_decay: float = 0.01) -> OptimState:
    """Zero moments: m and v each views of one zeroed flat array, laid out as
    `backward` lays out the gradients."""
    shapes, dtype = {k: p.shape for k, p in params.items()}, np.result_type(*params.values())
    return OptimState(
        m=flat_views(shapes, dtype, np.zeros), v=flat_views(shapes, dtype, np.zeros),
        weight_decay=weight_decay,
    )


def _runs(names: list[str], *maps: Mapping[str, np.ndarray]) -> list[tuple[list[str], list[np.ndarray]]]:
    """(names, flats) for each run of tensors: one run of all `names` over
    each map's `flat` when every map is whole for them (`is_whole`), else
    one run per name, each map's tensor flattened by `reshape(-1)`."""
    if all(is_whole(m, names) for m in maps):
        return [(names, [m.flat for m in maps])]
    return [([k], [m[k].reshape(-1) for m in maps]) for k in names]


def adamw_step(
    params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
    state: OptimState, lr: float,
) -> tuple[dict[str, np.ndarray], OptimState]:
    """One AdamW update, in place; decay is p -= lr*wd*p, gradient-independent.

    The update walks runs (`_runs`): one run over the four flat arrays when
    p, g, m and v are each a whole `flat_views` map in the params' order
    (every state `train` makes), else one run per tensor. A run whose
    gradient is not all finite raises, naming its first non-finite
    parameter, before any array of the run is updated. A run is updated over
    flat slices of ADAM_SLICE elements, which may cross tensor boundaries,
    and two scratch arrays of one slice hold the temporaries of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g, p -= lr*wd*p and then
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps): the float32 operations of those
    expressions in their order, elementwise, so the bits are the expressions'
    own. A run of SPLIT_ELEMS elements or more deals its slices to two
    workers (`autodiff._split`), each with scratch arrays made here.
    """
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    decay = lr * state.weight_decay
    names = list(params)
    for run, (pf, gf, mf, vf) in _runs(names, params, grads, state.m, state.v):
        n = pf.size
        slices = -(-n // ADAM_SLICE)
        cut = ad._lead_cut(slices, n)
        width = min(n, ADAM_SLICE)
        scratch = [(np.empty(width, pf.dtype), np.empty(width, pf.dtype), np.empty(width, bool))
                   for _ in range(2 if cut else 1)]
        finite = [True, True]  # per piece; piece 0 starts at slice 0

        def check(a, b):  # whether slices a:b of the gradient are all finite
            piece = 0 if a == 0 else 1
            for i in range(a * ADAM_SLICE, min(n, b * ADAM_SLICE), ADAM_SLICE):
                gs = gf[i:i + ADAM_SLICE]
                if not np.isfinite(gs, out=scratch[piece][2][:gs.size]).all():
                    finite[piece] = False
                    return

        def update(a, b):
            s1, s2, _ = scratch[0 if a == 0 else 1]
            for i in range(a * ADAM_SLICE, min(n, b * ADAM_SLICE), ADAM_SLICE):
                at = slice(i, i + ADAM_SLICE)
                ps, gs, m, v = pf[at], gf[at], mf[at], vf[at]
                if ps.size < s1.size:
                    s1, s2 = s1[:ps.size], s2[:ps.size]
                m *= ADAM_BETA1
                m += np.multiply(gs, 1.0 - ADAM_BETA1, out=s1)
                v *= ADAM_BETA2
                v += np.multiply(np.multiply(gs, gs, out=s1), 1.0 - ADAM_BETA2, out=s1)
                np.divide(m, bc1, out=s1)
                np.sqrt(np.divide(v, bc2, out=s2), out=s2)
                np.divide(s1, np.add(s2, ADAM_EPS, out=s2), out=s1)
                ps -= np.multiply(ps, decay, out=s2)
                ps -= np.multiply(s1, lr, out=s1)

        ad._split(check, slices, cut)
        if not all(finite):
            bad = next(k for k in run if not np.isfinite(grads[k]).all())
            raise NumericError(f"non-finite gradient for {bad}")
        ad._split(update, slices, cut)
    state.step = t
    return params, state


# -------------------------------------------------------------- checkpoints


CKPT_MAGIC = b"HRSTCKPT"
CKPT_VERSION = 4
_CKPT_HEAD = struct.Struct("<8sIQ")  # magic, version, metadata length
_F4 = np.dtype("<f4")


@dataclass
class Checkpoint:
    model_config: ModelConfig
    params: dict[str, np.ndarray]
    opt_state: OptimState
    epoch: int
    global_step: int
    best_val_dsc: float


def _payload(ckpt: Checkpoint) -> tuple[list[str], tuple[Mapping[str, np.ndarray], ...]]:
    """The schema's names and the params, m and v maps, whose tensors the
    payload holds in that order, each map in schema order; CheckpointError
    unless each map holds the schema's names, shapes and float32."""
    schema = param_schema(ckpt.model_config)
    names = [spec.name for spec in schema]
    maps = (ckpt.params, ckpt.opt_state.m, ckpt.opt_state.v)
    for kind, tensors in zip(("params", "m", "v"), maps):
        if tensors.keys() != set(names):
            raise CheckpointError(
                f"{kind} names disagree with the parameter schema: {sorted(tensors.keys() ^ set(names))[:5]}"
            )
        for spec in schema:
            arr = tensors[spec.name]
            if arr.shape != spec.shape or arr.dtype != _F4:
                raise CheckpointError(
                    f"{kind} {spec.name} {arr.dtype} {arr.shape} disagrees with the parameter "
                    f"schema's float32 {spec.shape}"
                )
    return names, maps


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the header, the JSON metadata, then the raw payloads that
    `_payload` orders: one write per map that is a whole `flat_views` map in
    schema order (`_runs`), as every state `train` makes is, else one write
    per tensor. The file goes to
    `<path>.tmp`, is fsynced and replaces `path`, so a crash leaves the
    previous file or the new one whole."""
    names, maps = _payload(ckpt)
    meta = {
        "model_config": asdict(ckpt.model_config),
        "epoch": ckpt.epoch,
        "global_step": ckpt.global_step,
        "best_val_dsc": ckpt.best_val_dsc,
        "opt": {"step": ckpt.opt_state.step, "weight_decay": ckpt.opt_state.weight_decay},
    }
    blob = json.dumps(meta, sort_keys=True).encode()

    def write(f):
        f.write(_CKPT_HEAD.pack(CKPT_MAGIC, CKPT_VERSION, len(blob)))
        f.write(blob)
        for tensors in maps:
            for _, (run,) in _runs(names, tensors):
                f.write(run.data)

    try:
        atomic_write(path, write)
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path}: {e}") from e


def _link_checkpoint(src, ckpt: Checkpoint, path) -> None:
    """Give the checkpoint file `src`, which holds `ckpt`, the second name
    `path`: a hard link made at `<path>.tmp` and renamed over `path`, or
    `save_checkpoint(ckpt, path)` where the link (say, over a temp file left
    by a crash) or the rename fails."""
    tmp = f"{path}.tmp"
    try:
        os.link(src, tmp)
        os.replace(tmp, path)
    except OSError:
        save_checkpoint(ckpt, path)


def load_checkpoint(path, params_only: bool = False) -> Checkpoint:
    """Read a checkpoint. The metadata names the model, whose parameter schema
    fixes every tensor's name, shape and offset; metadata that does not decode,
    or a payload whose length is not the schema's, is a CheckpointError.
    Params, m and v are each views of one flat float32 array (`flat_views`),
    filled by one `readinto`. With params_only the read stops after the
    parameters, the first third of the payload, and the optimizer state's m
    and v are left empty."""
    try:
        with open(path, "rb") as f:
            left = os.fstat(f.fileno()).st_size - _CKPT_HEAD.size
            if left < 0:
                raise CheckpointError(f"{path}: truncated checkpoint")
            magic, version, blob_len = _CKPT_HEAD.unpack(f.read(_CKPT_HEAD.size))
            if magic != CKPT_MAGIC:
                raise CheckpointError(f"{path}: bad checkpoint magic")
            if version != CKPT_VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            if blob_len > left:
                raise CheckpointError(f"{path}: truncated checkpoint: metadata length {blob_len} > {left}")
            try:
                meta = json.loads(f.read(blob_len).decode())
                cfg = decode(ModelConfig, meta["model_config"], "model_config")
                schema = param_schema(cfg)
                opt = typed(meta["opt"], dict, "opt")
                opt_meta = {"step": typed(opt["step"], int, "opt.step"),
                            "weight_decay": typed(opt["weight_decay"], float, "opt.weight_decay")}
                position = [typed(meta[k], kind, k) for k, kind in
                            (("epoch", int), ("global_step", int), ("best_val_dsc", float))]
            except (ValueError, KeyError, TypeError, ConfigError) as e:  # ValueError: bad UTF-8 or JSON
                raise CheckpointError(f"{path}: bad checkpoint metadata: {type(e).__name__}: {e}") from e
            if position[0] < -1 or position[1] < 0 or opt_meta["step"] < 0:
                raise CheckpointError(
                    f"{path}: epoch {position[0]}, step {position[1]} and optimizer step "
                    f"{opt_meta['step']}; a run is at epoch >= -1 and steps >= 0"
                )
            left -= blob_len + 3 * _F4.itemsize * param_count(cfg)
            if left < 0:
                raise CheckpointError(f"{path}: truncated checkpoint: {-left} payload bytes missing")
            if left > 0:
                raise CheckpointError(f"{path}: {left} trailing bytes")
            fresh = lambda: flat_views({spec.name: spec.shape for spec in schema}, _F4)
            params = fresh()
            m, v = ({}, {}) if params_only else (fresh(), fresh())
            ckpt = Checkpoint(cfg, params, OptimState(m=m, v=v, **opt_meta), *position)
            for flat in (t.flat for t in ((params,) if params_only else (params, m, v))):
                if f.readinto(flat.data) != flat.nbytes:  # the file shrank while it was read
                    raise CheckpointError(f"{path}: truncated checkpoint")
            return ckpt
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e


# ------------------------------------------------------------ training loop


@dataclass
class TrainConfig:
    epochs: int
    crop: tuple[int, int, int]
    seed: int = 0
    base_lr: float = 1e-4
    warmup_epochs: int = 50
    val_every: int = 1
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.schedule(steps_per_epoch=1)  # ScheduleConfig checks base_lr and warmup_epochs
        if self.val_every < 1:
            raise ConfigError("val_every must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")

    def schedule(self, steps_per_epoch: int) -> ScheduleConfig:
        """This run's warmup-cosine schedule at `steps_per_epoch` optimizer steps per epoch."""
        return ScheduleConfig(self.base_lr, self.warmup_epochs, self.epochs, steps_per_epoch)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_rows: list[dict] = field(default_factory=list)


LOG_FIELDS = ("step", "epoch", "lr", "loss", "dice", "ce", "val_dsc")


def start_log_csv(path, resume_step: int | None) -> None:
    """Write the log header; a run resumed at `resume_step` keeps the rows an
    earlier run logged for the steps before it, rewriting the log whole."""
    header = ",".join(LOG_FIELDS) + "\n"
    if resume_step is None:  # a fresh run has no rows to lose
        with open(path, "w") as f:
            f.write(header)
        return
    kept = []
    if os.path.exists(path):
        with open(path) as f:
            rows = list(f)
        for line, row in enumerate(rows[1:], 2):
            step = row.split(",")[0]
            try:  # a last row without its newline was cut short by a crash
                if row.endswith("\n") and int(step) < resume_step:
                    kept.append(row)
            except ValueError as e:
                raise FormatError(f"{path} line {line}: step {step!r} is not an integer") from e
    atomic_write(path, lambda f: f.write("".join([header] + kept).encode()))


def append_log_csv(rows: Sequence[dict], path) -> None:
    with open(path, "a") as f:
        for row in rows:
            f.write(",".join(str(row.get(k, "")) for k in LOG_FIELDS) + "\n")


def _crop_seed(seed: int, epoch: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, epoch, index]).generate_state(1)[0])


VAL_OVERLAP = 0.5  # tile overlap of validation's sliding-window inference


def mean_foreground_dice(
    cfg: ModelConfig, params: Mapping[str, np.ndarray],
    pairs: Sequence[tuple[VolumeTensor, LabelVolume]],
    roi: tuple[int, int, int],
) -> float:
    """Mean over cases and foreground classes of argmax-vs-label `dice_score`,
    each case inferred with tiles of `roi` at `VAL_OVERLAP`."""
    model = lambda tile: forward(cfg, params, tile)
    scores = []
    for vol, lab in pairs:
        logits = sliding_window_infer(model, vol, roi, VAL_OVERLAP)
        pred = np.argmax(logits.data, axis=0)
        for c in range(1, lab.num_classes):
            scores.append(dice_score(BinaryMask(pred == c), BinaryMask(lab.data == c)))
    return float(np.mean(scores))


def train(
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
    train_set: Sequence[tuple[VolumeTensor, LabelVolume]],
    val_set: Sequence[tuple[VolumeTensor, LabelVolume]] | None = None,
    resume_from=None,
    *,
    out_dir,
) -> TrainResult:
    """Seeded training loop; checkpoints on best mean validation DSC.

    One `Checkpoint` is the run's state, advanced in place by every step and
    epoch: the epoch -1 state (seeded init, zero moments) for a fresh run, or
    the latest-checkpoint `resume_from` names, which continues identically to
    an uninterrupted run. Returns that state as the run ended, which holds
    the run's best DSC; the best state itself is kept only as `best.ckpt`.

    The run lives in the existing directory `out_dir`: `best.ckpt`,
    `latest.ckpt` and `train_log.csv` (each epoch's rows after its
    validation). An improving epoch writes its state once, as `best.ckpt`,
    and links `latest.ckpt` to it.
    """
    check_input_dims(model_cfg, train_cfg.crop)
    if not train_set:
        raise ConfigError("training set is empty")
    val_set = list(val_set) if val_set is not None else list(train_set)
    steps_per_epoch = len(train_set)
    sched = train_cfg.schedule(steps_per_epoch)

    if resume_from is not None:
        state = load_checkpoint(resume_from)
        if state.model_config != model_cfg:
            raise CheckpointError("checkpoint model config differs from requested config")
        if state.global_step != (state.epoch + 1) * steps_per_epoch:
            raise CheckpointError(
                f"checkpoint is at step {state.global_step} after epoch {state.epoch}; "
                f"{steps_per_epoch} training cases end that epoch at step "
                f"{(state.epoch + 1) * steps_per_epoch}"
            )
        if state.opt_state.weight_decay != train_cfg.weight_decay:
            raise CheckpointError(
                f"checkpoint weight decay {state.opt_state.weight_decay} differs from "
                f"requested {train_cfg.weight_decay}"
            )
    else:
        params = init_params(model_cfg, train_cfg.seed)
        state = Checkpoint(
            model_cfg, params, init_optim_state(params, weight_decay=train_cfg.weight_decay),
            epoch=-1, global_step=0, best_val_dsc=-1.0,
        )

    rows: list[dict] = []
    start_log_csv(f"{out_dir}/train_log.csv", None if resume_from is None else state.global_step)
    for epoch in range(state.epoch + 1, train_cfg.epochs):
        order = np.random.default_rng([train_cfg.seed, epoch]).permutation(steps_per_epoch)
        for i in order:
            vol, lab = train_set[int(i)]
            cv, cl = random_crop(vol, lab, train_cfg.crop, _crop_seed(train_cfg.seed, epoch, int(i)))
            grads, (total, dice, ce) = backward(model_cfg, state.params, cv, cl)
            lr = lr_at(state.global_step, sched)
            adamw_step(state.params, grads, state.opt_state, lr)
            del grads  # not held through the next step's backward, validation or saves
            rows.append(
                {"step": state.global_step, "epoch": epoch, "lr": lr, "loss": total,
                 "dice": dice, "ce": ce, "val_dsc": ""}
            )
            state.global_step += 1
        state.epoch = epoch
        improved = False
        if (epoch + 1) % train_cfg.val_every == 0 or epoch == train_cfg.epochs - 1:
            dsc = mean_foreground_dice(model_cfg, state.params, val_set, train_cfg.crop)
            rows[-1]["val_dsc"] = dsc
            improved = dsc > state.best_val_dsc
            if improved:
                state.best_val_dsc = dsc
                save_checkpoint(state, f"{out_dir}/best.ckpt")
        append_log_csv(rows[-steps_per_epoch:], f"{out_dir}/train_log.csv")
        if improved:  # latest.ckpt has best.ckpt's contents
            _link_checkpoint(f"{out_dir}/best.ckpt", state, f"{out_dir}/latest.ckpt")
        else:
            save_checkpoint(state, f"{out_dir}/latest.ckpt")
    return TrainResult(state, rows)


# ----------------------------------------------------- finite differences


# The central-difference step balances truncation against float64 rounding;
# larger steps measure the probe's own truncation error, not gradient error.
FD_STEP = 1e-5
FD_DATA_SEED = 7  # seed of the synthetic case the check differentiates on

# The checker samples the families in this order; every `ParamSpec.family`
# in the parameter schema is one of them.
FD_FAMILIES = (
    "embedding", "qkv", "bias_table", "layer_norm", "mlp",
    "merge", "expand", "residual", "head",
)


@dataclass
class FDReport:
    passed: bool
    tolerance: float
    max_rel_err: float
    checked: int
    families: dict[str, dict]
    failures: list[dict] = field(default_factory=list)

    def text(self) -> str:
        lines = [
            f"finite-difference check: {'PASS' if self.passed else 'FAIL'} "
            f"(max rel err {self.max_rel_err:.3e}, tol {self.tolerance:.1e}, "
            f"{self.checked} parameters)"
        ]
        for fam in FD_FAMILIES:
            st = self.families[fam]
            lines.append(
                f"  {fam:<12} checked {st['checked']:>4}  max rel err {st['max_rel_err']:.3e}"
                + ("" if st["failures"] == 0 else f"  FAILURES {st['failures']}")
            )
        return "\n".join(lines)


def generic_check_point(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """A non-degenerate float64 parameter point for gradient probing.

    The training init (tiny weights, zero biases/tables) makes attention
    collapse to token averaging, which drives instance-norm inputs nearly
    constant; the norm then amplifies probe perturbations across leaky-relu
    kinks and biases any finite-difference quotient. O(0.5)-scale weights
    and nonzero biases keep every activation away from that regime while
    exercising exactly the same backward rules.
    """
    rng = np.random.default_rng(seed)
    point = {}
    for spec in param_schema(cfg):
        if spec.init == "ones":
            point[spec.name] = 1.0 + 0.2 * rng.standard_normal(spec.shape)
        else:
            scale = 0.5 if spec.init == "trunc" else 0.2
            point[spec.name] = scale * rng.standard_normal(spec.shape)
    return point


def finite_difference_check(
    cfg: ModelConfig,
    seed: int = 0,
    tolerance: float = 1e-3,
    num_samples: int = 200,
) -> FDReport:
    """Compare reverse-mode gradients with float64 central differences.

    Samples at least `num_samples` coordinates stratified over every
    parameter family, probing at a generic parameter point (see
    `generic_check_point`) on a synthetic case of twice the input multiple
    per side. Gradients below an absolute floor of 1e-8 on both sides count
    as agreeing (loss-insensitive parameters).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(tolerance) and tolerance >= 0):  # 0 lists every probe as a failure
        raise ConfigError(f"tolerance must be finite and >= 0, got {tolerance}")
    if num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
    n_params = param_count(cfg)
    if n_params > 100_000:
        raise ConfigError(
            f"model has {n_params} parameters; the check needs a desk-scale config"
        )
    d = 2 * cfg.input_multiple
    vol, lab = generate_synthetic(
        SyntheticSpec(
            seed=FD_DATA_SEED, dims=(d, d, d), channels=cfg.in_channels,
            num_classes=cfg.num_classes, blobs_per_class=1,
            radius_range=(2, max(2, d // 4)), noise_sigma=0.2,
        )
    )
    onehot = one_hot(lab).astype(np.float64)
    x64 = vol.data.astype(np.float64)
    params = generic_check_point(cfg, seed)

    def loss_value(trace: list | None = None) -> float:
        ad.lrelu_sign_trace = trace
        try:
            pt = {k: Tensor(v) for k, v in params.items()}
            logits = forward_graph(cfg, pt, Tensor(x64))
            total, _, _ = combined_loss_graph(logits, onehot)
            return total.item()
        finally:
            ad.lrelu_sign_trace = None

    pt = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
    logits = forward_graph(cfg, pt, Tensor(x64))
    total, _, _ = combined_loss_graph(logits, onehot)
    total.backward()
    analytic = _param_grads(pt)

    by_family: dict[str, list[str]] = {f: [] for f in FD_FAMILIES}
    for spec in param_schema(cfg):  # every valid config has all FD_FAMILIES
        by_family[spec.family].append(spec.name)

    rng = np.random.default_rng(seed + 1)
    per_family = max(3, -(-num_samples // len(FD_FAMILIES)))

    def probe(name: str, idx: int) -> tuple[float, bool]:
        """Central difference; flags brackets that cross a leaky-relu kink."""
        flat = params[name].reshape(-1)
        orig = flat[idx]
        plus_signs: list = []
        minus_signs: list = []
        flat[idx] = orig + FD_STEP
        lp = loss_value(plus_signs)
        flat[idx] = orig - FD_STEP
        lm = loss_value(minus_signs)
        flat[idx] = orig
        crossed = len(plus_signs) != len(minus_signs) or any(
            not np.array_equal(p, m) for p, m in zip(plus_signs, minus_signs)
        )
        return (lp - lm) / (2.0 * FD_STEP), crossed

    fam_stats = {
        f: {"checked": 0, "max_rel_err": 0.0, "failures": 0, "kink_skips": 0}
        for f in FD_FAMILIES
    }
    failures = []
    max_rel = 0.0
    for fam in FD_FAMILIES:
        names = by_family[fam]
        st = fam_stats[fam]
        for _ in range(per_family):
            numeric = None
            for _attempt in range(8):
                name = names[int(rng.integers(len(names)))]
                idx = int(rng.integers(params[name].size))
                numeric, crossed = probe(name, idx)
                if not crossed:
                    break
                st["kink_skips"] += 1
            a = float(analytic[name].reshape(-1)[idx])
            scale = max(abs(a), abs(numeric))
            diff = abs(a - numeric)
            rel = 0.0 if diff < 1e-8 or scale < 1e-8 else diff / scale
            st["checked"] += 1
            st["max_rel_err"] = max(st["max_rel_err"], rel)
            max_rel = max(max_rel, rel)
            if rel >= tolerance:
                st["failures"] += 1
                failures.append(
                    {"param": name, "index": idx, "analytic": a, "numeric": numeric,
                     "rel_err": rel}
                )
    return FDReport(
        passed=not failures, tolerance=tolerance, max_rel_err=max_rel,
        checked=sum(s["checked"] for s in fam_stats.values()),
        families=fam_stats, failures=failures,
    )
