import builtins
import dataclasses
import errno
import json
import math
import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrstnet import autodiff as ad
from hrstnet import cli, topology, training, volume
from hrstnet.autodiff import Tensor
from hrstnet.errors import (
    CheckpointError, ConfigError, CropError, FormatError, HRSTError, NumericError, ShapeError,
)
from hrstnet.topology import forward_graph, init_params
from hrstnet.training import (
    Checkpoint,
    ScheduleConfig,
    TrainConfig,
    adamw_step,
    backward,
    combined_loss_graph,
    finite_difference_check,
    init_optim_state,
    load_checkpoint,
    lr_at,
    one_hot,
    save_checkpoint,
    train,
)
from hrstnet.volume import LabelVolume, VolumeTensor

from conftest import TINY, add, graph, train_stopped_after


def dice_loss(logits, labels):
    return graph(combined_loss_graph, logits, onehot=one_hot(labels))[1]


def ce_loss(logits, labels):
    return graph(combined_loss_graph, logits, onehot=one_hot(labels))[2]


def _case(rng, l=2, dims=(4, 4, 4)):
    logits = VolumeTensor(rng.standard_normal((l,) + dims).astype(np.float32))
    labels = LabelVolume(rng.integers(0, l, dims).astype(np.int32), l)
    return logits, labels


def test_dice_perfect_prediction():
    rng = np.random.default_rng(0)
    labels = LabelVolume(rng.integers(0, 2, (4, 4, 4)).astype(np.int32), 2)
    logits = VolumeTensor((one_hot(labels) * 50.0 - 25.0).astype(np.float32))
    assert dice_loss(logits.data, labels) < 1e-3
    total, dice, ce = graph(combined_loss_graph, logits.data, onehot=one_hot(labels))
    assert total < 2e-3


def test_dice_uniform_closed_form():
    # uniform logits, 2 classes, balanced labels: p = 0.5 everywhere
    n = 4 * 4 * 4
    labels = np.zeros((4, 4, 4), np.int32)
    labels.reshape(-1)[: n // 2] = 1
    lab = LabelVolume(labels, 2)
    logits = VolumeTensor(np.zeros((2, 4, 4, 4), np.float32))
    eps = 1e-5
    n_c = n // 2
    per_class = (2 * 0.5 * n_c + eps) / (0.5 * n + n_c + eps)
    assert abs(float(dice_loss(logits.data, lab)) - (1.0 - per_class)) < 1e-6


def test_dice_all_background():
    lab = LabelVolume(np.zeros((3, 3, 3), np.int32), 2)
    logits = np.zeros((2, 3, 3, 3), np.float32)
    logits[0] = 30.0
    assert dice_loss(logits, lab) < 1e-3


def test_ce_uniform_is_log_l():
    for l in (2, 3, 5):
        lab = LabelVolume(np.zeros((2, 2, 2), np.int32), l)
        logits = VolumeTensor(np.zeros((l, 2, 2, 2), np.float32))
        assert abs(float(ce_loss(logits.data, lab)) - math.log(l)) < 1e-6


def test_ce_margin_closed_form():
    rng = np.random.default_rng(1)
    l, m = 3, 2.5
    labels = LabelVolume(rng.integers(0, l, (3, 3, 3)).astype(np.int32), l)
    logits = VolumeTensor((one_hot(labels) * m).astype(np.float32))
    expect = math.log(1.0 + (l - 1) * math.exp(-m))
    assert abs(float(ce_loss(logits.data, labels)) - expect) < 1e-6


def test_ce_shift_invariance():
    rng = np.random.default_rng(2)
    logits, labels = _case(rng, 3)
    base = float(ce_loss(logits.data, labels))
    shifted = VolumeTensor(logits.data + 7.5)
    assert abs(float(ce_loss(shifted.data, labels)) - base) < 1e-6


def test_combined_is_exact_sum():
    rng = np.random.default_rng(3)
    logits, labels = _case(rng)
    total, dice, ce = map(float, graph(combined_loss_graph, logits.data, onehot=one_hot(labels)))
    assert total == dice + ce
    assert total >= 0


def test_backward_zero_gamma_kills_qk_paths(tiny_cfg, sphere_case):
    vol, lab = sphere_case
    params = init_params(tiny_cfg, 0)
    for k in params:
        if k.endswith("ln1.gamma") or k.endswith("ln2.gamma"):
            params[k] = np.zeros_like(params[k])
    grads, _ = backward(tiny_cfg, params, vol, lab)
    for k, g in grads.items():
        if any(k.endswith(s) for s in (".attn.wq", ".attn.wk", ".attn.wv", ".attn.bq", ".attn.bk")):
            assert np.abs(g).max() < 1e-7, k
    assert np.abs(grads["embed.weight"]).max() > 0


def test_backward_linearity_doubling(tiny_cfg, sphere_case):
    vol, lab = sphere_case
    params = init_params(tiny_cfg, 0)
    onehot = one_hot(lab)

    def grads_scaled(scale):
        pt = {k: Tensor(v, requires_grad=True) for k, v in params.items()}
        total, _, _ = combined_loss_graph(forward_graph(tiny_cfg, pt, Tensor(vol.data)), onehot)
        ad.mul(total, scale).backward()
        return {k: t.grad for k, t in pt.items()}

    g1 = grads_scaled(1.0)
    g2 = grads_scaled(2.0)
    for k in g1:
        if g1[k] is not None:
            assert np.allclose(2.0 * g1[k], g2[k], rtol=1e-5, atol=1e-10)


def test_lr_schedule_values():
    sched = ScheduleConfig(base_lr=1e-4, warmup_epochs=50, total_epochs=300, steps_per_epoch=10)
    assert lr_at(0, sched) == 0.0
    assert lr_at(sched.warmup_steps, sched) == pytest.approx(1e-4, abs=1e-12)
    assert lr_at(sched.total_steps, sched) == 0.0
    assert lr_at(10**9, sched) == 0.0  # clamped at the floor past the end
    mid = (sched.warmup_steps + sched.total_steps) // 2
    assert lr_at(mid, sched) == pytest.approx(0.5e-4, abs=1e-12)


def test_lr_schedule_continuity_and_monotonic():
    sched = ScheduleConfig(base_lr=1e-4, warmup_epochs=50, total_epochs=300, steps_per_epoch=7)
    ws = sched.warmup_steps
    linear_at_boundary = sched.base_lr * ws / ws
    cosine_at_boundary = lr_at(ws, sched)
    assert abs(linear_at_boundary - cosine_at_boundary) < 1e-9
    values = [lr_at(s, sched) for s in range(ws, sched.total_steps + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_adamw_zero_grad_no_decay_keeps_params():
    p = {"w": np.array([1.0, -2.0], np.float32)}
    st = init_optim_state(p, weight_decay=0.0)
    adamw_step(p, {"w": np.zeros(2, np.float32)}, st, lr=0.1)
    assert np.array_equal(p["w"], [1.0, -2.0])


def test_adamw_scalar_one_step():
    p = {"w": np.array([0.5], np.float32)}
    st = init_optim_state(p, weight_decay=0.0)
    adamw_step(p, {"w": np.array([1.0], np.float32)}, st, lr=0.01)
    # bias-corrected m_hat = 1, v_hat = 1: step = lr / (1 + eps)
    assert p["w"][0] == pytest.approx(0.5 - 0.01 / (1.0 + 1e-8), abs=1e-9)


def test_adamw_decoupled_decay_only():
    p = {"w": np.array([2.0], np.float32)}
    st = init_optim_state(p, weight_decay=0.1)
    adamw_step(p, {"w": np.zeros(1, np.float32)}, st, lr=0.5)
    assert p["w"][0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.1), abs=1e-7)


def test_adamw_equals_adam_when_wd_zero():
    rng = np.random.default_rng(4)
    p = {"w": rng.standard_normal(5).astype(np.float32)}
    st = init_optim_state(p, weight_decay=0.0)
    # independent scalar Adam oracle
    ref = p["w"].astype(np.float64).copy()
    m = np.zeros(5)
    v = np.zeros(5)
    for t in range(1, 8):
        g = rng.standard_normal(5).astype(np.float32)
        adamw_step(p, {"w": g}, st, lr=0.05)
        g64 = g.astype(np.float64)
        m = 0.9 * m + 0.1 * g64
        v = 0.999 * v + 0.001 * g64 * g64
        ref -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert np.allclose(p["w"], ref, atol=1e-5)


def test_adamw_nan_grad_fails_fast():
    p = {"w": np.ones(2, np.float32)}
    st = init_optim_state(p)
    with pytest.raises(NumericError):
        adamw_step(p, {"w": np.array([np.nan, 0.0], np.float32)}, st, lr=0.1)


def expression_adamw_step(params, grads, state, lr):
    """AdamW as plain numpy expressions, one temporary per operation: the
    bitwise oracle for adamw_step's scratch-array chain."""
    t = state.step + 1
    bc1 = 1.0 - training.ADAM_BETA1**t
    bc2 = 1.0 - training.ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= training.ADAM_BETA1
        m += (1.0 - training.ADAM_BETA1) * g
        v *= training.ADAM_BETA2
        v += (1.0 - training.ADAM_BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS)
        p -= lr * state.weight_decay * p
        p -= lr * update
    state.step = t


def test_adamw_matches_expression_chain_bitwise():
    rng = np.random.default_rng(11)
    params = init_params(TINY, 2)
    ref = {k: v.copy() for k, v in params.items()}
    st, ref_st = init_optim_state(params), init_optim_state(ref)
    for lr in (1e-3, 3e-4, 0.05):
        grads = {k: rng.standard_normal(v.shape).astype(np.float32) for k, v in params.items()}
        adamw_step(params, grads, st, lr)
        expression_adamw_step(ref, grads, ref_st, lr)
        for k in params:
            assert params[k].tobytes() == ref[k].tobytes(), k
            assert st.m[k].tobytes() == ref_st.m[k].tobytes(), k
            assert st.v[k].tobytes() == ref_st.v[k].tobytes(), k
    assert st.step == ref_st.step == 3



def test_adamw_in_slices_matches_expression_chain_bitwise(monkeypatch):
    monkeypatch.setattr(training, "ADAM_SLICE", 7)  # slices cut rows; the last is short
    test_adamw_matches_expression_chain_bitwise()


def test_adamw_non_finite_in_a_later_slice_leaves_the_parameter_untouched(monkeypatch):
    monkeypatch.setattr(training, "ADAM_SLICE", 4)
    rng = np.random.default_rng(3)
    p = {"w": rng.standard_normal((2, 5)).astype(np.float32)}
    st = init_optim_state(p)
    adamw_step(p, {"w": rng.standard_normal((2, 5)).astype(np.float32)}, st, lr=0.1)
    before = [a.tobytes() for a in (p["w"], st.m["w"], st.v["w"])]
    g = rng.standard_normal((2, 5)).astype(np.float32)
    g[1, 4] = np.inf
    with pytest.raises(NumericError):
        adamw_step(p, {"w": g}, st, lr=0.1)
    assert [a.tobytes() for a in (p["w"], st.m["w"], st.v["w"])] == before
    assert st.step == 1


# ------------------------------------------------------- flat training state


def assert_tiles_schema(tensors):
    """`tensors` are views of one 1-D array, back to back in schema order and
    covering all of it."""
    specs = list(topology.param_schema(TINY))
    assert list(tensors) == [spec.name for spec in specs]
    base = tensors[specs[0].name].base
    assert isinstance(base, np.ndarray) and base.shape == (topology.param_count(TINY),)
    start = base.__array_interface__["data"][0]
    for spec in specs:
        a = tensors[spec.name]
        assert a.base is base and a.shape == spec.shape and a.flags.c_contiguous, spec.name
        assert a.__array_interface__["data"][0] == start, spec.name
        start += a.nbytes


def test_every_training_state_map_tiles_one_buffer(monkeypatch, tmp_path, sphere_case):
    params = init_params(TINY, 3)
    st = init_optim_state(params)
    leaves = []
    monkeypatch.setattr(training, "as_tensors", lambda p, requires_grad: leaves.append(
        topology.as_tensors(p, requires_grad)) or leaves[-1])
    grads, _ = backward(TINY, params, *sphere_case)
    # each parameter's first gradient was copied straight into its view
    assert all(leaves[0][k].grad is g for k, g in grads.items())
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(TINY, params, st, 0, 0, -1.0), path)
    back, only = load_checkpoint(path), load_checkpoint(path, params_only=True)
    for tensors in (params, st.m, st.v, grads, back.params, back.opt_state.m, back.opt_state.v,
                    only.params):
        assert_tiles_schema(tensors)
    bases = {id(t[name].base) for t in (params, st.m, st.v, grads) for name in list(t)[:1]}
    assert len(bases) == 4  # one buffer per map


def test_backward_zero_fills_the_views_of_unreached_parameters(monkeypatch, sphere_case):
    # only head.out.bias reaches the loss; the gradient array starts as NaN
    real_views, real_forward = training.flat_views, training.forward_graph
    monkeypatch.setattr(training, "flat_views", lambda shapes, dtype: real_views(
        shapes, dtype, lambda n, dt: np.full(n, np.nan, dt)))
    monkeypatch.setattr(training, "forward_graph", lambda cfg, pt, x: add(
        real_forward(cfg, {k: Tensor(t.data) for k, t in pt.items()}, x),
        ad.reshape(pt["head.out.bias"], (-1, 1, 1, 1))))
    grads, _ = backward(TINY, init_params(TINY, 0), *sphere_case)
    assert_tiles_schema(grads)
    for name, g in grads.items():
        assert np.isfinite(g).all() and (name == "head.out.bias") == bool(g.any()), name


def _flat_like(tensors, values):
    """A map laid out as `flat_views` lays it out, holding `values`."""
    out = topology.flat_views({k: a.shape for k, a in tensors.items()}, np.float32)
    for k, a in out.items():
        a[...] = values[k]
    return out


def _flat_replaced(tensors):
    """A flat map whose 71st entry was replaced by a copy after it was laid out."""
    out = _flat_like(tensors, tensors)
    name = list(out)[70]
    out[name] = out[name].copy()
    return out


def _adamw_layouts(rng, layout, steps=3):
    """params, m and v after `steps` AdamW steps from TINY's init state, each
    of p, g, m and v as views of one array ("flat", "reversed", "patched")
    or separate ("split")."""
    params = init_params(TINY, 2)
    grads = [{k: rng.standard_normal(a.shape).astype(np.float32) for k, a in params.items()}
             for _ in range(steps)]
    kinds = {
        "flat": lambda tensors: _flat_like(tensors, tensors),
        "split": lambda tensors: {k: a.copy() for k, a in tensors.items()},
        # one array laid out in the reverse order: back to back, but not in the params' order
        "reversed": lambda tensors: _flat_like(dict(reversed(tensors.items())), tensors),
        "patched": _flat_replaced,
    }
    make = dict(zip("pgmv", (kinds[kind] for kind in layout)))
    params = make["p"](params)
    st = init_optim_state(params)
    st.m, st.v = make["m"](st.m), make["v"](st.v)
    for i, g in enumerate(grads):
        adamw_step(params, make["g"](g), st, (1e-3, 3e-4, 0.05)[i % 3])
    return params, st


def spy_runs(monkeypatch) -> list[int]:
    """A list that gets the length of every run `training._runs` returns."""
    runs, real_runs = [], training._runs

    def spy(*args):
        found = real_runs(*args)
        runs.extend(len(names) for names, _ in found)
        return found

    monkeypatch.setattr(training, "_runs", spy)
    return runs


FLAT = ("flat",) * 4
LAYOUTS = {  # layout of p, g, m and v -> the runs adamw_step walks over n tensors
    FLAT: lambda n: [n],
    ("split", "flat", "flat", "flat"): lambda n: [1] * n,  # per-tensor params, flat g, m and v
    ("flat", "split", "flat", "flat"): lambda n: [1] * n,
    ("flat", "reversed", "flat", "flat"): lambda n: [1] * n,
    ("flat", "flat", "patched", "flat"): lambda n: [1] * n,
    ("split",) * 4: lambda n: [1] * n,
}


@pytest.mark.parametrize("adam_slice", [1 << 20, 7, 300])
def test_adamw_layouts_agree_bitwise(monkeypatch, adam_slice):
    # runs of one tensor and one run over the whole model give the same bits,
    # also when slices cross tensor boundaries
    monkeypatch.setattr(training, "ADAM_SLICE", adam_slice)
    runs = spy_runs(monkeypatch)
    results = []
    for layout, want in LAYOUTS.items():
        runs.clear()
        params, st = _adamw_layouts(np.random.default_rng(5), layout)
        assert runs == want(len(params)) * 3, layout
        results.append([a.tobytes() for t in (params, st.m, st.v) for a in t.values()])
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("where", [0, 1, 70, -1])
def test_adamw_non_finite_gradient_leaves_the_whole_run_untouched(monkeypatch, where):
    monkeypatch.setattr(training, "ADAM_SLICE", 1000)  # the bad value lies in one slice of many
    rng = np.random.default_rng(6)
    params = init_params(TINY, 1)
    st = init_optim_state(params)
    fresh = lambda: _flat_like(params, {k: rng.standard_normal(a.shape) for k, a in params.items()})
    adamw_step(params, fresh(), st, 0.01)
    before = [a.tobytes() for t in (params, st.m, st.v) for a in t.values()]
    g = fresh()
    name = list(g)[where]
    g[name].reshape(-1)[-1] = np.nan if where % 2 else np.inf
    with pytest.raises(NumericError, match=f"non-finite gradient for {name}$"):
        adamw_step(params, g, st, 0.01)
    assert [a.tobytes() for t in (params, st.m, st.v) for a in t.values()] == before
    assert st.step == 1


def test_adamw_split_run_keeps_every_bit(monkeypatch):
    # a run of SPLIT_ELEMS elements or more deals its slices to two pieces
    # cut at a multiple of ADAM_SLICE, each with its own scratch arrays; the
    # interpreter switches threads as often as it can, so a piece that wrote
    # into the other's scratch or slices would show in some run
    monkeypatch.setattr(training, "ADAM_SLICE", 1000)
    slices = -(-topology.param_count(TINY) // 1000)
    cuts, real_split = [], ad._split
    monkeypatch.setattr(ad, "_split", lambda piece, n, cut: cuts.append((n, cut)) or real_split(piece, n, cut))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for split_elems, workers in [(1 << 20, 2), (20_000, 1)] + [(20_000, 2)] * 10:
            monkeypatch.setattr(ad, "SPLIT_ELEMS", split_elems)
            monkeypatch.setattr(ad, "WORKERS", workers)
            cuts.clear()
            params, st = _adamw_layouts(np.random.default_rng(7), FLAT)
            assert cuts == [(slices, 0 if split_elems == 1 << 20 else (slices + 1) // 2)] * 6
            results.append([a.tobytes() for t in (params, st.m, st.v) for a in t.values()])
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results[1:])


def test_save_writes_the_same_bytes_for_flat_and_per_tensor_state(monkeypatch, tmp_path):
    # a whole flat map is one write; any other map is written tensor by tensor
    params = init_params(TINY, 4)
    rng = np.random.default_rng(8)
    st = init_optim_state(params)
    for t in (st.m, st.v):
        for a in t.values():
            a[...] = rng.standard_normal(a.shape)
    n = len(params)
    kinds = {  # map layout -> the runs each map is written in
        "flat": (lambda t: t, [n]),
        "split": (lambda t: {k: a.copy() for k, a in t.items()}, [1] * n),
        "patched": (_flat_replaced, [1] * n),
        "reversed": (lambda t: _flat_like(dict(reversed(t.items())), t), [1] * n),
    }
    runs = spy_runs(monkeypatch)
    files = []
    for kind, (make, want) in kinds.items():
        runs.clear()
        files.append(tmp_path / f"{kind}.ckpt")
        state = training.OptimState(make(st.m), make(st.v), st.step, st.weight_decay)
        save_checkpoint(Checkpoint(TINY, make(params), state, 2, 6, 0.25), files[-1])
        assert runs == want * 3, kind
    assert all(f.read_bytes() == files[0].read_bytes() for f in files[1:])


def test_a_train_state_walks_one_run_per_adamw_step(monkeypatch, tmp_path):
    # every map train() makes is whole: each AdamW step walks one run over the
    # flat arrays, and each checkpoint writes each map in one run
    n = len(topology.param_schema(TINY))
    runs, steps, real_step = spy_runs(monkeypatch), [], training.adamw_step

    def step(*args):
        runs.clear()
        out = real_step(*args)
        steps.append(list(runs))
        return out

    monkeypatch.setattr(training, "adamw_step", step)
    train(_quick_cfg(epochs=1), TINY, _tiny_dataset(), out_dir=str(tmp_path))
    assert steps == [[n]] * 2
    # the last step, then the params, m and v of each checkpoint written
    assert set(runs) == {n} and len(runs) >= 4


def _tiny_dataset(n=2):
    return [
        volume.generate_synthetic(
            volume.SyntheticSpec(seed=20 + i, dims=(16, 16, 16), channels=1,
                                 num_classes=2, radius_range=(3, 4))
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("crop", [16, 32])  # 32: the benchmark's train_tiny crop
def test_tiny_training_starts_no_thread(monkeypatch, tmp_path, crop):
    # no kernel of the test config is large enough to split, so no pool is
    # made: at a 32^3 crop the largest conv3 fills 221k column entries,
    # below SPLIT_ELEMS
    monkeypatch.setattr(ad, "_pool", None)
    before = threading.active_count()
    cfg = TrainConfig(epochs=1, crop=(crop,) * 3, seed=0, warmup_epochs=0)
    data = [
        volume.generate_synthetic(volume.SyntheticSpec(
            seed=20 + i, dims=(crop,) * 3, channels=1, num_classes=2, radius_range=(3, 4)))
        for i in range(2)
    ]
    train(cfg, TINY, data, out_dir=str(tmp_path))
    assert ad._pool is None and threading.active_count() == before


def _quick_cfg(epochs=2, **kw):
    return TrainConfig(
        epochs=epochs, crop=(16, 16, 16), seed=0, base_lr=1e-3,
        warmup_epochs=1, val_every=1, **kw,
    )


def test_train_deterministic_loss_curves(tmp_path):
    data = _tiny_dataset()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    r1 = train(_quick_cfg(), TINY, data, out_dir=str(tmp_path / "a"))
    r2 = train(_quick_cfg(), TINY, data, out_dir=str(tmp_path / "b"))
    assert [r["loss"] for r in r1.log_rows] == [r["loss"] for r in r2.log_rows]
    assert [r["val_dsc"] for r in r1.log_rows] == [r["val_dsc"] for r in r2.log_rows]


def test_train_best_dsc_non_decreasing(tmp_path):
    data = _tiny_dataset()
    res = train(_quick_cfg(epochs=3), TINY, data, out_dir=str(tmp_path))
    vals = [r["val_dsc"] for r in res.log_rows if r["val_dsc"] != ""]
    best_seen = -1.0
    for v in vals:
        best_seen = max(best_seen, v)
    assert res.checkpoint.best_val_dsc == best_seen


def test_train_rejects_bad_config(tmp_path):
    with pytest.raises(ConfigError):
        train(_quick_cfg(epochs=0), TINY, _tiny_dataset(1), out_dir=str(tmp_path))
    for crop in ((12, 12, 12), (16, 16)):
        with pytest.raises(ConfigError):
            train(TrainConfig(epochs=1, crop=crop, warmup_epochs=0), TINY, _tiny_dataset(1),
                  out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        train(_quick_cfg(), TINY, [], out_dir=str(tmp_path))


def test_train_rejects_an_empty_validation_set(tmp_path):
    with pytest.raises(ConfigError, match="validation set is empty"):
        train(_quick_cfg(), TINY, _tiny_dataset(1), [], out_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def _bad_case(kind):
    """A 16^3-crop case TINY cannot take, of this kind."""
    spec = volume.SyntheticSpec(seed=30, dims=(16, 16, 16), num_classes=2, radius_range=(2, 3))
    if kind == "small":
        spec = dataclasses.replace(spec, dims=(16, 16, 8))
    elif kind == "channels":
        spec = dataclasses.replace(spec, channels=2)
    elif kind == "classes":
        spec = dataclasses.replace(spec, num_classes=3)
    vol, lab = volume.generate_synthetic(spec)
    if kind == "label-dims":
        lab = LabelVolume(lab.data[:, :, :8], lab.num_classes)
    return vol, lab


@pytest.mark.parametrize("kind,error", [("small", CropError), ("channels", ShapeError),
                                        ("label-dims", ShapeError), ("classes", ShapeError)])
@pytest.mark.parametrize("where", ["training", "validation"])
def test_train_checks_every_case_before_the_first_step(monkeypatch, tmp_path, kind, error, where):
    steps, real_backward = [], training.backward
    monkeypatch.setattr(training, "backward", lambda *a: steps.append(a) or real_backward(*a))
    good = _tiny_dataset(1)
    sets = {"training": good, "validation": good, where: good + [_bad_case(kind)]}
    with pytest.raises(error, match=f"{where} case 1"):
        train(_quick_cfg(), TINY, sets["training"], sets["validation"], out_dir=str(tmp_path))
    assert steps == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_numeric_divergence_aborts(tmp_path):
    data = _tiny_dataset(1)
    cfg = TrainConfig(epochs=5, crop=(16, 16, 16), seed=0, base_lr=1e6, warmup_epochs=0)
    with pytest.raises(NumericError):
        train(cfg, TINY, data, out_dir=str(tmp_path))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params(TINY, 5)
    st = init_optim_state(params)
    st.step = 17
    st.m = {k: np.full_like(v, 0.25) for k, v in params.items()}
    ck = Checkpoint(TINY, params, st, epoch=3, global_step=42, best_val_dsc=0.875)
    path = tmp_path / "c.ckpt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.model_config == TINY
    assert back.epoch == 3 and back.global_step == 42 and back.best_val_dsc == 0.875
    assert back.opt_state.step == 17
    for k in params:
        assert back.params[k].tobytes() == params[k].tobytes()
        assert back.opt_state.m[k].tobytes() == st.m[k].tobytes()
        assert back.opt_state.v[k].tobytes() == st.v[k].tobytes()


def test_params_only_read_holds_no_moments(tmp_path):
    params = init_params(TINY, 5)
    ck = Checkpoint(TINY, params, init_optim_state(params), epoch=3, global_step=42, best_val_dsc=0.5)
    path = tmp_path / "c.ckpt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path, params_only=True)
    assert (back.model_config, back.epoch, back.global_step) == (TINY, 3, 42)
    assert back.opt_state.m == {} and back.opt_state.v == {}
    assert list(back.params) == list(params)
    for k in params:
        assert back.params[k].tobytes() == params[k].tobytes()


def test_checkpoint_truncation_rejected(tmp_path):
    params = init_params(TINY, 0)
    ck = Checkpoint(TINY, params, init_optim_state(params), 0, 0, -1.0)
    path = tmp_path / "c.ckpt"
    save_checkpoint(ck, path)
    raw = path.read_bytes()
    for cut in (4, len(raw) // 2, len(raw) - 3):
        (tmp_path / "t.ckpt").write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "t.ckpt")


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory) -> bytes:
    """The bytes of a valid TINY checkpoint."""
    params = init_params(TINY, 0)
    path = tmp_path_factory.mktemp("ckpt") / "valid.ckpt"
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 0, -1.0), path)
    return path.read_bytes()


def _header_spans(raw: bytes) -> list[tuple[int, int]]:
    """(offset, length) of the one header span: magic, version, metadata
    length and the metadata itself; the raw payloads follow it."""
    (blob_len,) = struct.unpack("<Q", raw[12:20])
    return [(0, 20 + blob_len)]


def _patched(raw: bytes, at: int, fmt: str, value) -> bytes:
    return raw[:at] + struct.pack(fmt, value) + raw[at + struct.calcsize(fmt):]


def test_checkpoint_layout_follows_schema(tmp_path):
    # after the header and metadata come every param, every m and every v as
    # raw little-endian float32, each group in parameter schema order
    rng = np.random.default_rng(0)
    params = init_params(TINY, 5)
    st = init_optim_state(params)
    st.m = {k: rng.standard_normal(a.shape).astype(np.float32) for k, a in params.items()}
    st.v = {k: rng.random(a.shape).astype(np.float32) for k, a in params.items()}
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(TINY, params, st, 0, 0, -1.0), path)
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[12:20])
    assert len(raw) == 20 + blob_len + 12 * topology.param_count(TINY)
    at = 20 + blob_len
    for tensors in (params, st.m, st.v):
        for spec in topology.param_schema(TINY):
            want = tensors[spec.name].tobytes()
            assert raw[at : at + len(want)] == want, spec.name
            at += len(want)
    assert at == len(raw)


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    params = init_params(TINY, 0)
    path = tmp_path / "latest.ckpt"
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 0, -1.0), path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    params = init_params(TINY, 1)
    with pytest.raises(CheckpointError, match="cannot write checkpoint"):
        save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 1, 4, 0.5), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["latest.ckpt"]


def test_failed_checkpoint_write_names_only_the_target(tmp_path):
    # the OS error names the temp file; the message names the checkpoint
    params = init_params(TINY, 0)
    path = tmp_path / "missing" / "latest.ckpt"
    with pytest.raises(CheckpointError) as raised:
        save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 0, -1.0), path)
    assert str(raised.value) == f"cannot write checkpoint {path}: {os.strerror(errno.ENOENT)}"


def test_stale_temp_link_does_not_reach_the_other_checkpoint(tmp_path):
    # a crash between link and rename leaves latest.ckpt.tmp naming best.ckpt's file
    params = init_params(TINY, 0)
    best, latest = tmp_path / "best.ckpt", tmp_path / "latest.ckpt"
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 1, 0.5), best)
    before = best.read_bytes()
    os.link(best, tmp_path / "latest.ckpt.tmp")
    params = init_params(TINY, 1)
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 1, 2, 0.5), latest)
    assert best.read_bytes() == before
    assert load_checkpoint(latest).epoch == 1


@pytest.mark.parametrize("linked", [True, False], ids=["hard_link", "no_link"])
def test_best_epoch_checkpoint_is_written_once(tmp_path, monkeypatch, linked):
    scores = iter([0.5, 0.25])
    monkeypatch.setattr(training, "mean_foreground_dice", lambda *args: next(scores))
    if not linked:
        def no_link(src, dst):
            raise OSError(1, "Operation not permitted")

        monkeypatch.setattr(os, "link", no_link)
    data = _tiny_dataset(1)
    best, latest = tmp_path / "best.ckpt", tmp_path / "latest.ckpt"
    train_stopped_after(1, _quick_cfg(), TINY, data, out_dir=str(tmp_path))
    assert os.path.samefile(best, latest) == linked
    assert not (tmp_path / "latest.ckpt.tmp").exists()
    a, b = load_checkpoint(best), load_checkpoint(latest)
    assert (a.epoch, a.global_step, a.best_val_dsc) == (b.epoch, b.global_step, b.best_val_dsc) == (0, 1, 0.5)
    assert a.opt_state.step == b.opt_state.step == 1
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes()
        assert a.opt_state.m[k].tobytes() == b.opt_state.m[k].tobytes()
        assert a.opt_state.v[k].tobytes() == b.opt_state.v[k].tobytes()
    before = best.read_bytes()
    # epoch 1 scores lower: latest.ckpt is replaced, best.ckpt keeps its bytes
    train(_quick_cfg(), TINY, data, out_dir=str(tmp_path), resume_from=latest)
    assert best.read_bytes() == before
    assert not os.path.samefile(best, latest)
    assert load_checkpoint(latest).epoch == 1


def test_train_returns_the_state_it_advanced_in_place(tmp_path, monkeypatch):
    known = init_params(TINY, 3)
    monkeypatch.setattr(training, "init_params", lambda cfg, seed: known)
    scores = iter([0.5, 0.25])
    monkeypatch.setattr(training, "mean_foreground_dice", lambda *args: next(scores))
    state = train(_quick_cfg(), TINY, _tiny_dataset(1), out_dir=str(tmp_path)).checkpoint
    assert all(state.params[k] is known[k] for k in known)  # the run's arrays, not copies
    assert (state.epoch, state.global_step, state.best_val_dsc) == (1, 2, 0.5)
    # the returned state is latest.ckpt's, byte for byte: metadata, params, m and v
    save_checkpoint(state, tmp_path / "state.ckpt")
    assert (tmp_path / "state.ckpt").read_bytes() == (tmp_path / "latest.ckpt").read_bytes()
    best = load_checkpoint(tmp_path / "best.ckpt")
    assert (best.epoch, best.global_step, best.best_val_dsc, best.opt_state.step) == (0, 1, 0.5, 1)


@pytest.mark.parametrize("epoch, step, opt_step, ok", [
    (-1, 0, 0, True),  # a fresh run's start state
    (0, -1, 0, False),
    (0, 1, -1, False),
], ids=["start", "step", "opt_step"])
def test_checkpoint_before_the_start_state_is_refused(tmp_path, epoch, step, opt_step, ok):
    params = init_params(TINY, 0)
    st = init_optim_state(params)
    st.step = opt_step
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(TINY, params, st, epoch, step, -1.0), path)
    if ok:
        assert load_checkpoint(path).epoch == epoch
        return
    with pytest.raises(CheckpointError, match=f"epoch {epoch}, step {step} and optimizer step {opt_step}"):
        load_checkpoint(path)


def test_resume_from_a_negative_epoch_is_a_checkpoint_error(tmp_path):
    # one case: epoch -2 ends at step -1, so the step matches the epoch
    params = init_params(TINY, 0)
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), -2, -1, -1.0), path)
    with pytest.raises(CheckpointError, match="epoch -2"):
        train(_quick_cfg(), TINY, _tiny_dataset(1), resume_from=path, out_dir=str(tmp_path))


@pytest.mark.parametrize("edit, message", [
    (lambda raw: b"NOTACKPT" + raw[8:], "bad checkpoint magic"),
    (lambda raw: _patched(raw, 8, "<I", 99), "unsupported checkpoint version 99"),
    (lambda raw: _patched(raw, 8, "<I", 3), "unsupported checkpoint version 3"),
    (lambda raw: raw + b"\0\0\0", "3 trailing bytes"),
    (lambda raw: raw + b"\0", "1 trailing bytes"),
    (lambda raw: raw[:-1], "truncated checkpoint"),
    (lambda raw: _patched(raw, 12, "<Q", len(raw) - 19), "truncated checkpoint"),
], ids=["magic", "version", "version_3", "trailing_bytes", "payload_one_byte_long",
        "payload_one_byte_short", "metadata_past_end"])
def test_checkpoint_reader_rejects_each_bad_field(tmp_path, tiny_ckpt, edit, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(edit(tiny_ckpt))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_unreadable_checkpoint_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path)  # a directory


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mangled_checkpoint_loads_or_raises_hrst_error(tmp_path_factory, tiny_ckpt, data):
    # byte flips land in a header span (every field the reader checks) or
    # anywhere; the file may then be cut and extended
    raw = bytearray(tiny_ckpt)
    spans = _header_spans(tiny_ckpt)
    header_byte = st.sampled_from(spans).flatmap(lambda s: st.integers(s[0], s[0] + s[1] - 1))
    for at in data.draw(st.lists(header_byte | st.integers(0, len(raw) - 1), max_size=3)):
        raw[at] ^= data.draw(st.integers(1, 255))
    cut = data.draw(st.just(len(raw)) | st.integers(0, len(raw)))
    path = tmp_path_factory.mktemp("fuzz") / "c.ckpt"
    path.write_bytes(bytes(raw[:cut]) + data.draw(st.binary(max_size=16)))
    try:
        load_checkpoint(path)
    except HRSTError:
        pass


def _predict_rc(ckpt, tmp_path, capsys):
    """Exit code of `hrstnet predict` on a valid 16^3 volume; asserts an error line, no traceback."""
    vp = tmp_path / "v.rvol"
    volume.write_volume(VolumeTensor(np.zeros((1, 16, 16, 16), np.float32)), vp)
    rc = cli.main(["predict", "--checkpoint", str(ckpt), "--input", str(vp),
                   "--out", str(tmp_path / "p.rvol")])
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    return rc


def test_weight_shape_guards(tmp_path, capsys):
    # params and both Adam moments must hold param_schema(cfg)'s names,
    # shapes and float32 before a checkpoint is written; the reader then
    # checks only that the payload has the schema's length
    cases = [
        ("wrong-shaped merge weight", "pmv",
         lambda d: d.update({"stage1.merge0.weight": np.ones((4, 16), np.float32)})),
        ("missing head.out.bias", "pmv", lambda d: d.pop("head.out.bias")),
        ("5-row bias table", "pmv",
         lambda d: d.update({"stage1.stream0.block0.attn.bias_table": np.zeros((5, 2), np.float32)})),
        ("unknown tensor name", "pmv", lambda d: d.update({"head.out.bias2": d.pop("head.out.bias")})),
        ("wrong-shaped second moment", "v", lambda d: d.update({"embed.bias": np.zeros(3, np.float32)})),
        ("float64 parameter", "p", lambda d: d.update({"embed.bias": d["embed.bias"].astype(np.float64)})),
    ]
    path = tmp_path / "w.ckpt"
    for why, kinds, edit in cases:
        params = init_params(TINY, 0)
        st = init_optim_state(params)
        for kind in kinds:
            edit({"p": params, "m": st.m, "v": st.v}[kind])
        with pytest.raises(CheckpointError, match="schema"):
            save_checkpoint(Checkpoint(TINY, params, st, 0, 0, 0.0), path)
        assert list(tmp_path.iterdir()) == [], why
    params = init_params(TINY, 0)
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 0, 0.0), path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)
    assert _predict_rc(path, tmp_path, capsys) == 2


def test_checkpoint_bad_metadata_rejected(tmp_path, capsys):
    params = init_params(TINY, 0)
    path = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 0, -1.0), path)
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[12:20])
    meta = json.loads(raw[20 : 20 + blob_len])
    no_epoch = {k: v for k, v in meta.items() if k != "epoch"}
    unknown_key = dict(meta, model_config=dict(meta["model_config"], dropout=0.5))
    bad_variant = dict(meta, model_config=dict(meta["model_config"], variant=5))
    blobs = {
        "not utf-8": b"\xff\xfe{}",
        "not json": b"{not json",
        "not an object": b"[1, 2]",
        "missing key": json.dumps(no_epoch).encode(),
        "unknown model_config key": json.dumps(unknown_key).encode(),
        "invalid model_config": json.dumps(bad_variant).encode(),
    }
    for why, blob in blobs.items():
        bad = tmp_path / "m.ckpt"
        bad.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + blob_len :])
        with pytest.raises(CheckpointError, match="metadata"):
            load_checkpoint(bad)
        assert _predict_rc(bad, tmp_path, capsys) == 2, why


@pytest.mark.parametrize("path, value", [
    (("model_config", "embed_dim"), 8.0), (("model_config", "heads"), [2.0, 4]),
    (("model_config", "window"), 2.0), (("model_config", "patch_size"), 4.0),
    (("model_config", "in_channels"), True), (("opt", "step"), "3"), (("epoch",), 1.5),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_checkpoint_wrong_typed_metadata_rejected(tmp_path, capsys, path, value):
    # checkpoint metadata is decoded as strictly as a config file
    params = init_params(TINY, 0)
    ckpt = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(TINY, params, init_optim_state(params), 0, 0, -1.0), ckpt)
    raw = ckpt.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[12:20])
    meta = json.loads(raw[20 : 20 + blob_len])
    *parents, key = path
    section = meta
    for name in parents:
        section = section[name]
    section[key] = value
    blob = json.dumps(meta).encode()
    ckpt.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + blob_len :])
    with pytest.raises(CheckpointError, match=".".join(path)):
        load_checkpoint(ckpt)
    assert _predict_rc(ckpt, tmp_path, capsys) == 2


@pytest.mark.parametrize("make", [
    lambda: topology.ModelConfig(variant=5),
    lambda: ScheduleConfig(warmup_epochs=10, total_epochs=5),
    lambda: volume.SyntheticSpec(seed=0, radius_range=(4, 3)),
    lambda: TrainConfig(epochs=1, crop=(16, 16, 16), warmup_epochs=0, val_every=0),
    lambda: TrainConfig(epochs=10, crop=(16, 16, 16)),
    lambda: TrainConfig(epochs=1, crop=(16, 16, 16), warmup_epochs=0, base_lr=-1.0),
    lambda: TrainConfig(epochs=1, crop=(16, 16, 16), warmup_epochs=0, weight_decay=-5.0),
], ids=["ModelConfig", "ScheduleConfig", "SyntheticSpec", "TrainConfig", "TrainConfig-warmup",
        "TrainConfig-base_lr", "TrainConfig-weight_decay"])
def test_config_dataclasses_reject_bad_values_at_construction(make):
    with pytest.raises(ConfigError):
        make()


def test_resume_reproduces_uninterrupted_run(tmp_path):
    data = _tiny_dataset()
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    full_dir.mkdir()
    part_dir.mkdir()
    full = train(_quick_cfg(epochs=4), TINY, data, out_dir=str(full_dir))
    # same 4-epoch schedule, interrupted after 2 epochs, then resumed
    train_stopped_after(2, _quick_cfg(epochs=4), TINY, data, out_dir=str(part_dir))
    resumed = train(
        _quick_cfg(epochs=4), TINY, data, resume_from=part_dir / "latest.ckpt", out_dir=str(part_dir)
    )
    full_losses = [r["loss"] for r in full.log_rows]
    resumed_losses = [r["loss"] for r in resumed.log_rows]
    assert len(resumed_losses) == len(full_losses) // 2
    assert resumed_losses == full_losses[len(full_losses) - len(resumed_losses):]


def test_resume_into_the_same_directory_continues_the_log(tmp_path):
    data = _tiny_dataset()
    full_dir, part_dir = tmp_path / "full", tmp_path / "part"
    full_dir.mkdir()
    part_dir.mkdir()
    train(_quick_cfg(epochs=4), TINY, data, out_dir=str(full_dir))
    full = (full_dir / "train_log.csv").read_bytes()
    assert full.count(b"\n") == 1 + 4 * len(data)
    # stop after epoch 2, keep that checkpoint, run epoch 3, then resume from
    # the epoch-2 checkpoint: epoch 3's rows are dropped and logged again
    train_stopped_after(2, _quick_cfg(epochs=4), TINY, data, out_dir=str(part_dir))
    epoch2 = tmp_path / "epoch2.ckpt"
    epoch2.write_bytes((part_dir / "latest.ckpt").read_bytes())
    train_stopped_after(1, _quick_cfg(epochs=4), TINY, data, out_dir=str(part_dir),
                        resume_from=part_dir / "latest.ckpt")
    assert (part_dir / "train_log.csv").read_bytes().count(b"\n") == 1 + 3 * len(data)
    train(_quick_cfg(epochs=4), TINY, data, out_dir=str(part_dir), resume_from=epoch2)
    assert (part_dir / "train_log.csv").read_bytes() == full


def test_resume_rejects_a_checkpoint_the_run_would_not_have_written(tmp_path):
    data = _tiny_dataset(2)
    train_stopped_after(1, _quick_cfg(epochs=4), TINY, data, out_dir=str(tmp_path))
    latest = tmp_path / "latest.ckpt"
    # three cases end epoch 0 at step 3, not at the checkpoint's step 2
    with pytest.raises(CheckpointError, match="step 2 after epoch 0.*step 3"):
        train(_quick_cfg(epochs=4), TINY, _tiny_dataset(3), resume_from=latest, out_dir=str(tmp_path))
    with pytest.raises(CheckpointError, match="weight decay 0.01 differs from requested 0.5"):
        train(_quick_cfg(epochs=4, weight_decay=0.5), TINY, data, resume_from=latest,
              out_dir=str(tmp_path))


def test_resumed_log_with_a_bad_step_is_a_format_error(tmp_path):
    log = tmp_path / "train_log.csv"
    header = ",".join(training.LOG_FIELDS) + "\n"
    text = header + "0,0,0.001,1.5,0.9,0.6,\n" + header + "1,0,0.001,1.4,0.8,0.6,\n"
    log.write_text(text)
    with pytest.raises(FormatError, match=r"train_log.csv line 3: step 'step'"):
        training.start_log_csv(log, 2)
    assert log.read_text() == text


def test_failed_resume_log_rewrite_keeps_the_previous_log(tmp_path, monkeypatch):
    log = tmp_path / "train_log.csv"
    rows = "".join(f"{step},0,0.001,1.5,0.9,0.6,\n" for step in range(4))
    text = ",".join(training.LOG_FIELDS) + "\n" + rows
    log.write_text(text)
    real_open = open

    class DiskFull:
        """A file opened for writing that takes half of what it is given,
        then fails as a full disk does."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def __getattr__(self, name):
            return getattr(self.f, name)

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def writelines(self, lines):
            self.write("".join(lines))

    def opener(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return DiskFull(f) if "w" in mode else f

    monkeypatch.setattr(builtins, "open", opener)
    with pytest.raises(OSError, match="No space left"):
        training.start_log_csv(log, 3)
    monkeypatch.undo()
    assert log.read_text() == text
    assert [p.name for p in tmp_path.iterdir()] == ["train_log.csv"]


def test_param_family_covers_all(tiny_cfg):
    fams = {s.family for s in topology.param_schema(tiny_cfg)}
    assert fams == set(training.FD_FAMILIES)


# Window 3 pads TINY's 4^3 and 2^3 grids to 6^3 and 3^3 in every layer, so
# the check crosses pad -> roll -> crop on shifted and unshifted paths.
@pytest.mark.parametrize(
    "cfg", [TINY, dataclasses.replace(TINY, window=3)], ids=["tiny", "padded_window3"]
)
def test_finite_difference_check_passes(cfg):
    rep = finite_difference_check(cfg, seed=2, tolerance=1e-3, num_samples=45)
    assert rep.passed, rep.text()
    assert all(st["checked"] >= 3 for st in rep.families.values())


def test_finite_difference_sign_trace_keeps_one_order_under_tasks(tiny_cfg, monkeypatch):
    # SPLIT_ELEMS at stream 0's 8 x 4^3 elements: the checker's forwards
    # take tasks; while a sign trace is set they run in order on the
    # caller, so each probe lists its kinks as a one-worker run does
    monkeypatch.setattr(ad, "SPLIT_ELEMS", tiny_cfg.embed_dim * 4**3)
    calls, tasks = [], ad.tasks
    monkeypatch.setattr(ad, "tasks", lambda units, elems: calls.append(
        ad._as_tasks(len(units), elems)) or tasks(units, elems))
    traces, loss_graph = [], training.loss_graph

    def traced(*args):
        out = loss_graph(*args)
        if ad.lrelu_sign_trace is not None:
            traces.append([signs.tobytes() for signs in ad.lrelu_sign_trace])
        return out

    monkeypatch.setattr(training, "loss_graph", traced)
    runs = {}
    for workers in (2, 1):
        monkeypatch.setattr(ad, "WORKERS", workers)
        traces.clear()
        finite_difference_check(tiny_cfg, seed=2, num_samples=1)
        runs[workers] = list(traces)
    assert any(calls) and runs[2] and runs[2] == runs[1]


def test_finite_difference_check_rejects_big_models():
    with pytest.raises(ConfigError):
        finite_difference_check(topology.ModelConfig())


def test_finite_difference_detects_corrupted_backward(tiny_cfg, monkeypatch):
    # corrupting the bias-table gradient of the attention node must fail
    # exactly that family: the table reaches the node through a x1.0 node
    # whose backward scales the gradient by 1.05
    attend = ad.window_attention

    def corrupt_attend(q, kt, v, table, index, mask=None):
        scaled = ad.mul(table, 1.0)
        if scaled._backward is not None:
            inner = scaled._backward
            scaled._backward = lambda g: inner(1.05 * g)
        return attend(q, kt, v, scaled, index, mask)

    monkeypatch.setattr(ad, "window_attention", corrupt_attend)
    rep = finite_difference_check(tiny_cfg, seed=2, tolerance=1e-3, num_samples=45)
    assert not rep.passed
    family = {s.name: s.family for s in topology.param_schema(tiny_cfg)}
    bad = {family[f["param"]] for f in rep.failures}
    assert bad == {"bias_table"}


def test_finite_difference_detects_corrupted_grad_into_path(tiny_cfg, monkeypatch):
    # halving every gradient a backward rule wrote straight into a leaf's
    # `grad_into` (conv3, channels_linear and expand weights) must fail
    # exactly the families those weights belong to
    accum = ad._accum

    def halve_written(t, g):
        if g is t.grad_into:
            g *= 0.5
        accum(t, g)

    monkeypatch.setattr(ad, "_accum", halve_written)
    rep = finite_difference_check(tiny_cfg, seed=2, tolerance=1e-3, num_samples=45)
    assert not rep.passed
    family = {s.name: s.family for s in topology.param_schema(tiny_cfg)}
    bad = {family[f["param"]] for f in rep.failures}
    assert bad == {"expand", "head", "merge", "mlp", "residual"}


def test_mean_foreground_dice_perfect(tiny_cfg, sphere_case, overfit_run):
    vol, lab = sphere_case
    dsc = training.mean_foreground_dice(
        tiny_cfg, overfit_run["result"].checkpoint.params, [(vol, lab)], (16, 16, 16)
    )
    assert dsc >= 0.95
