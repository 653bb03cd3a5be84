import dataclasses
import sys
import threading

import numpy as np
import pytest
from hrstnet import autodiff as ad
from hrstnet import topology, training, volume
from hrstnet.autodiff import Tensor
from hrstnet.errors import ConfigError, ShapeError
from hrstnet.topology import (
    ModelConfig,
    _trunc_normal,
    as_tensors,
    check_input_dims,
    forward,
    head_graph,
    init_params,
    mrff_graph,
    param_count,
    param_schema,
    residual_graph,
    shape_trace,
    stage_graph,
)
from hrstnet.volume import LabelVolume, VolumeTensor

from conftest import TINY, graph, rand_grid

TINY4 = ModelConfig(
    variant=4, embed_dim=8, patch_size=4, window=2, heads=(2, 4, 8, 8),
    in_channels=1, num_classes=2,
)


def test_init_deterministic_and_ln_values(tiny_cfg):
    p1 = init_params(tiny_cfg, 3)
    p2 = init_params(tiny_cfg, 3)
    assert set(p1) == set(p2)
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    assert (p1["stage1.stream0.block0.ln1.gamma"] == 1.0).all()
    assert (p1["stage1.stream0.block0.ln1.beta"] == 0.0).all()
    assert (p1["stage1.stream0.block0.attn.bias_table"] == 0.0).all()
    # truncated normal: bounded at 2 sigma
    assert np.abs(p1["embed.weight"]).max() <= 2 * 0.02 + 1e-9


def trunc_normal_oracle(rng, shape, std=0.02, bound=2.0):
    """Whole-array reference: one float64 draw, then redraw every rejected
    entry in flat order until none is left."""
    draw = rng.standard_normal(shape)
    bad = np.abs(draw) > bound
    while bad.any():
        draw[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(draw) > bound
    return (draw * std).astype(np.float32)


@pytest.mark.parametrize("cfg", [TINY, TINY4, ModelConfig()], ids=["tiny", "tiny4", "paper"])
def test_trunc_normal_streaming_matches_whole_array_draw(cfg):
    # the paper default's largest tensor (63.7M values) spans 61 chunks
    fast, ref = np.random.default_rng(11), np.random.default_rng(11)
    for spec in param_schema(cfg):
        if spec.init == "trunc":
            got = _trunc_normal(fast, spec.shape)
            assert got.dtype == np.float32 and got.shape == spec.shape
            assert got.tobytes() == trunc_normal_oracle(ref, spec.shape).tobytes(), spec.name
    assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("shape, bound", [
    ((3, 1 << 19), 0.3),  # crosses a chunk boundary; about 3/4 rejected per round
    ((5, 7), 0.05),
    ((), 1.0),
    ((0, 4), 2.0),
])
def test_trunc_normal_rejection_rounds_match_oracle(shape, bound):
    fast, ref = np.random.default_rng(3), np.random.default_rng(3)
    got = _trunc_normal(fast, shape, std=0.5, bound=bound)
    want = trunc_normal_oracle(ref, shape, std=0.5, bound=bound)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (np.abs(got) <= 0.5 * bound).all()
    assert fast.bit_generator.state == ref.bit_generator.state


def test_param_count_matches_allocation_and_seed_independent(tiny_cfg):
    n = param_count(tiny_cfg)
    for seed in (0, 1):
        assert sum(v.size for v in init_params(tiny_cfg, seed).values()) == n


def _block_params_oracle(c, nh):
    # ln1 + ln2, four c*c projections with biases, bias table, 4x MLP
    return 2 * c + 2 * c + 4 * (c * c + c) + 27 * nh + (c * 4 * c + 4 * c) + (4 * c * c + c)


def _residual_oracle(cin, cout):
    n = cout * 27 * cin + 2 * cout + cout * 27 * cout + 2 * cout
    if cin != cout:
        n += cout * cin + cout
    return n


def test_param_count_hand_enumeration(tiny_cfg):
    c, nh0, nh1 = 8, 2, 4
    expect = 8 * 64 + 8  # embed
    expect += 2 * _block_params_oracle(c, nh0)  # stage1 stream0
    expect += 2 * c * 8 * c  # stage1 merge
    expect += 2 * _block_params_oracle(c, nh0)  # stage2 stream0
    expect += 2 * _block_params_oracle(2 * c, nh1)  # stage2 stream1
    expect += 2 * c * 8 * c  # stage2 merge (last stage: one merge)
    expect += 4 * (2 * c) * (2 * c)  # mrff to0 expand chain
    expect += _residual_oracle(2 * c, c)  # mrff to0 residual
    expect += _residual_oracle(4 * c, 2 * c)  # mrff to1 residual
    expect += 4 * (2 * c) * (2 * c)  # head up1 expand
    expect += _residual_oracle(2 * c, c)  # head residual
    expect += 4 * c * c  # head expand1
    expect += 2 * c * (c // 2)  # head expand2
    expect += 2 * (c // 4) + 2  # head out conv
    assert param_count(tiny_cfg) == expect == 47454


def test_param_count_class_delta(tiny_cfg):
    import dataclasses

    c4 = dataclasses.replace(tiny_cfg, num_classes=4)
    delta = param_count(c4) - param_count(tiny_cfg)
    assert delta == 2 * (tiny_cfg.embed_dim // 4 + 1)


def test_run_stage_three_streams_resolutions():
    rng = np.random.default_rng(0)
    params = init_params(TINY4, 0)
    streams = [rand_grid(rng, 8 * 2**r, (8 // 2**r,) * 3) for r in range(3)]
    souts, merged = graph(stage_graph, TINY4, params, 3, streams)
    assert [s.shape[1:] for s in souts] == [(8, 8, 8), (4, 4, 4), (2, 2, 2)]
    assert [m.shape[1:] for m in merged] == [(4, 4, 4), (2, 2, 2), (1, 1, 1)]
    assert [m.shape[0] for m in merged] == [16, 32, 64]  # channels double


def test_run_stage_single_stream():
    rng = np.random.default_rng(1)
    params = init_params(TINY, 0)
    souts, merged = graph(stage_graph, TINY, params, 1, [rand_grid(rng, 8, (4, 4, 4))])
    assert len(souts) == 1 and len(merged) == 1
    assert merged[0].shape == (16, 2, 2, 2)


def test_mrff_concat_channel_law():
    report = shape_trace(ModelConfig(), (128, 128, 128))
    by_name = {b["name"]: b for b in report["blocks"]}
    for t in range(4):
        blk = by_name[f"mrff4.to{t}"]
        assert blk["concat_channels"] == 4 * 96 * 2**t
    assert by_name["mrff4.to0"]["concat_channels"] == 384
    assert by_name["mrff4.to3"]["concat_channels"] == 3072


def test_mrff_identity_configuration(tiny_cfg):
    # zero cross chains + zero residual convs + skip selecting the target
    # stream reproduce the target exactly
    rng = np.random.default_rng(3)
    params = init_params(tiny_cfg, 0)
    for k in params:
        if k.startswith("mrff2."):
            params[k] = np.zeros_like(params[k])
    for t, c in ((0, 8), (1, 16)):
        sel = np.zeros((c, 2 * c), np.float32)
        sel[:, :c] = np.eye(c)
        params[f"mrff2.to{t}.res.skip.weight"] = sel
    souts = [rand_grid(rng, 8, (4, 4, 4)), rand_grid(rng, 16, (2, 2, 2))]
    merged = [rand_grid(rng, 16, (2, 2, 2))]
    fused = graph(mrff_graph, tiny_cfg, params, 2, souts, merged)
    for t in range(2):
        assert np.allclose(fused[t], souts[t], atol=1e-5)


def test_mrff_source_sensitivity(tiny_cfg):
    # perturbing any stage-input stream must change every fusion target
    # (stream0 reaches target1 through the stage's patch-merge output)
    rng = np.random.default_rng(4)
    params = init_params(tiny_cfg, 1)
    streams = [rand_grid(rng, 8, (4, 4, 4)), rand_grid(rng, 16, (2, 2, 2))]

    def fused_from(streams_):
        souts, merged = graph(stage_graph, tiny_cfg, params, 2, streams_)
        return graph(mrff_graph, tiny_cfg, params, 2, souts, merged)

    base = fused_from(streams)
    for poke in range(2):
        streams2 = [s.copy() for s in streams]
        streams2[poke] += rng.standard_normal(streams2[poke].shape).astype(np.float32)
        out = fused_from(streams2)
        for t in range(2):
            assert not np.allclose(out[t], base[t], atol=1e-7)


def _residual_params(rng, cin, cout, zero=False):
    mk = lambda *s: (
        np.zeros(s, np.float32) if zero else (0.1 * rng.standard_normal(s)).astype(np.float32)
    )
    p = {
        "res.conv1.weight": mk(cout, 27 * cin),
        "res.in1.gamma": np.ones(cout, np.float32), "res.in1.beta": np.zeros(cout, np.float32),
        "res.conv2.weight": mk(cout, 27 * cout),
        "res.in2.gamma": np.ones(cout, np.float32), "res.in2.beta": np.zeros(cout, np.float32),
    }
    # every residual projects its skip; at cin == cout the tests use the identity
    p["res.skip.weight"] = mk(cout, cin) if cin != cout else np.eye(cout, dtype=np.float32)
    p["res.skip.bias"] = np.zeros(cout, np.float32)
    return p


def residual(g, p):
    return graph(residual_graph, g, p, "res")


def test_residual_block_zero_weights_identity():
    rng = np.random.default_rng(6)
    g = rand_grid(rng, 4, (3, 3, 3))
    out = residual(g, _residual_params(rng, 4, 4, zero=True))
    assert np.allclose(out, g)


def test_residual_block_1cube_affine_trace():
    # on a 1^3 grid both instance norms see a single voxel: normalized value
    # is 0, so the branch collapses to lrelu(beta2) and the skip carries x
    rng = np.random.default_rng(7)
    p = _residual_params(rng, 2, 2)
    p["res.in1.beta"] = np.array([0.3, -0.2], np.float32)
    p["res.in2.beta"] = np.array([-0.5, 0.7], np.float32)
    g = np.array([1.5, -2.0], np.float32).reshape(2, 1, 1, 1)
    out = residual(g, p)
    lrelu = lambda v: v if v > 0 else 0.01 * v
    expect = [lrelu(-0.5) + 1.5, lrelu(0.7) - 2.0]
    assert np.allclose(out.reshape(-1), expect, atol=1e-5)


def test_residual_block_projection_shape():
    rng = np.random.default_rng(8)
    g = rand_grid(rng, 16, (2, 2, 2))
    out = residual(g, _residual_params(rng, 16, 4))
    assert out.shape == (4, 2, 2, 2)


def test_segmentation_head_shapes_and_zero_map(tiny_cfg):
    rng = np.random.default_rng(9)
    params = init_params(tiny_cfg, 0)
    fused = [rand_grid(rng, 8, (4, 4, 4)), rand_grid(rng, 16, (2, 2, 2))]
    logits = graph(head_graph, tiny_cfg, params, fused)
    assert logits.shape == (2, 16, 16, 16)
    for k in params:
        if k.startswith("head."):
            params[k] = np.zeros_like(params[k])
    zero_logits = graph(head_graph, tiny_cfg, params, fused)
    assert not zero_logits.any()  # softmax would be uniform


def test_head_concat_channels(tiny_cfg):
    report = shape_trace(tiny_cfg, (16, 16, 16))
    head = [b for b in report["blocks"] if b["name"] == "head"][0]
    assert head["in_shape"][0] == 2 * 8  # k * C at D/4
    assert head["out_shape"] == [2, 16, 16, 16]


def test_forward_variant2_64cube(tiny_cfg):
    rng = np.random.default_rng(10)
    vol = VolumeTensor(rng.standard_normal((1, 64, 64, 64)).astype(np.float32))
    logits = forward(tiny_cfg, init_params(tiny_cfg, 0), vol)
    assert logits.data.shape == (2, 64, 64, 64)


def test_forward_variant4_stream_resolutions_and_output():
    rng = np.random.default_rng(11)
    vol = VolumeTensor(rng.standard_normal((1, 32, 32, 32)).astype(np.float32))
    logits = forward(TINY4, init_params(TINY4, 0), vol)
    assert logits.data.shape == (2, 32, 32, 32)
    report = shape_trace(TINY4, (32, 32, 32))
    assert [s["resolution"] for s in report["streams"]] == [
        [8, 8, 8], [4, 4, 4], [2, 2, 2], [1, 1, 1]
    ]


def test_forward_deterministic(tiny_cfg, sphere_case):
    vol, _ = sphere_case
    params = init_params(tiny_cfg, 0)
    a = forward(tiny_cfg, params, vol)
    b = forward(tiny_cfg, params, vol)
    assert a.data.tobytes() == b.data.tobytes()


def test_forward_divisibility_error(tiny_cfg):
    vol = VolumeTensor(np.zeros((1, 12, 16, 16), dtype=np.float32))
    with pytest.raises(ConfigError, match="multiple"):
        forward(tiny_cfg, init_params(tiny_cfg, 0), vol)


def test_shape_trace_structural_only_and_violations(tiny_cfg):
    r1 = shape_trace(tiny_cfg, (16, 16, 16))
    r2 = shape_trace(tiny_cfg, (16, 16, 16))
    assert r1 == r2
    assert r1["violations"] == []
    with pytest.raises(ConfigError, match="multiples of 8"):
        shape_trace(tiny_cfg, (12, 16, 16))
    assert r1["min_input_multiple"] == {"with_padding": 8, "window_exact": 16}


@pytest.mark.parametrize("cfg, dims", [
    (TINY, (16, 24, 32)),
    (dataclasses.replace(TINY, window=3), (16, 24, 32)),
    (TINY4, (32, 32, 64)),
], ids=["tiny", "window3", "variant4"])
def test_shape_trace_rows_are_the_shapes_forward_graph_builds(monkeypatch, cfg, dims):
    pt = as_tensors(init_params(cfg, 0))
    param_names = {id(t): name for name, t in pt.items()}
    seen = {}

    def record(fn, row_name):
        def wrapped(x, *args):
            y = fn(x, *args)
            seen[row_name(*args)] = (list(x.shape), list(y.shape))
            return y
        return wrapped

    monkeypatch.setattr(topology, "swin_pair_graph", record(
        topology.swin_pair_graph, lambda pt, prefix, *_: f"{prefix}.swin_pair"))
    monkeypatch.setattr(topology, "merge_graph", record(
        topology.merge_graph, lambda w: param_names[id(w)].removesuffix(".weight")))
    monkeypatch.setattr(topology, "residual_graph", record(
        topology.residual_graph, lambda pt, prefix: prefix.removesuffix(".res")))
    logits = topology.forward_graph(cfg, pt, Tensor(np.zeros((cfg.in_channels, *dims), np.float32)))
    seen["embed"] = ([cfg.in_channels, *dims], seen["stage1.stream0.swin_pair"][0])
    seen["head"] = (seen["head"][0], list(logits.shape))  # head.res input, network output
    for row in shape_trace(cfg, dims)["blocks"]:
        assert (row["in_shape"], row["out_shape"]) == seen.pop(row["name"]), row["name"]
    # what is left are the fusion chains' merges, which the mrff rows span
    assert all(".down" in name for name in seen)


def test_stream_resolution_and_channel_laws_random_configs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        k = int(rng.choice((2, 3, 4)))
        c = int(rng.choice((8, 16)))
        heads = tuple(int(h) for h in (2, 4, 8, 8))[:k]
        cfg = ModelConfig(
            variant=k, embed_dim=c, patch_size=4, window=2, heads=heads,
            in_channels=1, num_classes=int(rng.integers(2, 5)),
        )
        m = cfg.input_multiple
        dims = (2 * m, 2 * m, 2 * m)
        report = shape_trace(cfg, dims)
        for r, s in enumerate(report["streams"]):
            assert s["channels"] == c * 2**r
            assert s["resolution"] == [2 * m // (4 * 2**r)] * 3
        # finest stream never decreases in resolution across blocks
        finest = [
            b for b in report["blocks"]
            if b["name"].endswith("stream0.swin_pair") or b["name"].startswith("mrff")
            and b["name"].endswith("to0")
        ]
        res0 = report["streams"][0]["resolution"]
        for b in finest:
            assert b["out_shape"][1:] == res0


def random_valid_config(rng) -> ModelConfig:
    """A config drawn as the c10 acceptance check draws them."""
    k = int(rng.choice((2, 3, 4)))
    c = int(rng.choice((4, 8, 12, 16)))
    heads = [int(rng.choice([h for h in (1, 2, 3, 4, 6, 8) if (c * 2**r) % h == 0]))
             for r in range(k)]
    return ModelConfig(
        variant=k, embed_dim=c, patch_size=int(rng.choice((2, 4))),
        window=int(rng.choice((2, 3, 4))), heads=tuple(heads),
        in_channels=int(rng.integers(1, 4)), num_classes=int(rng.integers(2, 5)),
    )


def test_valid_configs_meet_the_contract_the_graph_functions_assume():
    """The graph functions neither crop, pad nor re-check shapes, and the
    gradient checker does not look for empty families: every valid config
    and checked input must make all of that unnecessary."""
    rng = np.random.default_rng(1414)
    for _ in range(50):
        cfg = random_valid_config(rng)
        schema = list(param_schema(cfg))
        assert {s.family for s in schema} == set(training.FD_FAMILIES)
        assert all(s.shape[1] % 2 == 0 for s in schema if s.family == "expand")
        dims = tuple(int(cfg.input_multiple * rng.integers(1, 4)) for _ in range(3))
        check_input_dims(cfg, dims)
        res = [s["resolution"] for s in shape_trace(cfg, dims)["streams"]]
        assert [g * cfg.patch_size for g in res[0]] == list(dims)
        for r in range(cfg.variant - 1):
            assert [2 * v for v in res[r + 1]] == res[r]


def test_param_schema_names_unique(tiny_cfg):
    names = [s.name for s in param_schema(tiny_cfg)]
    assert len(names) == len(set(names))


def test_param_schema_is_built_once_per_config(tiny_cfg):
    schema = param_schema(tiny_cfg)
    assert isinstance(schema, tuple) and param_schema(dataclasses.replace(tiny_cfg)) is schema


def test_a_flat_map_is_whole_until_an_entry_is_replaced_deleted_or_added(tiny_cfg):
    shapes = {s.name: s.shape for s in param_schema(tiny_cfg)}
    names = list(shapes)
    assert topology.is_whole(topology.flat_views(shapes, np.float32), names)
    assert not topology.is_whole(topology.flat_views(shapes, np.float32), names[::-1])
    assert not topology.is_whole({k: np.zeros(s, np.float32) for k, s in shapes.items()}, names)
    for name in (names[0], names[70], names[-1]):
        replaced = topology.flat_views(shapes, np.float32)
        replaced[name] = replaced[name].copy()
        assert not topology.is_whole(replaced, names), name
        deleted = topology.flat_views(shapes, np.float32)
        del deleted[name]
        rest = [k for k in names if k != name]
        assert not topology.is_whole(deleted, names) and not topology.is_whole(deleted, rest), name
    added = topology.flat_views(shapes, np.float32)
    added["extra"] = np.zeros(3, np.float32)
    assert not topology.is_whole(added, names) and not topology.is_whole(added, names + ["extra"])


def test_model_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(variant=5).validate()
    with pytest.raises(ConfigError):  # 8 not divisible by 3 heads
        ModelConfig(variant=2, embed_dim=8, heads=(3, 6), in_channels=1).validate()
    with pytest.raises(ConfigError):  # embed_dim must be a multiple of 4
        ModelConfig(variant=2, embed_dim=6, heads=(2, 4), in_channels=1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(variant=3, heads=(2, 4)).validate()  # too few head counts


def test_forward_graph_rejects_a_channel_mismatch(tiny_cfg):
    # forward, training.backward and the gradient checker all build the graph
    # through forward_graph, so each gets the same typed error
    vol = VolumeTensor(np.zeros((2, 16, 16, 16), np.float32))
    with pytest.raises(ShapeError, match="2 channels, model expects 1"):
        forward(tiny_cfg, init_params(tiny_cfg, 0), vol)
    labels = LabelVolume(np.zeros((16, 16, 16), np.int32), 2)
    with pytest.raises(ShapeError, match="2 channels, model expects 1"):
        training.backward(tiny_cfg, init_params(tiny_cfg, 0), vol, labels)


def test_streams_as_tasks_keep_every_bit_under_a_short_switch_interval(monkeypatch):
    # SPLIT_ELEMS at stream 0's 8 x 8^3 elements: each stage's streams and
    # each fusion block's targets of this 32^3 input run as two tasks, units
    # 1..n-1 on the pool thread; the logits, and training.backward's losses
    # and gradients, are one worker's bytes in every run
    monkeypatch.setattr(ad, "SPLIT_ELEMS", TINY4.embed_dim * 8**3)
    vol, lab = volume.generate_synthetic(volume.SyntheticSpec(
        seed=4, dims=(32, 32, 32), channels=1, num_classes=2, radius_range=(3, 6)))
    params = init_params(TINY4, 5)
    pooled, tasks = [], ad.tasks

    def spy(units, elems):
        def pool(unit):
            def run():
                pooled.append(threading.current_thread())
                unit()
            return run
        tasks(units[:1] + [pool(unit) for unit in units[1:]], elems)

    monkeypatch.setattr(ad, "tasks", spy)

    def run():
        logits = forward(TINY4, params, vol).data
        grads, losses = training.backward(TINY4, params, vol, lab)
        return [logits.tobytes(), np.array(losses).tobytes()] + [g.tobytes() for g in grads.values()]

    monkeypatch.setattr(ad, "WORKERS", 1)
    want = run()
    # units 1..n-1 of stages and fusion blocks 2-4 (1 + 2 + 3 each), twice
    assert pooled == [threading.current_thread()] * 24
    pooled.clear()
    monkeypatch.setattr(ad, "WORKERS", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [run() for _ in range(20)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 20
    assert len(pooled) == 480 and threading.current_thread() not in pooled
