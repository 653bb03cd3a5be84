import itertools
import math

import numpy as np
import pytest

from hrstnet import attention as attention_module
from hrstnet import autodiff as ad
from hrstnet.attention import (
    MASK_VALUE,
    _mlp_channels,
    attention_graph,
    compute_attn_mask,
    relative_position_index,
    shift_region_ids,
    swin_pair_graph,
)
from hrstnet.autodiff import Tensor, normalize_axes
from hrstnet.windowing import window_layout

from conftest import graph, partition_graph, rand_grid
from test_windowing import windows


def rand_attn_params(rng, c, heads, window, zero_bias_table=False, scale=0.2):
    """Attention weights by name, under the prefix "attn"."""
    t = (2 * window - 1) ** 3
    mk = lambda *s: (scale * rng.standard_normal(s)).astype(np.float32)
    return {
        "attn.wq": mk(c, c), "attn.bq": mk(c), "attn.wk": mk(c, c), "attn.bk": mk(c),
        "attn.wv": mk(c, c), "attn.bv": mk(c), "attn.wo": mk(c, c), "attn.bo": mk(c),
        "attn.bias_table": np.zeros((t, heads), np.float32) if zero_bias_table else mk(t, heads),
    }


def attention(wins, p, heads, window, mask=None):
    """Attention output, projected by wo, and post-softmax weights [nW, heads, T, T]."""
    def attend(wins, p):
        out, attn = attention_graph(wins, p, "attn", heads, window, mask)
        return ad.tokens_linear(out, p["attn.wo"], p["attn.bo"]), attn

    return graph(attend, wins, p)


def dense_attention_oracle(tokens, p, heads, window, mask_row=None):
    """O(T^2) reference: per-head softmax attention with relative bias."""
    t, c = tokens.shape
    dh = c // heads
    idx = relative_position_index(window)
    q = tokens @ p["attn.wq"].T + p["attn.bq"]
    k = tokens @ p["attn.wk"].T + p["attn.bk"]
    v = tokens @ p["attn.wv"].T + p["attn.bv"]
    heads_out = []
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh) + p["attn.bias_table"][idx, h]
        if mask_row is not None:
            logits = logits + mask_row
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        heads_out.append(a @ v[:, sl])
    return np.concatenate(heads_out, axis=1) @ p["attn.wo"].T + p["attn.bo"]


def test_relative_position_index_w1():
    idx = relative_position_index(1)
    assert idx.shape == (1, 1) and idx[0, 0] == 0


def test_relative_position_index_w2_offsets():
    idx = relative_position_index(2)
    assert idx.shape == (8, 8)
    assert len(np.unique(idx)) == 27  # hits all offsets in {-1,0,1}^3
    assert len(set(idx[np.diag_indices(8)].tolist())) == 1  # shared zero-offset code


def test_relative_position_index_antisymmetry():
    # code(i,j) and code(j,i) decode to negated offsets
    for w in (2, 3):
        idx = relative_position_index(w)
        span = 2 * w - 1

        def decode(code):
            return np.array(
                [code // (span * span), (code // span) % span, code % span]
            ) - (w - 1)

        t = idx.shape[0]
        for i in range(0, t, max(1, t // 5)):
            for j in range(0, t, max(1, t // 5)):
                assert np.array_equal(decode(idx[i, j]), -decode(idx[j, i]))


def test_single_token_attention_formula():
    rng = np.random.default_rng(0)
    p = rand_attn_params(rng, 4, 2, 1, zero_bias_table=True)
    tok = rng.standard_normal((1, 1, 4)).astype(np.float32)
    out, _ = attention(windows(tok.reshape(4, 1, 1, 1), 1), p, 2, 1)
    expect = (tok[0, 0] @ p["attn.wv"].T + p["attn.bv"]) @ p["attn.wo"].T + p["attn.bo"]
    assert np.allclose(out[0, 0], expect, atol=1e-5)


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for trial in range(40):
        w = int(rng.integers(1, 4))  # up to 27 tokens
        heads = int(rng.choice((1, 2, 4)))
        c = int(heads * rng.integers(1, 4))
        g = rand_grid(rng, c, (w, w, w))
        p = rand_attn_params(rng, c, heads, w)
        wins = windows(g, w)
        out, _ = attention(wins, p, heads, w)
        oracle = dense_attention_oracle(wins[0], p, heads, w)
        assert np.abs(out[0] - oracle).max() < 1e-5


def test_attention_zero_weights():
    rng = np.random.default_rng(2)
    p = rand_attn_params(rng, 4, 2, 2, scale=0.0)
    g = rand_grid(rng, 4, (2, 2, 2))
    out, _ = attention(windows(g, 2), p, 2, 2)
    assert not out.any()


def test_attention_rows_sum_to_one_debug():
    rng = np.random.default_rng(3)
    p = rand_attn_params(rng, 6, 3, 2)
    g = rand_grid(rng, 6, (4, 4, 4))
    _, attn = attention(windows(g, 2), p, 3, 2)
    assert attn.shape == (8, 3, 8, 8)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-6


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(4)
    p = rand_attn_params(rng, 4, 2, 2, zero_bias_table=True)
    g = rand_grid(rng, 4, (2, 2, 2))
    wins = windows(g, 2)
    out, _ = attention(wins, p, 2, 2)
    perm = rng.permutation(8)
    out_p, _ = attention(wins[:, perm], p, 2, 2)
    assert np.allclose(out_p[0], out[0][perm], atol=1e-5)


def test_mask_no_shift_all_zero():
    mask = compute_attn_mask((4, 4, 4), 2, (0, 0, 0))
    assert mask.shape == (8, 8, 8) and not mask.any()


def test_mask_is_cached_read_only_and_equals_fresh_build():
    mask = compute_attn_mask((6, 4, 4), 2, (1, 1, 0))
    # list dims and numpy ints name the same (dims, window, shifts) entry
    assert compute_attn_mask([6, 4, 4], np.int64(2), (1, 1, 0)) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0, 0] = 1.0
    fresh = attention_module._attn_mask.__wrapped__((6, 4, 4), 2, (1, 1, 0))
    assert fresh is not mask and fresh.dtype == mask.dtype
    assert fresh.tobytes() == mask.tobytes()


def test_mask_bytes_equal_the_composed_partition_of_region_ids():
    # the mask as built through the composed chain's partition: labels of the
    # float32 region ids, one window's tokens compared pairwise
    keys = 0
    for w in (1, 2, 3, 4):
        for dims in ((w, 2 * w, w), (w + 1, 2 * w - 1, 3)):  # window multiples, padded
            for shifts in itertools.product(range(w), repeat=3):
                ids = shift_region_ids(dims, w, shifts)
                wins, _ = partition_graph(Tensor(ids[None].astype(np.float32)), w)
                labels = wins.data[:, :, 0]
                want = np.where(labels[:, :, None] != labels[:, None, :], MASK_VALUE, 0.0)
                assert compute_attn_mask(dims, w, shifts).tobytes() == want.astype(np.float32).tobytes()
                keys += 1
    assert keys == 2 * (1 + 8 + 27 + 64)


def test_mask_1d_analogue_blocks_wrap_pair():
    # length-4 axis, window 2, shift 1: after the shift the boundary window
    # holds original w-positions {3, 0}; exactly that pairing is blocked
    mask = compute_attn_mask((1, 1, 4), 2, (0, 0, 1))
    assert mask.shape == (2, 8, 8)
    assert not (mask[0] < 0).any()  # interior window: original positions 1,2
    # window 1 tokens alternate shifted w-positions 2,3 = original 3,0
    blocked = mask[1] < 0
    w_pos = np.array([t % 2 for t in range(8)])
    assert np.array_equal(blocked, w_pos[:, None] != w_pos[None, :])
    # exact region semantics on every window
    shifted = shift_region_ids((1, 1, 4), 2, (0, 0, 1))
    wins = _partition_ids(shifted, 2)
    for wi in range(wins.shape[0]):
        same = wins[wi][:, None] == wins[wi][None, :]
        assert np.array_equal(mask[wi] == 0, same)


def _partition_ids(ids, window):
    return windows(ids[None], window)[:, :, 0]


def test_mask_corner_window_has_eight_regions():
    ids = shift_region_ids((4, 4, 4), 2, (1, 1, 1))
    wins = _partition_ids(ids, 2)
    # the last window (far corner) mixes all 2^3 region combinations
    assert len(np.unique(wins[-1])) == 8
    mask = compute_attn_mask((4, 4, 4), 2, (1, 1, 1))
    same = wins[-1][:, None] == wins[-1][None, :]
    assert np.array_equal(mask[-1] == 0, same)


def test_masked_pairs_get_exact_zero_attention():
    rng = np.random.default_rng(6)
    p = rand_attn_params(rng, 4, 2, 2)
    g = rand_grid(rng, 4, (4, 4, 4))
    mask = compute_attn_mask((4, 4, 4), 2, (1, 1, 1))
    _, attn = attention(windows(g, 2), p, 2, 2, mask=mask)
    blocked = np.broadcast_to((mask < 0)[:, None], attn.shape)
    assert (attn[blocked] == 0.0).all()


def layer_norm_tokens(tokens, gamma, beta):
    """Layer norm over the last axis of [T, C] tokens."""
    return graph(normalize_axes, tokens.T, gamma, beta, 0).T


def mlp_tokens(tokens, *weights):
    """The channels-layout MLP applied to [T, C] tokens."""
    return graph(_mlp_channels, tokens.T, *weights).T


def test_layer_norm_hand_cases():
    out = layer_norm_tokens(np.array([[1.0, 3.0]], np.float32), np.ones(2), np.zeros(2))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-4)
    const = layer_norm_tokens(np.full((1, 4), 2.5, np.float32), np.ones(4), np.zeros(4))
    assert np.abs(const).max() < 1e-2  # zero variance handled by eps
    rng = np.random.default_rng(7)
    toks = rng.standard_normal((10, 8)).astype(np.float32)
    normed = layer_norm_tokens(toks, np.ones(8), np.zeros(8))
    assert np.abs(normed.mean(axis=-1)).max() < 1e-6


def test_mlp_zero_weights_bias_only():
    toks = np.ones((3, 4), np.float32)
    out = mlp_tokens(toks, np.zeros((8, 4)), np.ones(8), np.zeros((4, 8)), 2.0 * np.ones(4))
    assert np.allclose(out, 2.0)


def test_mlp_scalar_hand_trace():
    # 1-channel chain: w2 * gelu(w1 * 1 + b1) + b2, exact erf GELU
    w1, b1, w2, b2 = 0.7, -0.1, 1.3, 0.05
    h = w1 * 1.0 + b1
    gelu_h = 0.5 * h * (1.0 + math.erf(h / math.sqrt(2.0)))
    expect = w2 * gelu_h + b2
    out = mlp_tokens(
        np.array([[1.0]], np.float32),
        np.array([[w1]], np.float32), np.array([b1], np.float32),
        np.array([[w2]], np.float32), np.array([b2], np.float32),
    )
    assert abs(float(out[0, 0]) - expect) < 1e-6


def test_mlp_is_tokenwise():
    rng = np.random.default_rng(8)
    toks = rng.standard_normal((6, 4)).astype(np.float32)
    args = (
        rng.standard_normal((8, 4)).astype(np.float32), rng.standard_normal(8).astype(np.float32),
        rng.standard_normal((4, 8)).astype(np.float32), rng.standard_normal(4).astype(np.float32),
    )
    out = mlp_tokens(toks, *args)
    perm = rng.permutation(6)
    assert np.allclose(mlp_tokens(toks[perm], *args), out[perm], atol=1e-6)


def zeroed_block(rng, c, heads, window):
    p = rand_attn_params(rng, c, heads, window, scale=0.0)
    return {
        "ln1.gamma": np.zeros(c, np.float32), "ln1.beta": np.zeros(c, np.float32), **p,
        "ln2.gamma": np.zeros(c, np.float32), "ln2.beta": np.zeros(c, np.float32),
        "mlp.w1": np.zeros((4 * c, c), np.float32), "mlp.b1": np.zeros(4 * c, np.float32),
        "mlp.w2": np.zeros((c, 4 * c), np.float32), "mlp.b2": np.zeros(c, np.float32),
    }


def random_block(rng, c, heads, window):
    mk = lambda *s: (0.2 * rng.standard_normal(s)).astype(np.float32)
    return {
        "ln1.gamma": np.ones(c, np.float32), "ln1.beta": np.zeros(c, np.float32),
        **rand_attn_params(rng, c, heads, window),
        "ln2.gamma": np.ones(c, np.float32), "ln2.beta": np.zeros(c, np.float32),
        "mlp.w1": mk(4 * c, c), "mlp.b1": mk(4 * c), "mlp.w2": mk(c, 4 * c), "mlp.b2": mk(c),
    }


def pair(b0, b1):
    """Two blocks' weights under the prefix "pair", as swin_pair_graph reads them."""
    return {f"pair.block{i}.{k}": v for i, b in enumerate((b0, b1)) for k, v in b.items()}


def test_swin_pair_residual_identity():
    rng = np.random.default_rng(9)
    g = rand_grid(rng, 4, (4, 4, 4))
    blocks = (zeroed_block(rng, 4, 2, 2), zeroed_block(rng, 4, 2, 2))
    out = graph(swin_pair_graph, g, pair(*blocks), "pair", 2, 2, (1, 1, 1))
    assert np.allclose(out, g, atol=1e-6)


def test_swin_pair_shape_contract():
    rng = np.random.default_rng(10)
    g = rand_grid(rng, 8, (8, 8, 8))
    blocks = (random_block(rng, 8, 2, 4), random_block(rng, 8, 2, 4))
    out = graph(swin_pair_graph, g, pair(*blocks), "pair", 2, 4, (2, 2, 2))
    assert out.shape == g.shape


def test_swin_pair_matches_dense_transformer_oracle():
    # unshifted, single window covering the grid: must equal two plain
    # pre-norm transformer layers computed densely in numpy
    rng = np.random.default_rng(11)
    c, heads, w = 6, 2, 2
    g = rand_grid(rng, c, (2, 2, 2))
    b0 = random_block(rng, c, heads, w)
    b1 = random_block(rng, c, heads, w)
    out = graph(swin_pair_graph, g, pair(b0, b1), "pair", heads, w, (0, 0, 0))

    def dense_layer(x, b):  # x: [T, C]
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5) * b["ln1.gamma"] + b["ln1.beta"]
        x = x + dense_attention_oracle(xn, b, heads, w)
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5) * b["ln2.gamma"] + b["ln2.beta"]
        h = xn @ b["mlp.w1"].T + b["mlp.b1"]
        h = 0.5 * h * (1.0 + np.vectorize(math.erf)(h / math.sqrt(2.0)))
        return x + h @ b["mlp.w2"].T + b["mlp.b2"]

    toks = windows(g, w)[0]
    expect = dense_layer(dense_layer(toks.astype(np.float64), b0), b1)
    got = windows(out, w)[0]
    assert np.abs(got - expect).max() < 1e-4


def test_sw_msa_region_isolation_small():
    # identity value path, region-constant input: output must preserve the
    # constants exactly up to float tolerance, with zero cross-region mass
    rng = np.random.default_rng(12)
    c, w = 4, 2
    dims = (4, 4, 4)
    shifts = (1, 1, 1)
    ids = np.roll(shift_region_ids(dims, w, shifts), shifts, (0, 1, 2))  # the original frame
    consts = {rid: float(i + 1) for i, rid in enumerate(np.unique(ids))}
    data = np.zeros((c,) + dims, np.float32)
    for rid, val in consts.items():
        data[:, ids == rid] = val
    p = {
        **rand_attn_params(rng, c, 2, w),
        "attn.wv": np.eye(c, dtype=np.float32), "attn.bv": np.zeros(c, np.float32),
        "attn.wo": np.eye(c, dtype=np.float32), "attn.bo": np.zeros(c, np.float32),
    }
    win = window_layout(data.shape, w, shifts)
    mask = compute_attn_mask(dims, w, shifts)
    out, attn = attention(win.split(data), p, 2, w, mask=mask)
    restored = win.join(out)
    assert np.abs(restored - data).max() < 1e-5
    blocked = np.broadcast_to((mask < 0)[:, None], attn.shape)
    assert (attn[blocked] == 0.0).all()
