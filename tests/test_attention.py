import math

import numpy as np
import pytest

from hrstnet.attention import (
    AttnTensors,
    BlockTensors,
    _mlp_channels,
    attention_graph,
    compute_attn_mask,
    layer_norm_graph,
    relative_position_index,
    shift_region_ids,
    swin_pair_graph,
)
from hrstnet.errors import ShapeError
from hrstnet.windowing import partition_graph, reverse_graph, shift_graph

from conftest import graph, rand_grid


def rand_attn_params(rng, c, heads, window, zero_bias_table=False, scale=0.2):
    t = (2 * window - 1) ** 3
    mk = lambda *s: (scale * rng.standard_normal(s)).astype(np.float32)
    return AttnTensors(
        wq=mk(c, c), bq=mk(c), wk=mk(c, c), bk=mk(c), wv=mk(c, c), bv=mk(c),
        wo=mk(c, c), bo=mk(c),
        table=np.zeros((t, heads), np.float32) if zero_bias_table else mk(t, heads),
        heads=heads, window=window,
    )


def windows(g, window):
    return graph(partition_graph, g, window)[0]


def attention(wins, p, mask=None):
    """Attention output and post-softmax weights [nW, heads, T, T]."""
    return graph(attention_graph, wins, p, mask=mask, debug=True)


def dense_attention_oracle(tokens, p, mask_row=None):
    """O(T^2) reference: per-head softmax attention with relative bias."""
    t, c = tokens.shape
    dh = c // p.heads
    idx = relative_position_index(p.window)
    q = tokens @ p.wq.T + p.bq
    k = tokens @ p.wk.T + p.bk
    v = tokens @ p.wv.T + p.bv
    heads_out = []
    for h in range(p.heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh) + p.table[idx, h]
        if mask_row is not None:
            logits = logits + mask_row
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        heads_out.append(a @ v[:, sl])
    return np.concatenate(heads_out, axis=1) @ p.wo.T + p.bo


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
    out, _ = attention(windows(tok.reshape(4, 1, 1, 1), 1), p)
    expect = (tok[0, 0] @ p.wv.T + p.bv) @ p.wo.T + p.bo
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
        out, _ = attention(wins, p)
        oracle = dense_attention_oracle(wins[0], p)
        assert np.abs(out[0] - oracle).max() < 1e-5


def test_attention_zero_weights():
    rng = np.random.default_rng(2)
    p = rand_attn_params(rng, 4, 2, 2, scale=0.0)
    g = rand_grid(rng, 4, (2, 2, 2))
    out, _ = attention(windows(g, 2), p)
    assert not out.any()


def test_attention_rows_sum_to_one_debug():
    rng = np.random.default_rng(3)
    p = rand_attn_params(rng, 6, 3, 2)
    g = rand_grid(rng, 6, (4, 4, 4))
    _, attn = attention(windows(g, 2), p)
    assert attn.shape == (8, 3, 8, 8)
    assert np.abs(attn.sum(axis=-1) - 1.0).max() < 1e-6


def test_attention_permutation_equivariance():
    rng = np.random.default_rng(4)
    p = rand_attn_params(rng, 4, 2, 2, zero_bias_table=True)
    g = rand_grid(rng, 4, (2, 2, 2))
    wins = windows(g, 2)
    out, _ = attention(wins, p)
    perm = rng.permutation(8)
    out_p, _ = attention(wins[:, perm], p)
    assert np.allclose(out_p[0], out[0][perm], atol=1e-5)


def test_attention_channel_mismatch():
    rng = np.random.default_rng(5)
    p = rand_attn_params(rng, 4, 2, 2)
    g = rand_grid(rng, 6, (2, 2, 2))
    with pytest.raises(ShapeError):
        attention(windows(g, 2), p)


def test_mask_no_shift_all_zero():
    mask = compute_attn_mask((4, 4, 4), 2, (0, 0, 0))
    assert mask.shape == (8, 8, 8) and not mask.any()


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
    shifted = shift_region_ids((1, 1, 4), 2, (0, 0, 1), frame="shifted")
    wins = _partition_ids(shifted, 2)
    for wi in range(wins.shape[0]):
        same = wins[wi][:, None] == wins[wi][None, :]
        assert np.array_equal(mask[wi] == 0, same)


def _partition_ids(ids, window):
    return windows(ids[None], window)[:, :, 0]


def test_mask_corner_window_has_eight_regions():
    ids = shift_region_ids((4, 4, 4), 2, (1, 1, 1), frame="shifted")
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
    _, attn = attention(windows(g, 2), p, mask=mask)
    blocked = np.broadcast_to((mask < 0)[:, None], attn.shape)
    assert (attn[blocked] == 0.0).all()


def layer_norm_tokens(tokens, gamma, beta):
    """Layer norm over the last axis of [T, C] tokens."""
    return graph(layer_norm_graph, tokens, gamma, beta, axis=1)


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
    return BlockTensors(
        ln1_g=np.zeros(c, np.float32), ln1_b=np.zeros(c, np.float32), attn=p,
        ln2_g=np.zeros(c, np.float32), ln2_b=np.zeros(c, np.float32),
        w1=np.zeros((4 * c, c), np.float32), b1=np.zeros(4 * c, np.float32),
        w2=np.zeros((c, 4 * c), np.float32), b2=np.zeros(c, np.float32),
    )


def random_block(rng, c, heads, window):
    mk = lambda *s: (0.2 * rng.standard_normal(s)).astype(np.float32)
    return BlockTensors(
        ln1_g=np.ones(c, np.float32), ln1_b=np.zeros(c, np.float32),
        attn=rand_attn_params(rng, c, heads, window),
        ln2_g=np.ones(c, np.float32), ln2_b=np.zeros(c, np.float32),
        w1=mk(4 * c, c), b1=mk(4 * c), w2=mk(c, 4 * c), b2=mk(c),
    )


def test_swin_pair_residual_identity():
    rng = np.random.default_rng(9)
    g = rand_grid(rng, 4, (4, 4, 4))
    blocks = (zeroed_block(rng, 4, 2, 2), zeroed_block(rng, 4, 2, 2))
    out = graph(swin_pair_graph, g, *blocks, 2, (1, 1, 1))
    assert np.allclose(out, g, atol=1e-6)


def test_swin_pair_shape_contract():
    rng = np.random.default_rng(10)
    g = rand_grid(rng, 8, (8, 8, 8))
    blocks = (random_block(rng, 8, 2, 4), random_block(rng, 8, 2, 4))
    out = graph(swin_pair_graph, g, *blocks, 4, (2, 2, 2))
    assert out.shape == g.shape


def test_swin_pair_matches_dense_transformer_oracle():
    # unshifted, single window covering the grid: must equal two plain
    # pre-norm transformer layers computed densely in numpy
    rng = np.random.default_rng(11)
    c, heads, w = 6, 2, 2
    g = rand_grid(rng, c, (2, 2, 2))
    b0 = random_block(rng, c, heads, w)
    b1 = random_block(rng, c, heads, w)
    out = graph(swin_pair_graph, g, b0, b1, w, (0, 0, 0))

    def dense_layer(x, b):  # x: [T, C]
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5) * b.ln1_g + b.ln1_b
        x = x + dense_attention_oracle(xn, b.attn)
        mu = x.mean(-1, keepdims=True)
        var = ((x - mu) ** 2).mean(-1, keepdims=True)
        xn = (x - mu) / np.sqrt(var + 1e-5) * b.ln2_g + b.ln2_b
        h = xn @ b.w1.T + b.b1
        h = 0.5 * h * (1.0 + np.vectorize(math.erf)(h / math.sqrt(2.0)))
        return x + h @ b.w2.T + b.b2

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
    ids = shift_region_ids(dims, w, shifts, frame="original")
    consts = {rid: float(i + 1) for i, rid in enumerate(np.unique(ids))}
    data = np.zeros((c,) + dims, np.float32)
    for rid, val in consts.items():
        data[:, ids == rid] = val
    p = rand_attn_params(rng, c, 2, w)._replace(
        wv=np.eye(c, dtype=np.float32), bv=np.zeros(c, np.float32),
        wo=np.eye(c, dtype=np.float32), bo=np.zeros(c, np.float32),
    )
    shifted = graph(shift_graph, data, tuple(-s for s in shifts))
    wins, padded = graph(partition_graph, shifted, w)
    mask = compute_attn_mask(dims, w, shifts)
    out, attn = attention(wins, p, mask=mask)
    restored = graph(shift_graph, graph(reverse_graph, out, w, padded, dims), shifts)
    assert np.abs(restored - data).max() < 1e-5
    blocked = np.broadcast_to((mask < 0)[:, None], attn.shape)
    assert (attn[blocked] == 0.0).all()
