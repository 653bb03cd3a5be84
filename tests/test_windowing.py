import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hrstnet.windowing import embed_graph, expand_graph, merge_graph, window_layout

from conftest import graph, rand_grid


def windows(g, window, shifts=(0, 0, 0)):
    return window_layout(g.shape, window, shifts).split(g)


def round_trip(g, window, shifts=(0, 0, 0)):
    win = window_layout(g.shape, window, shifts)
    return win.join(win.split(g))


def shift(g, shifts):
    """g rolled by shifts over (d, h, w): the window-1 layout's join."""
    return window_layout(g.shape, 1, shifts).join(windows(g, 1))


def test_patch_embed_grid_and_token_count():
    vol = np.zeros((1, 128, 128, 128), dtype=np.float32)
    w = np.zeros((2, 64), dtype=np.float32)
    grid = graph(embed_graph, vol, w, np.zeros(2, dtype=np.float32), 4)
    assert grid.shape[1:] == (32, 32, 32)
    assert np.prod(grid.shape[1:]) == 32768


def test_patch_embed_identity_p1():
    rng = np.random.default_rng(0)
    vol = rng.standard_normal((3, 4, 4, 4)).astype(np.float32)
    grid = graph(embed_graph, vol, np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32), 1)
    assert np.allclose(grid, vol, atol=1e-6)


def test_patch_embed_locality():
    # token (i,j,k) depends only on voxels of patch (i,j,k)
    rng = np.random.default_rng(1)
    data = rng.standard_normal((1, 8, 8, 8)).astype(np.float32)
    w = rng.standard_normal((3, 64)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    base = graph(embed_graph, data.copy(), w, b, 4)
    poked = data.copy()
    poked[0, 5, 5, 5] += 10.0  # inside patch (1,1,1)
    out = graph(embed_graph, poked, w, b, 4)
    changed = np.argwhere(np.abs(out - base).sum(axis=0) > 0)
    assert changed.tolist() == [[1, 1, 1]]


def test_window_partition_counts():
    rng = np.random.default_rng(2)
    g = rand_grid(rng, 3, (4, 4, 4))
    wins = windows(g, 4)
    assert wins.shape == (1, 64, 3)
    wins = windows(g, 2)
    assert wins.shape == (8, 8, 3)


def test_window_partition_padding_case():
    rng = np.random.default_rng(3)
    g = rand_grid(rng, 2, (3, 3, 3))
    win = window_layout(g.shape, 2)
    wins = win.split(g)
    assert win.padded == (4, 4, 4)
    assert wins.shape == (8, 8, 2)
    back = win.join(wins)
    assert np.array_equal(back, g)


def test_window_order_lexicographic():
    # token values encode their (d, h, w) coordinate; window 0 must hold the
    # origin corner in lexicographic order
    d = h = w = 4
    coords = np.arange(d * h * w, dtype=np.float32).reshape(1, d, h, w)
    wins = windows(coords, 2)
    expect_first = [
        coords[0, z, y, x] for z in (0, 1) for y in (0, 1) for x in (0, 1)
    ]
    assert np.array_equal(wins[0, :, 0], np.array(expect_first, dtype=np.float32))


@given(
    d=st.integers(1, 9), h=st.integers(1, 9), w=st.integers(1, 9),
    win=st.integers(1, 4), seed=st.integers(0, 1000), data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_partition_reverse_bijection(d, h, w, win, seed, data):
    # pad and roll together: shifts in [0, win)^3 on any dims
    shifts = data.draw(st.tuples(*[st.integers(0, win - 1)] * 3), label="shifts")
    rng = np.random.default_rng(seed)
    g = rand_grid(rng, 2, (d, h, w))
    assert np.array_equal(round_trip(g, win, shifts), g)


def test_shifted_partition_reverse_round_trip():
    # pad, roll and crop live in split/join: every shift in [0, w) on
    # grids that are not window multiples comes back bit for bit, and the
    # windows hold the padded grid rolled by -shifts
    rng = np.random.default_rng(9)
    for window in (2, 3, 4):
        for _ in range(4):
            dims = tuple(int(window * rng.integers(1, 3) + rng.integers(1, window)) for _ in range(3))
            g = rand_grid(rng, 2, dims)
            padded = tuple(-(-d // window) * window for d in dims)
            zero_padded = np.pad(g, [(0, 0)] + [(0, q - d) for q, d in zip(padded, dims)])
            for shifts in itertools.product(range(window), repeat=3):
                win = window_layout(g.shape, window, shifts)
                wins = win.split(g)
                assert win.padded == padded
                rolled = np.roll(zero_padded, tuple(-s for s in shifts), (1, 2, 3))
                assert np.array_equal(wins, windows(rolled, window))
                back = win.join(wins)
                assert np.array_equal(back, g)


def test_single_token_grid_round_trip():
    g = np.ones((5, 1, 1, 1), dtype=np.float32)
    assert np.array_equal(round_trip(g, 3), g)


def test_cyclic_shift_identities_and_roll():
    rng = np.random.default_rng(4)
    g = rand_grid(rng, 2, (3, 4, 5))
    assert np.array_equal(shift(g, (0, 0, 0)), g)
    assert np.array_equal(shift(g, (3, 4, 5)), g)
    line = np.array([1.0, 2.0, 3.0, 4.0], np.float32).reshape(1, 1, 1, 4)
    rolled = shift(line, (0, 0, 1))
    assert rolled.reshape(-1).tolist() == [4.0, 1.0, 2.0, 3.0]


@given(
    sd=st.integers(-4, 4), sh=st.integers(-4, 4), sw=st.integers(-4, 4),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_cyclic_shift_inverse(sd, sh, sw, seed):
    rng = np.random.default_rng(seed)
    g = rand_grid(rng, 2, (3, 4, 5))
    back = shift(shift(g, (sd, sh, sw)), (-sd, -sh, -sw))
    assert np.array_equal(back, g)


def test_patch_merge_shape_law():
    rng = np.random.default_rng(5)
    g = rand_grid(rng, 4, (8, 8, 8))
    out = graph(merge_graph, g, rng.standard_normal((8, 32)).astype(np.float32))
    assert out.shape == (8, 4, 4, 4)


def test_patch_merge_zero_weights():
    rng = np.random.default_rng(6)
    g = rand_grid(rng, 2, (2, 2, 2))
    out = graph(merge_graph, g, np.zeros((4, 16), np.float32))
    assert not out.any() and out.shape[1:] == (1, 1, 1)


def test_patch_merge_one_hot_selects_corner_child():
    rng = np.random.default_rng(7)
    g = rand_grid(rng, 2, (2, 2, 2))
    # one-hot rows picking the first child block (offset (0,0,0), channels 0..1)
    w = np.zeros((4, 16), np.float32)
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    out = graph(merge_graph, g, w)
    assert np.allclose(out[:2, 0, 0, 0], g[:, 0, 0, 0])
    assert not out[2:].any()


def test_patch_expand_shape_and_round_trip_shape():
    rng = np.random.default_rng(9)
    g = rand_grid(rng, 8, (4, 4, 4))
    out = graph(expand_graph, g, rng.standard_normal((32, 8)).astype(np.float32))
    assert out.shape == (4, 8, 8, 8)
    back = graph(merge_graph, out, rng.standard_normal((8, 32)).astype(np.float32))
    assert back.shape == g.shape


def test_patch_expand_identity_block_tiling():
    # projection = 4 stacked identities, so the expanded vector is [x,x,x,x];
    # block (a,b,c) then carries slab 4a+2b+c of that vector
    x = np.arange(8, dtype=np.float32).reshape(8, 1, 1, 1)
    w = np.vstack([np.eye(8, dtype=np.float32)] * 4)
    out = graph(expand_graph, x, w)
    y = np.concatenate([x[:, 0, 0, 0]] * 4)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                idx = 4 * a + 2 * b + c
                assert np.array_equal(out[:, a, b, c], y[idx * 4 : idx * 4 + 4])
