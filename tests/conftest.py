import numpy as np
import pytest
from scipy.special import erf

from hrstnet import autodiff as ad
from hrstnet import cli, topology, training, volume
from hrstnet.autodiff import Tensor
from hrstnet.windowing import Windows, window_layout

# Tiny config used throughout: minimal valid input 16^3, ~47k parameters.
TINY = cli.TINY_GRADCHECK_CONFIG


@pytest.fixture(scope="session")
def tiny_cfg():
    return TINY


@pytest.fixture(scope="session")
def sphere_case():
    """One 16^3 volume with a radius-5 class-1 sphere."""
    return volume.generate_synthetic(
        volume.SyntheticSpec(
            seed=11, dims=(16, 16, 16), channels=1, num_classes=2,
            blobs_per_class=1, radius_range=(5, 5), noise_sigma=0.1,
        )
    )


@pytest.fixture(scope="session")
def overfit_run(tmp_path_factory, sphere_case):
    """300-step single-sample training run, shared by acceptance and CLI tests."""
    import time

    out = tmp_path_factory.mktemp("overfit")
    vol, lab = sphere_case
    tc = training.TrainConfig(
        epochs=300, crop=(16, 16, 16), seed=0, base_lr=3e-2, warmup_epochs=10,
        val_every=50, weight_decay=0.01,
    )
    t0 = time.monotonic()
    result = training.train(tc, TINY, [(vol, lab)], out_dir=str(out))
    elapsed = time.monotonic() - t0
    return {
        "out": out, "result": result, "vol": vol, "lab": lab, "cfg": TINY,
        "train_seconds": elapsed,
    }


class Stopped(Exception):
    """Raised into a training run by `train_stopped_after`."""


def train_stopped_after(epochs, train_cfg, model_cfg, train_set, *args, **kwargs):
    """`training.train(train_cfg, model_cfg, train_set, *args, **kwargs)`
    stopped at the first step after `epochs` completed epochs, where a
    patched `training.random_crop` raises `Stopped`: the run's directory is
    left as a kill at that step leaves it."""
    crops = epochs * len(train_set)
    real = training.random_crop

    def crop(*crop_args):
        nonlocal crops
        if crops == 0:
            raise Stopped
        crops -= 1
        return real(*crop_args)

    training.random_crop = crop
    try:
        with pytest.raises(Stopped):
            training.train(train_cfg, model_cfg, train_set, *args, **kwargs)
    finally:
        training.random_crop = real


def tiny_params(seed=0):
    return topology.init_params(TINY, seed)


def rand_grid(rng, channels, dims):
    return rng.standard_normal((channels,) + tuple(dims)).astype(np.float32)


def _tensors(x):
    if isinstance(x, np.ndarray):
        return Tensor(np.asarray(x, dtype=np.float32))
    if isinstance(x, (list, tuple)):
        return type(x)(map(_tensors, x))
    if isinstance(x, dict):
        return {k: _tensors(v) for k, v in x.items()}
    return x


def _arrays(x):
    if isinstance(x, Tensor):
        return x.data
    if isinstance(x, (list, tuple)):
        return type(x)(map(_arrays, x))
    return x


def graph(fn, *args, **kwargs):
    """Call a graph function with every ndarray in `args` (also inside lists,
    tuples and dicts) as a float32 Tensor; Tensors in the result come back as
    ndarrays. Keyword arguments, such as masks and one-hot labels, pass as given."""
    return _arrays(fn(*map(_tensors, args), **kwargs))


def add(a: Tensor, b) -> Tensor:
    """The sum node composed oracles are built from (the network makes its
    sums inside the nodes that replaced it): a + b, b a Tensor or a constant
    of a's float dtype; backward hands a, then b, the gradient summed back
    to its shape, through `autodiff._accum` as every rule does."""
    b = ad._coerce(b, a)

    def bwd(g):
        ad._accum(a, ad._unbroadcast(g, a.data.shape))
        ad._accum(b, ad._unbroadcast(g, b.data.shape))

    return ad._node(a.data + b.data, (a, b), bwd)


def gelu(a: Tensor) -> Tensor:
    """The GELU node composed oracles are built from (the network runs GELU
    inside `autodiff.gelu_linear`): exact (erf-based) GELU. From SPLIT_ELEMS
    elements, forward and backward run by leading-axis halves on two workers
    (`autodiff._split`), each half writing its slice of the output through
    `out=`: the same elementwise operations in the same order, so every bit
    is the one-worker run's."""
    x = a.data
    n = x.shape[0]
    cut = ad._lead_cut(n, x.size)
    cdf, data = np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype)

    def fwd(lo, hi):  # cdf = 0.5 * (1 + erf(x / sqrt2)), data = x * cdf
        xs, cs = x[lo:hi], cdf[lo:hi]
        np.multiply(xs, ad._INV_SQRT2, out=cs)
        erf(cs, out=cs)
        np.add(cs, 1.0, out=cs)
        np.multiply(cs, 0.5, out=cs)
        np.multiply(xs, cs, out=data[lo:hi])

    ad._split(fwd, n, cut)

    def bwd(g):
        gx = np.empty(x.shape, x.dtype)

        def back(lo, hi):  # g * (cdf + x * exp(-x*x/2) / sqrt(2 pi))
            xs, o = x[lo:hi], gx[lo:hi]
            np.multiply(xs, -0.5, out=o)
            np.multiply(o, xs, out=o)
            np.exp(o, out=o)
            np.multiply(o, ad._INV_SQRT2PI, out=o)
            np.multiply(xs, o, out=o)
            np.add(cdf[lo:hi], o, out=o)
            np.multiply(g[lo:hi], o, out=o)

        ad._split(back, n, cut)
        ad._accum(a, gx)

    return ad._node(data, (a,), bwd)


# The composed window chain, a node per step, that the network's fused
# nodes are checked against bit for bit: the layout is `windowing.Windows`'s.


def pad(a: Tensor, pad_width) -> Tensor:
    """Zero padding; backward hands a the gradient's inner region."""
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    data = np.pad(a.data, pad_width)
    inner = tuple(slice(lo, lo + s) for (lo, _), s in zip(pad_width, a.data.shape))

    def bwd(g):
        ad._accum(a, g[inner])

    return ad._node(data, (a,), bwd)


def slice_(a: Tensor, key) -> Tensor:
    """Basic slicing (slices only, so rank is preserved); backward passes the
    gradient, scattered into zeros of a's shape, through `autodiff._accum`."""
    data = a.data[key]

    def bwd(g):
        ad._accum(a, ad._unslice(g, a.data.shape, a.data.dtype, key))

    return ad._node(data, (a,), bwd)


def roll(a: Tensor, shifts, axes) -> Tensor:
    shifts = tuple(int(s) for s in shifts)
    axes = tuple(axes)
    data = np.roll(a.data, shifts, axes)

    def bwd(g):
        ad._accum(a, np.roll(g, tuple(-s for s in shifts), axes))

    return ad._node(data, (a,), bwd)


def shift_graph(x: Tensor, shifts: tuple[int, int, int]) -> Tensor:
    return roll(x, shifts, (1, 2, 3))


def partition_graph(
    x: Tensor, window: int, shifts: tuple[int, int, int] = (0, 0, 0)
) -> tuple[Tensor, tuple[int, int, int]]:
    """Zero-pad to window multiples, roll by -shifts, split into [nW, w^3, C]
    windows; also returns the padded dims."""
    win = window_layout(x.shape, window, shifts)
    if win.padded != win.dims:
        x = pad(x, win.pad_width)
    if any(shifts):
        x = shift_graph(x, tuple(-s for s in shifts))
    split, axes, merge = win.cut
    return ad.permute(x, axes, split=split, merge=merge), win.padded


def reverse_graph(
    t: Tensor, window: int, padded_dims: tuple, out_dims: tuple,
    shifts: tuple[int, int, int] = (0, 0, 0),
) -> Tensor:
    """Inverse of partition_graph: merge windows, roll back by shifts, crop to out_dims."""
    win = Windows(t.shape[2], tuple(out_dims), tuple(padded_dims), window, tuple(shifts))
    split, axes, merge = win.uncut
    x = ad.permute(t, axes, split=split, merge=merge)
    if any(shifts):
        x = shift_graph(x, shifts)
    if win.padded != win.dims:
        x = slice_(x, win.crop)
    return x
