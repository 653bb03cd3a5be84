import numpy as np
import pytest

from hrstnet import autodiff as ad
from hrstnet import cli, topology, training, volume
from hrstnet.autodiff import Tensor

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
