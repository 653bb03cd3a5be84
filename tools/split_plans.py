"""Print every split plan the engine makes on three workloads, one line each.

A plan is what `autodiff._split` is given (n, cut: 0 runs whole), what
`autodiff._forward_blocks` returns for a blocked forward (conv3's and
expand's): the planes of each block, and whether the blocks are dealt to two
workers or all run on the caller, and, for each stage and fusion block, how
its streams or targets run: `tasks 1|k` where they are two tasks
(`autodiff.tasks`: one on the caller, k in order on the pool thread, where
`autodiff._as_tasks` says the sizes call for them), else
`whole`, all in order on the caller. Plans depend on shapes alone, not on
the worker count, so a change that means to keep, or to move, a set of plans
runs this on the parent commit and on the change and diffs the output:

    PYTHONPATH=src python tools/split_plans.py > change.txt
    mkdir -p /tmp/parent && git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tools/split_plans.py > parent.txt
    diff parent.txt change.txt

It records with `autodiff.WORKERS` set to 1. The plans are the same at any
worker count, and at one worker tasks run in order on the caller, so the
lines come out in one fixed order: at two, the pool thread's task would
write its lines while the caller writes its own.

It reads the engine only from outside: it wraps the kernels, the two
planners, `autodiff._as_tasks` and the topology's stage and fusion graph
functions in its own process, as module attributes, and changes no engine
code. Each line names its workload, its site (the parameter the kernel reads,
`head.expand1` say, or the kernel where it reads none, with `bwd` for its
backward rule; `stage2` or `mrff3` for a section's tasks line), the engine
function that made the plan, and the plan. Sites are kept per thread.

Workloads: the tiny test config's `training.backward` at 32^3 (`tiny`);
variant 4 / embed 16 at 64^3, `training.backward` then one
`training.adamw_step` (`v4`); one paper-default `topology.forward` on a
64^3 tile (`paper`, about 0.9 GB peak).
"""

from __future__ import annotations

import sys
import threading

from hrstnet import autodiff as ad
from hrstnet import cli, topology, training, volume

# the public kernels whose forward or backward rules make plans
KERNELS = ("conv3", "expand", "channels_linear", "gelu_linear", "tokens_linear", "window_attention",
           "window_residual")
V4 = topology.ModelConfig(
    variant=4, embed_dim=16, patch_size=4, window=4, heads=(1, 2, 4, 8),
    in_channels=1, num_classes=2,
)


class Recorder:
    """Wraps the kernels, planners and sections while active; `lines`
    collects the plans."""

    def __init__(self):
        self.lines: list[str] = []
        self.workload = ""
        self.names: dict[int, str] = {}  # id of a parameter array -> its name
        self.local = threading.local()  # .sites: this thread's kernel calls or backward rules running
        self.tasked = False  # whether the running section takes tasks (`_as_tasks`)

    def sites(self) -> list[str]:
        if not hasattr(self.local, "sites"):
            self.local.sites = []
        return self.local.sites

    def site(self) -> str:
        sites = self.sites()
        return sites[-1] if sites else "-"

    def kernel(self, name, run):
        def wrapped(*args, **kwargs):
            param = next((self.names[id(a.data)] for a in args
                          if isinstance(a, ad.Tensor) and id(a.data) in self.names), None)
            site = name if param is None else param.removesuffix(".weight")
            self.sites().append(site)
            try:
                out = run(*args, **kwargs)
            finally:
                self.sites().pop()
            node = out[0] if isinstance(out, tuple) else out
            if node._backward is not None:
                node._backward = self.rule(f"{site} bwd", node._backward)
            return out

        return wrapped

    def rule(self, site, bwd):
        def wrapped(g):
            self.sites().append(site)
            try:
                bwd(g)
            finally:
                self.sites().pop()

        return wrapped

    def split(self, run):
        def wrapped(piece, n, cut):
            caller = sys._getframe(1).f_code.co_qualname
            self.lines.append(f"{self.workload} {self.site()} {caller} n={n} cut={cut}")
            return run(piece, n, cut)

        return wrapped

    def forward_blocks(self, run):
        def wrapped(k, dims, per, itemsize):
            planes, step = run(k, dims, per, itemsize)
            d = dims[0]
            sizes = "+".join(str(min(planes, d - z0)) for z0 in range(0, d, planes))
            how = "dealt" if step == 2 else "caller"
            self.lines.append(f"{self.workload} {self.site()} _forward_blocks k={k} "
                              f"dims={'x'.join(map(str, dims))} planes={sizes} {how}")
            return planes, step

        return wrapped

    def section(self, kind, run):
        """A stage's or fusion block's graph function over its n streams or
        targets: one line before its plans, `tasks 1|n-1` or `whole`."""
        def wrapped(cfg, pt, n, *args):
            at, self.tasked = len(self.lines), False
            out = run(cfg, pt, n, *args)
            how = f"tasks 1|{n - 1}" if self.tasked else "whole"
            self.lines.insert(at, f"{self.workload} {kind}{n} {how}")
            return out

        return wrapped

    def as_tasks(self, run):
        def wrapped(n, elems):
            self.tasked = run(n, elems)
            return self.tasked

        return wrapped

    def patch(self):
        """(module, name, value) for every attribute this recorder replaces."""
        return ([(ad, k, self.kernel(k, getattr(ad, k))) for k in KERNELS]
                + [(ad, "_split", self.split(ad._split)),
                   (ad, "_forward_blocks", self.forward_blocks(ad._forward_blocks)),
                   (ad, "_as_tasks", self.as_tasks(ad._as_tasks)),
                   (ad, "WORKERS", 1),  # one fixed line order; see the module docstring
                   (topology, "stage_graph", self.section("stage", topology.stage_graph)),
                   (topology, "mrff_graph", self.section("mrff", topology.mrff_graph))])


def case(cfg, dims, seed):
    return volume.generate_synthetic(volume.SyntheticSpec(
        seed=seed, dims=dims, channels=cfg.in_channels, num_classes=cfg.num_classes,
        radius_range=(8, 14) if min(dims) >= 64 else (3, 6),
    ))


def tiny():
    cfg = cli.TINY_GRADCHECK_CONFIG
    params = topology.init_params(cfg, 1)
    return params, lambda: training.backward(cfg, params, *case(cfg, (32, 32, 32), 0))


def v4():
    params = topology.init_params(V4, 1)

    def run():
        grads, _ = training.backward(V4, params, *case(V4, (64, 64, 64), 0))
        training.adamw_step(params, grads, training.init_optim_state(params), 1e-3)

    return params, run


def paper():
    cfg = topology.ModelConfig()
    params = topology.init_params(cfg, 1)
    vol, _ = case(cfg, (64, 64, 64), 0)
    return params, lambda: topology.forward(cfg, params, vol)


WORKLOADS = {"tiny": tiny, "v4": v4, "paper": paper}


def plans(workloads=tuple(WORKLOADS)) -> list[str]:
    """The plan lines of these workloads, in call order."""
    rec = Recorder()
    patched = rec.patch()
    saved = [(module, name, getattr(module, name)) for module, name, _ in patched]
    for module, name, value in patched:
        setattr(module, name, value)
    try:
        for name in workloads:
            params, run = WORKLOADS[name]()
            rec.workload, rec.names = name, {id(a): k for k, a in params.items()}
            run()
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return rec.lines


def main() -> None:
    print(f"hrstnet from {ad.__file__}", file=sys.stderr)
    for line in plans():
        print(line)


if __name__ == "__main__":
    main()
