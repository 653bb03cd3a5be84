"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` replaces public
functions of the engine's modules with wrappers that open a span around the
call, at the module attribute each caller looks the function up by (for
example `training.forward_graph` as well as `topology.forward_graph`, since
`training` imports it by name). The untraced run never installs them.

A span is `[name, start, end, parent, op, phase]`: `parent` indexes the
enclosing span, `op` is the id of the benchmark op that was running when the
span opened (None outside ops, negative for warm-up ops) and `phase` is one of
"setup", "warmup" or "timed".
"""

from __future__ import annotations

import importlib
import json
import resource
import time
from collections import defaultdict

import numpy as np

OP_SPAN = "bench.op"
TAPE_WALK_SPAN = "bench.tape_walk"

# (span name, [(owner, attribute), ...]); every owner is looked up lazily in
# `install` so this module imports without the engine on the path.
WRAPPED = (
    ("training.train", [("training", "train")]),
    ("training.backward", [("training", "backward")]),
    ("training.loss", [("training", "combined_loss_graph")]),
    ("training.adamw", [("training", "adamw_step")]),
    ("training.validate", [("training", "mean_foreground_dice")]),
    ("training.ckpt_save", [("training", "save_checkpoint")]),
    ("topology.init_params", [("topology", "init_params"), ("training", "init_params")]),
    ("topology.forward", [
        ("topology", "forward"), ("training", "forward"),
        ("topology", "forward_graph"), ("training", "forward_graph"),
    ]),
    ("topology.residual", [("topology", "residual_graph")]),
    ("topology.mrff", [("topology", "mrff_graph")]),
    ("topology.head", [("topology", "head_graph")]),
    ("attention.swin_pair", [("topology", "swin_pair_graph")]),
    ("attention.mask", [("attention", "compute_attn_mask")]),
    ("windowing.embed", [("topology", "embed_graph")]),
    ("windowing.merge", [("topology", "merge_graph")]),
    ("windowing.expand", [("topology", "expand_graph")]),
    ("volume.random_crop", [("volume", "random_crop"), ("training", "random_crop")]),
    ("volume.sliding_window_infer", [
        ("volume", "sliding_window_infer"), ("training", "sliding_window_infer"),
    ]),
    ("volume.read_labels", [("volume", "read_labels")]),
    ("volume.write_labels", [("volume", "write_labels")]),
    ("metrics.evaluate_case", [("metrics", "evaluate_case")]),
    ("metrics.regions", [("metrics", "brats_regions")]),
    ("metrics.hd95", [("metrics", "hd95")]),
    ("metrics.surface", [("metrics", "surface_voxels")]),
)

# Per-layer metric -> span whose self time, summed over the timed ops and
# divided by their number, gives it (seconds per op).
SELF_TIME_METRICS = {
    "autodiff.backward_s": "autodiff.backward",
    "topology.forward_s": "topology.forward",
    "topology.residual_s": "topology.residual",
    "topology.head_s": "topology.head",
    "attention.swin_pair_s": "attention.swin_pair",
    "attention.mask_s": "attention.mask",
    "windowing.embed_s": "windowing.embed",
    "windowing.merge_s": "windowing.merge",
    "windowing.expand_s": "windowing.expand",
    "training.loss_s": "training.loss",
    "training.adamw_s": "training.adamw",
    "training.validate_s": "training.validate",
    "training.ckpt_save_s": "training.ckpt_save",
    "volume.assembly_s": "volume.sliding_window_infer",
    "volume.read_s": "volume.read_labels",
    "metrics.hd95_s": "metrics.hd95",
    "metrics.regions_s": "metrics.regions",
    "metrics.surface_s": "metrics.surface",
}

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    "topology.init_params_s": "s",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "autodiff.backward_rss_mb": "MB",
    "attention.mask_calls": "count",
    "attention.mask_keys": "count",
    "metrics.surface_points": "count",
}


def maxrss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tape_size(loss) -> tuple[int, float]:
    """(node count, MB of distinct array buffers) reachable from `loss` via `_parents`.

    Views are charged to the buffer they look into, once.
    """
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        base = node.data
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes
        stack.extend(node._parents)
    return len(seen), sum(buffers.values()) / 2**20


class Tracer:
    """In-memory spans plus counters; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.phase = "setup"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.mask_keys: dict[int | None, set] = defaultdict(set)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op_id, self.phase])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self.begin(OP_SPAN)

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self.op_id = None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- special spans

    def _wrap_backward(self, fn):
        def backward(loss):
            idx = self.begin(TAPE_WALK_SPAN)
            nodes, mb = tape_size(loss)
            self.end(idx)
            self.peaks["autodiff.tape_nodes"] = max(self.peaks["autodiff.tape_nodes"], nodes)
            self.peaks["autodiff.tape_mb"] = max(self.peaks["autodiff.tape_mb"], mb)
            before = maxrss_mb()
            idx = self.begin("autodiff.backward")
            try:
                return fn(loss)
            finally:
                self.end(idx)
                self.peaks["autodiff.backward_rss_mb"] += maxrss_mb() - before

        backward.__wrapped__ = fn
        return backward

    def _wrap_mask(self, fn):
        traced = self.wrap("attention.mask", fn)

        def compute_attn_mask(dims, window, shifts):
            self.count("attention.mask_calls")
            self.mask_keys[self.op_id].add((tuple(dims), window, tuple(shifts)))
            return traced(dims, window, shifts)

        compute_attn_mask.__wrapped__ = fn
        return compute_attn_mask

    def _wrap_surface(self, fn):
        traced = self.wrap("metrics.surface", fn)

        def surface_voxels(mask):
            points = traced(mask)
            self.count("metrics.surface_points", len(points))
            return points

        surface_voxels.__wrapped__ = fn
        return surface_voxels

    def install(self):
        """Wrap every target in `WRAPPED` and Tensor.backward; returns an undo function."""
        modules = {
            name: importlib.import_module(f"hrstnet.{name}")
            for name in ("attention", "autodiff", "metrics", "topology", "training", "volume")
        }
        special = {
            "attention.mask": self._wrap_mask,
            "metrics.surface": self._wrap_surface,
        }
        saved = []
        for span, targets in WRAPPED:
            for owner_name, attr in targets:
                owner = modules[owner_name]
                original = getattr(owner, attr)
                wrapper = special[span](original) if span in special else self.wrap(span, original)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        tensor = modules["autodiff"].Tensor
        saved.append((tensor, "backward", tensor.backward))
        tensor.backward = self._wrap_backward(tensor.backward)

        def undo():
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return undo

    # -------------------------------------------------------------- summaries

    def self_times(self) -> list[float]:
        return self_times(self.spans)

    def per_layer(self, timed_ops: int) -> dict[str, float]:
        """Every per-layer metric; layers a workload does not exercise read 0."""
        per_op = max(timed_ops, 1)
        timed = {name: s_per_op for name, _, _, s_per_op in self.self_time_table(timed_ops)}
        out = {metric: timed.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
        inits = [own for span, own in zip(self.spans, self.self_times()) if span[0] == "topology.init_params"]
        out["topology.init_params_s"] = sum(inits) / len(inits) if inits else 0.0
        for name in ("autodiff.tape_nodes", "autodiff.tape_mb", "autodiff.backward_rss_mb"):
            out[name] = self.peaks[name]
        out["attention.mask_calls"] = self.counts[("timed", "attention.mask_calls")] / per_op
        timed_keys = [len(keys) for op, keys in self.mask_keys.items() if op is not None and op >= 0]
        out["attention.mask_keys"] = sum(timed_keys) / per_op
        out["metrics.surface_points"] = self.counts[("timed", "metrics.surface_points")] / per_op
        return {name: out[name] for name in PER_LAYER_UNITS}

    def op_coverage(self) -> list[float]:
        """Per timed op: share of its wall time covered by its direct child spans."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            if parent is not None and self.spans[parent][0] == OP_SPAN:
                covered[parent] += span[2] - span[1]
        return [
            covered[i] / (s[2] - s[1])
            for i, s in enumerate(self.spans)
            if s[0] == OP_SPAN and s[5] == "timed" and s[2] > s[1]
        ]

    def self_time_table(self, timed_ops: int) -> list[tuple[str, int, float, float]]:
        """(span name, calls, self seconds, self seconds per op) over the timed phase."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if span[5] == "timed":
                calls[span[0]] += 1
                total[span[0]] += own
        rows = [(n, calls[n], total[n], total[n] / max(timed_ops, 1)) for n in total]
        return sorted(rows, key=lambda r: -r[2])

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "phase")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans of one thread nest and do not overlap, so the children's covered
    time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]
