"""Tests of the benchmark itself: statistics, span accounting, inputs, failures.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT / "perfbench")) if p not in sys.path]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ------------------------------------------------------------- percentiles


@pytest.mark.parametrize("samples, tail", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond_it(samples, tail):
    assert harness.tail_percentile(samples) == tail


def test_percentile_matches_numpy_linear():
    values = list(np.random.default_rng(0).exponential(size=257))
    for q in (0.0, 50.0, 90.0, 99.0, 100.0):
        assert harness.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


# --------------------------------------------------------------- self time


def test_self_time_on_hand_built_span_tree():
    #   op [0, 10]
    #     a [1, 6]      b [6, 9]
    #       c [2, 3]      d [7, 8.5]
    #       e [4, 5]
    spans = [
        ["bench.op", 0.0, 10.0, None, 0, "timed"],
        ["a", 1.0, 6.0, 0, 0, "timed"],
        ["c", 2.0, 3.0, 1, 0, "timed"],
        ["e", 4.0, 5.0, 1, 0, "timed"],
        ["b", 6.0, 9.0, 0, 0, "timed"],
        ["d", 7.0, 8.5, 4, 0, "timed"],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 1.0, 1.5, 1.5])
    t = tracing.Tracer()
    t.spans = spans
    assert t.op_coverage() == pytest.approx([0.8])
    table = {name: (calls, own) for name, calls, own, _ in t.self_time_table(1)}
    assert table["a"] == (1, pytest.approx(3.0))


def test_tracer_nests_spans_and_tags_ops():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    outer = t.wrap("outer", lambda: inner())
    inner = t.wrap("inner", lambda: clock.advance(2.0))
    t.phase = "timed"
    idx = t.begin_op(0)
    clock.advance(1.0)
    outer()
    t.end_op(idx)
    names = [(s[0], s[3], s[4]) for s in t.spans]
    assert names == [("bench.op", None, 0), ("outer", 0, 0), ("inner", 1, 0)]
    assert t.self_times() == pytest.approx([1.0, 0.0, 2.0])
    assert t.op_coverage() == pytest.approx([2.0 / 3.0])


def test_install_wraps_at_lookup_names_and_undo_restores():
    from hrstnet import metrics, topology, training

    before = (training.forward_graph, topology.forward_graph, metrics.hd95)
    t = tracing.Tracer()
    undo = t.install()
    try:
        assert training.forward_graph is not before[0]
        assert topology.forward_graph is not before[1]
        a = metrics.BinaryMask(np.pad(np.ones((3, 3, 3), bool), 2))
        b = metrics.BinaryMask(np.pad(np.ones((3, 3, 4), bool), ((2, 2), (2, 2), (2, 1))))
        metrics.evaluate_case(
            workloads.volume.LabelVolume(a.data.astype(np.int32), 2),
            workloads.volume.LabelVolume(b.data.astype(np.int32), 2),
            metrics.perclass_region_spec(2),
        )
    finally:
        undo()
    assert (training.forward_graph, topology.forward_graph, metrics.hd95) == before
    names = {s[0] for s in t.spans}
    assert {"metrics.evaluate_case", "metrics.regions", "metrics.hd95", "metrics.surface"} <= names
    assert t.counts[("setup", "metrics.surface_points")] == 26 + 34


def test_tape_size_counts_nodes_and_shared_buffers_once():
    from hrstnet import autodiff as ad

    w = ad.Tensor(np.ones((4, 4), np.float32), requires_grad=True)
    x = ad.reshape(w, (16,))  # a view of w's buffer
    loss = ad.sum_(ad.mul(x, x))
    nodes, mb = tracing.tape_size(loss)
    # w, x, the product, the sum (and no other buffers: x views w).
    assert nodes == 4
    assert mb * 2**20 == pytest.approx(64 + 64 + 4)


# -------------------------------------------------------------- op failures


class FlakyWorkload(workloads.Workload):
    op_voxels = 10

    def __init__(self, clock):
        self.clock = clock

    def op(self, st, i):
        self.clock.advance(1.0)
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(self, st, i, out):
        return out != 2, f"op {i} wrong"


def test_op_that_raises_is_counted_failed_and_the_run_goes_on():
    clock = FakeClock()
    stats = harness.Stats(clock=clock)
    stats.warmup = False
    workloads.closed_loop(FlakyWorkload(clock), {}, stats, deadline=4.0, clock=clock)
    assert stats.attempted == 4
    assert stats.failed == 2  # op 1 raised, op 2 failed its check
    assert stats.error_rate == 0.5
    assert stats.latencies == [1.0] * 4
    # Throughput counts only ops that returned and passed their check: 0 and 3.
    assert stats.rates == [10.0, 10.0]
    assert stats.errors[0] == "RuntimeError: boom"


def test_warmup_op_counts_as_attempted_but_not_timed():
    clock = FakeClock()
    stats = harness.Stats(clock=clock)
    with stats.op() as op:
        raise ValueError("bad")
    assert not op.ok
    assert (stats.attempted, stats.failed, stats.latencies) == (1, 1, [])


class TinyPredict(workloads.PredictPaper):
    """PredictPaper on an 8^3 volume (27 tiles of 4^3) with a stub model whose
    tile `bad` raises or returns logits of the wrong dims."""

    DIMS = (8, 8, 8)
    ROI = (4, 4, 4)

    def __init__(self, bad, how):
        self.bad, self.how, self.calls = bad, how, 0

    def _tile_forward(self, st, tile):
        self.calls += 1
        if self.calls - 1 == self.bad:
            if self.how == "raise":
                raise RuntimeError("tile boom")
            return workloads.volume.VolumeTensor(np.zeros((4, 2, 2, 2), np.float32))
        return workloads.volume.VolumeTensor(np.zeros((4,) + self.ROI, np.float32))


@pytest.mark.parametrize("how", ["raise", "wrong dims"])
def test_failed_predict_pass_fails_every_tile_it_ran(how):
    clock = FakeClock()
    stats = harness.Stats(clock=clock)
    stats.warmup = False
    w = TinyPredict(bad=2, how=how)
    w.run({"vol": workloads.volume.VolumeTensor(np.zeros((4,) + w.DIMS, np.float32))},
          stats, deadline=0.0, clock=clock)
    # Tiles 0 and 1 returned, tile 2 raised or was rejected by the assembly.
    assert (stats.attempted, stats.failed, stats.rates) == (3, 3, [])


def test_fail_since_counts_a_unit_that_ran_no_op():
    stats = harness.Stats()
    stats.fail_since(stats.attempted, stats.failed, "failed before its first op")
    assert (stats.attempted, stats.failed) == (1, 1)


# ------------------------------------------------------ host-speed scaling


class FakeHost:
    """Host slowness samples from a list, each taking `cost` seconds of the clock."""

    def __init__(self, clock, samples, cost=0.0):
        self.clock, self.samples, self.cost = clock, list(samples), cost

    def __call__(self):
        self.clock.advance(self.cost)
        return self.samples.pop(0)


def test_ops_are_scaled_by_the_host_samples_around_them():
    clock = FakeClock()
    # Op 0 runs between slowness 1 and 2, op 1 between 2 and 2.
    stats = harness.Stats(clock=clock, calibrate=FakeHost(clock, [1.0, 2.0, 2.0], cost=0.25))
    stats.warmup = False
    workloads.closed_loop(FlakyWorkload(clock), {}, stats, deadline=2.0, clock=clock)
    stats.finish()
    assert stats.latencies == [1.0, 1.0]
    assert stats.scaled == pytest.approx([1.0 / 1.5, 0.5])
    assert stats.host_seconds == pytest.approx(0.75)
    # Op 1 raised, so only op 0 counts as work: 10 voxels in 1/1.5 s.
    assert stats.rates == pytest.approx([15.0])


def test_without_calibration_figures_are_raw():
    clock = FakeClock()
    stats = harness.Stats(clock=clock)
    stats.warmup = False
    workloads.closed_loop(FlakyWorkload(clock), {}, stats, deadline=2.0, clock=clock)
    stats.finish()
    assert stats.host == [] and stats.scaled == stats.latencies == [1.0, 1.0]


def test_predict_pass_time_excludes_calibration_and_is_scaled():
    class SlowTiles(TinyPredict):
        def _tile_forward(self, st, tile):
            clock.advance(1.0)
            return super()._tile_forward(st, tile)

    clock = FakeClock()
    # A sample before each of the 27 tiles and one after the pass, each taking 0.5 s.
    stats = harness.Stats(clock=clock, calibrate=FakeHost(clock, [2.0] * 28, cost=0.5))
    stats.warmup = False
    w = SlowTiles(bad=None, how=None)
    vol = workloads.volume.VolumeTensor(np.zeros((4,) + w.DIMS, np.float32))
    st = {"vol": vol, "ref": w.summary(np.zeros((4,) + w.DIMS, np.float32))}
    w.run(st, stats, deadline=0.0, clock=clock)
    stats.finish()
    assert (stats.attempted, stats.failed) == (27, 0)
    assert stats.scaled == pytest.approx([0.5] * 27)
    # 512 voxels in 27 s of tiles (the 13.5 s of samples left out), at half speed.
    assert stats.rates == pytest.approx([512 / 13.5])


def test_grad_norms_group_by_name_prefix():
    grads = {"embed.weight": np.full(4, 1.0, np.float32), "embed.bias": np.full(5, 1.0, np.float32),
             "head.out.weight": np.array([3.0, 4.0], np.float32)}
    assert workloads.grad_norms(grads) == {"embed": 3.0, "head": 5.0}


@pytest.mark.parametrize("got, ok", [
    ({"a": 1.00005, "b": [2.0, 3.0]}, True),
    ({"a": 1.0002, "b": [2.0, 3.0]}, False),  # outside the relative tolerance
    ({"a": float("nan"), "b": [2.0, 3.0]}, False),
    ({"a": 1.0, "b": [2.0]}, False),  # a value missing
    ({"a": 1.0}, False),  # a key missing
])
def test_check_close(got, ok):
    assert workloads.check_close(got, {"a": 1.0, "b": [2.0, 3.0]}, 1e-4, "t")[0] is ok


# ---------------------------------------------------------------- inputs


def _flatten(obj):
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _flatten(obj[k])]
    if isinstance(obj, (list, tuple)):
        return [x for item in obj for x in _flatten(item)]
    return [np.asarray(getattr(obj, "data", obj))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    a = _flatten(w.inputs(workloads.input_set(3)))
    again = _flatten(w.inputs(workloads.input_set(3 + workloads.POOL)))
    other = _flatten(w.inputs(workloads.input_set(4)))
    assert len(a) == len(again) == len(other)
    assert all(np.array_equal(x, y) for x, y in zip(a, again))
    assert not all(np.array_equal(x, y) for x, y in zip(a, other))


def test_brats_pairs_keep_surface_sizes_fixed():
    from hrstnet import metrics

    sizes = set()
    for seed in range(3):
        gt, _ = workloads.brats_pair(seed)
        masks = metrics.brats_regions(workloads.volume.LabelVolume(gt, 4), metrics.brats_region_spec())
        sizes.add(tuple(len(metrics.surface_voxels(m.data)) for m in masks.values()))
    assert len(sizes) == 1


def test_every_input_set_has_a_reference():
    import json

    refs = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        assert sorted(refs[name], key=int) == [str(i) for i in range(workloads.POOL)]


def test_benchmark_json_lists_what_the_runs_report():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
