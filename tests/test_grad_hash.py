"""The `tools/grad_hash.py` digests of record (`tools/grad_hash.json`),
recomputed in this process: every line but the 0.9 GB `forward-paper`. A
change that moves one bit of a loss, gradient, checkpoint, trace or kernel
output those lines cover fails here. The lines that run split pieces are
computed once at two workers and once at one, and the two digests must be
equal wherever the tests run, record or not; the others split nothing, so
they run the same code at any worker count."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from hrstnet import autodiff as ad

TOOL = Path(__file__).resolve().parent.parent / "tools" / "grad_hash.py"
LEFT_OUT = ("forward-paper",)


def _load_tool():
    spec = importlib.util.spec_from_file_location("grad_hash", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


grad_hash = _load_tool()
SPLIT = [name for name in grad_hash.SPLIT_LINES if name not in LEFT_OUT]


def run_lines(names, workers):
    """Each line's digest at `workers` workers, and the lines whose kernels
    ran split pieces."""
    split, line, splitting = ad._split, [None], set()

    def spy(piece, n, cut):
        if cut:
            splitting.add(line[0])
        split(piece, n, cut)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_split", spy)
        mp.setattr(ad, "WORKERS", workers)
        got = {}
        for line[0] in names:
            got[line[0]] = grad_hash.CHECKS[line[0]]()
    return got, splitting


@pytest.fixture(scope="module")
def split_lines():
    """The split lines' digests and the lines that split, by worker count."""
    return {workers: run_lines(SPLIT, workers) for workers in (2, 1)}


@pytest.fixture(scope="module")
def recorded():
    record = json.loads(grad_hash.RECORD.read_text())
    here = grad_hash.environment()
    differs = [f"{k} {record['environment'].get(k)} recorded, {v} here"
               for k, v in here.items() if record["environment"].get(k) != v]
    if differs:
        pytest.skip("digests recorded in another numeric environment: " + "; ".join(differs))
    return {name: d for name, d in record["digests"].items() if name not in LEFT_OUT}


def test_split_lines_keep_their_bits_at_one_worker(split_lines):
    (two, split_at_two), (one, split_at_one) = split_lines[2], split_lines[1]
    assert one == two
    assert split_at_two == split_at_one == set(SPLIT)


def test_digests_match_the_record(recorded, split_lines):
    got, splitting = run_lines([name for name in recorded if name not in SPLIT], ad.WORKERS)
    assert splitting == set()
    assert {**got, **split_lines[2][0]} == recorded


def test_split_lines_match_the_record_at_one_worker(recorded, split_lines):
    assert split_lines[1][0] == {name: recorded[name] for name in SPLIT}


def test_weight_tail_line_ends_on_a_short_group():
    # conv3-weight-tail pins the short last group of offsets only while its convs take one
    groups = [ad._offset_group(c_in, c_out * math.prod(dims))
              for c_in, c_out, dims in grad_hash.WEIGHT_TAIL_CASES]
    assert groups == [4, 2]  # 27 = 6*4 + 3 = 13*2 + 1
