"""The `tools/grad_hash.py` digests of record (`tools/grad_hash.json`),
recomputed: every line but the 0.9 GB `forward-paper`. `backward-v4-64`,
whose bits move with the BLAS thread count, runs in a subprocess with one
BLAS thread, as it was recorded. A change that moves one bit of a loss,
gradient, checkpoint, trace or kernel output those lines cover fails here.
The lines that run split pieces are also recomputed at one worker; the
others split nothing, so they run the same code at any worker count."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hrstnet import autodiff as ad

TOOL = Path(__file__).resolve().parent.parent / "tools" / "grad_hash.py"
LEFT_OUT = ("forward-paper",)
ONE_BLAS_THREAD = ("backward-v4-64",)  # recomputed in a subprocess with OPENBLAS_NUM_THREADS=1


def _load_tool():
    spec = importlib.util.spec_from_file_location("grad_hash", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


grad_hash = _load_tool()


@pytest.fixture(scope="module")
def recorded():
    record = json.loads(grad_hash.RECORD.read_text())
    here = grad_hash.environment()
    differs = [f"{k} {record['environment'].get(k)} recorded, {v} here"
               for k, v in here.items() if record["environment"].get(k) != v]
    if differs:
        pytest.skip("digests recorded in another numeric environment: " + "; ".join(differs))
    return {name: d for name, d in record["digests"].items() if name not in LEFT_OUT}


def test_digests_match_the_record(monkeypatch, recorded):
    split, line, splitting = ad._split, [None], set()

    def spy(piece, n, cut):
        if cut:
            splitting.add(line[0])
        split(piece, n, cut)

    monkeypatch.setattr(ad, "_split", spy)
    got = {}
    for line[0] in recorded:
        if line[0] not in ONE_BLAS_THREAD:
            got[line[0]] = grad_hash.CHECKS[line[0]]()
    assert got == {name: d for name, d in recorded.items() if name not in ONE_BLAS_THREAD}
    assert splitting == set(grad_hash.SPLIT_LINES) - set(LEFT_OUT) - set(ONE_BLAS_THREAD)


def test_weight_tail_line_ends_on_a_short_group():
    # conv3-weight-tail pins the short last group of offsets only while its convs take one
    groups = [ad._offset_group(c_in, c_out * math.prod(dims))
              for c_in, c_out, dims in grad_hash.WEIGHT_TAIL_CASES]
    assert groups == [4, 2]  # 27 = 6*4 + 3 = 13*2 + 1


def test_split_lines_match_the_record_at_one_worker(monkeypatch, recorded):
    monkeypatch.setattr(ad, "WORKERS", 1)
    names = [name for name in grad_hash.SPLIT_LINES if name in recorded and name not in ONE_BLAS_THREAD]
    assert {name: grad_hash.CHECKS[name]() for name in names} == {name: recorded[name] for name in names}


# The subprocess imports the engine this test imports, sets the worker count,
# watches `_split` as the spy above does, and prints the line's digest and
# whether any of its kernels split.
ONE_LINE = """
import runpy, sys
from hrstnet import autodiff as ad
ad.WORKERS = int(sys.argv[1])
split, cuts = ad._split, []
ad._split = lambda piece, n, cut: cuts.append(cut) or split(piece, n, cut)
digest = runpy.run_path(sys.argv[2])["CHECKS"][sys.argv[3]]()
print(digest, any(cuts))
"""


@pytest.mark.parametrize("workers", [2, 1])
@pytest.mark.parametrize("name", ONE_BLAS_THREAD)
def test_one_blas_thread_lines_match_the_record(recorded, name, workers):
    src = str(Path(ad.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    run = subprocess.run([sys.executable, "-c", ONE_LINE, str(workers), str(TOOL), name],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [recorded[name], str(name in grad_hash.SPLIT_LINES)]
