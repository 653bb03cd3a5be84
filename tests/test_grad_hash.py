"""The `tools/grad_hash.py` digests of record (`tools/grad_hash.json`),
recomputed: every line but `backward-v4-64`, whose bits move with the BLAS
thread count, and the 0.9 GB `forward-paper`. A change that moves one bit
of a loss, gradient, checkpoint, trace or kernel output those lines cover
fails here. The lines that run split pieces are also recomputed at one
worker; the others split nothing, so they run the same code at any worker
count."""

import importlib.util
import json
from pathlib import Path

import pytest

from hrstnet import autodiff as ad

TOOL = Path(__file__).resolve().parent.parent / "tools" / "grad_hash.py"
LEFT_OUT = ("backward-v4-64", "forward-paper")


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
        got[line[0]] = grad_hash.CHECKS[line[0]]()
    assert got == recorded
    assert splitting == set(grad_hash.SPLIT_LINES) - set(LEFT_OUT)


def test_split_lines_match_the_record_at_one_worker(monkeypatch, recorded):
    monkeypatch.setattr(ad, "WORKERS", 1)
    names = [name for name in grad_hash.SPLIT_LINES if name in recorded]
    assert {name: grad_hash.CHECKS[name]() for name in names} == {name: recorded[name] for name in names}
