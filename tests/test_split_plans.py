"""`tools/split_plans.py`: it lists the plans of the engine it imports and
leaves that engine's attributes as it found them."""

import importlib.util
from pathlib import Path

from hrstnet import autodiff as ad
from hrstnet import topology

TOOL = Path(__file__).resolve().parent.parent / "tools" / "split_plans.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("split_plans", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_plans_lists_the_tiny_plans_and_restores_the_engine():
    split_plans = _load_tool()
    patched = [(module, name) for module, name, _ in split_plans.Recorder().patch()]
    assert (ad, "_as_tasks") in patched and (topology, "mrff_graph") in patched
    before = [getattr(module, name) for module, name in patched]
    lines = split_plans.plans(["tiny"])
    assert [getattr(module, name) for module, name in patched] == before
    assert lines and all(line.startswith("tiny ") for line in lines)
    # the tiny config's kernels are too small to split: every cut 0, every
    # blocked forward on the caller, and its stream 0 too small for tasks:
    # every stage and fusion block runs whole
    assert all(line.endswith(("cut=0", "caller", "whole")) for line in lines)
    assert not [line for line in lines if " tasks " in line]
    assert [line for line in lines if line.endswith("whole")] == [
        "tiny stage1 whole", "tiny stage2 whole", "tiny mrff2 whole"]
    assert "tiny embed _tokens_linear n=512 cut=0" in lines  # a site named by its parameter
