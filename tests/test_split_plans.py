"""`tools/split_plans.py`: it lists the plans of the engine it imports and
leaves that engine's attributes as it found them."""

import importlib.util
from pathlib import Path

from hrstnet import autodiff as ad

TOOL = Path(__file__).resolve().parent.parent / "tools" / "split_plans.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("split_plans", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_plans_lists_the_tiny_plans_and_restores_the_engine():
    split_plans = _load_tool()
    names = split_plans.KERNELS + ("_split", "_forward_blocks")
    before = {name: getattr(ad, name) for name in names}
    lines = split_plans.plans(["tiny"])
    assert {name: getattr(ad, name) for name in names} == before
    assert lines and all(line.startswith("tiny ") for line in lines)
    # the tiny config's kernels are too small to split: every cut 0, every
    # blocked forward on the caller
    assert all(line.endswith(("cut=0", "caller")) for line in lines)
    assert "tiny embed _tokens_linear n=512 cut=0" in lines  # a site named by its parameter
