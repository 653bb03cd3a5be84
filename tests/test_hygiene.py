"""Source hygiene checks that need no lint tool: stdlib `ast` only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hrstnet"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names in `__all__` count as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    src = "import os\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nnp.zeros(1)\n"
    assert unused_imports(src) == ["a (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_in_src(path):
    assert unused_imports(path.read_text()) == []


def _bare_reads(tree) -> set[str]:
    return {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }


def names_read(source: str) -> set[str]:
    """Every name a module loads or deletes, bare or as an attribute."""
    tree = ast.parse(source)
    return _bare_reads(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def unused_private_names(source: str, read: set[str]) -> list[str]:
    """Module-level `_private` functions, classes and constants not in `read`."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return sorted(
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_scope(fn):
    """Nodes of a function body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """Function locals assigned and never read; names starting with `_` are exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        read = _bare_reads(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found += [
            f"{fn.name}.{name} (line {line})" for name, line in stored.items()
            if not name.startswith("_") and name not in read
        ]
    return sorted(found)


def test_unused_private_names_are_found():
    src = (
        "_A = 1\n_B: int = 2\n__all__ = []\n\n\ndef _f():\n    return _A\n\n\n"
        "class _C:\n    pass\n"
    )
    found = unused_private_names(src, names_read(src))
    assert found == ["_B (line 2)", "_C (line 10)", "_f (line 6)"]
    assert unused_private_names(src, names_read(src) | {"_B", "_C", "_f"}) == []


def test_unused_locals_are_found():
    src = (
        "def f(a):\n    b, _c = 1, 2\n    d = 3\n    n = 0\n    n += 1\n"
        "    for i in range(a):\n        pass\n    def g():\n        e = 4\n        return d\n"
        "    return g\n"
    )
    assert unused_locals(src) == ["f.b (line 2)", "f.i (line 6)", "g.e (line 9)"]


SRC_READ = set().union(*(names_read(p.read_text()) for p in SRC.glob("*.py")))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names_or_locals_in_src(path):
    source = path.read_text()
    assert unused_private_names(source, SRC_READ) == []
    assert unused_locals(source) == []


def run_package_code(code: str, *args: str) -> str:
    """The stdout of `code` run by a fresh interpreter on this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["scipy.spatial", "scipy.special"])
def test_package_import_leaves_scipy_module_unloaded(module):
    """HD95 imports scipy.spatial on first use, and float64 GELU scipy.special;
    importing the package must not, so processes that never score a case, or
    never check gradients, do not pay their import time and resident memory."""
    code = f"import sys, hrstnet, hrstnet.metrics, hrstnet.cli, hrstnet.training; print({module!r} in sys.modules)"
    assert run_package_code(code) == "False"


def test_float32_training_leaves_scipy_special_unloaded(tmp_path):
    # the engine's own erf serves every float32 GELU, validation included
    code = """
import sys
from hrstnet import cli, training, volume
data = [volume.generate_synthetic(volume.SyntheticSpec(seed=20, dims=(16, 16, 16), channels=1,
                                                       num_classes=2, radius_range=(3, 4)))]
cfg = training.TrainConfig(epochs=2, crop=(16, 16, 16), seed=0, warmup_epochs=1, val_every=1)
training.train(cfg, cli.TINY_GRADCHECK_CONFIG, data, out_dir=sys.argv[1])
print('scipy.special' in sys.modules)
"""
    assert run_package_code(code, str(tmp_path)) == "False"
    assert (tmp_path / "best.ckpt").exists()


def test_finite_difference_check_loads_scipy_special():
    # float64 GELU takes scipy's erf, imported on its first use
    code = """
import sys
from hrstnet import cli, training
assert 'scipy.special' not in sys.modules
training.finite_difference_check(cli.TINY_GRADCHECK_CONFIG, num_samples=1)
print('scipy.special' in sys.modules)
"""
    assert run_package_code(code) == "True"


# perfbench's tape-size test builds its graph from these three; src/ need not
AUTODIFF_EXEMPT = {"reshape", "sum_", "mul"}


def autodiff_names_read(source: str) -> set[str]:
    """Names a module takes from autodiff: `ad.<name>` or `from .autodiff import <name>`."""
    tree = ast.parse(source)
    names = {
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "ad"
    }
    return names | {
        alias.name for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "autodiff" for alias in n.names
    }


def test_every_autodiff_op_is_read_by_another_src_module():
    """"Only the operations needed by the network are provided": each public
    function of autodiff.py is read by another module of the package."""
    tree = ast.parse((SRC / "autodiff.py").read_text())
    public = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = set().union(*(
        autodiff_names_read(p.read_text()) for p in SRC.glob("*.py") if p.name != "autodiff.py"
    ))
    assert sorted(public - read - AUTODIFF_EXEMPT) == []


def unread_public_names(source: str, read: set[str]) -> list[str]:
    """Module-level public functions and classes not in `read`."""
    return sorted(
        f"{node.name} (line {node.lineno})" for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    )


def test_unread_public_names_are_found():
    src = "def f():\n    return g()\n\n\ndef g():\n    pass\n\n\nclass C:\n    pass\n\n\ndef _h():\n    pass\n"
    assert unread_public_names(src, names_read(src)) == ["C (line 9)", "f (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_public_src_name_is_read_by_src(path):
    """A public function or class no module of the package reads is test-only
    or dead code; only perfbench's three autodiff ops are exempt."""
    exempt = AUTODIFF_EXEMPT if path.name == "autodiff.py" else set()
    assert unread_public_names(path.read_text(), SRC_READ | exempt) == []


def raised_names(source: str) -> set[str]:
    """Names a module raises: `raise X(...)` or `raise X`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        exc = node.exc if isinstance(node, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(exc, ast.Name):
            found.add(exc.id)
    return found


def test_raised_names_are_found():
    src = "def f(a):\n    if a:\n        raise AError('x') from None\n    raise BError\n    raise\n"
    assert raised_names(src) == {"AError", "BError"}


def test_every_error_class_is_raised_by_src():
    """An error type no module raises is dead API: callers would catch what
    can never happen."""
    tree = ast.parse((SRC / "errors.py").read_text())
    subclasses = {
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "HRSTError"
    }
    raised = set().union(*(raised_names(p.read_text()) for p in SRC.glob("*.py")))
    assert sorted(subclasses - raised) == []
