"""The packages' lazily resolved public names (``repro._lazy``).

Package ``__init__`` files import nothing; each public name loads its
defining submodule on first access.  Four names are both a submodule and
an exported function — ``repro.workloads.characterize``,
``repro.workloads.suites``, ``repro.metrics.profile_report``,
``repro.obs.chrome_trace`` — and the import system binds a freshly
imported submodule on its parent, so which of the two a user gets must
not depend on what was imported first.  Every check runs in a fresh
interpreter per package and order.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").glob("**/__init__.py")
    if "lazy_package(" in init.read_text(encoding="utf-8")
)


def kind(value) -> str:
    if isinstance(value, types.ModuleType):
        return "module"
    if isinstance(value, type):
        return "class"
    return "callable" if callable(value) else "constant"


# argv: package, "names-first" | "submodules-first".  Prints {name: kind}.
_CHILD = inspect.getsource(kind) + """
import importlib, json, sys, types

package, order = sys.argv[1:]
pkg = importlib.import_module(package)
sources = sorted(
    {f"{package}.{source or name}" for name, source in pkg.__lazy_exports__.items()}
)

def import_sources():
    for source in sources:
        importlib.import_module(source)

if order == "submodules-first":
    import_sources()
first = {name: getattr(pkg, name) for name in pkg.__all__}
import_sources()
for name, value in first.items():
    assert getattr(pkg, name) is value, f"{name} rebound by a submodule import"
    assert name in dir(pkg), f"{name} missing from dir()"
star = {}
exec(f"from {package} import *", star)
for name, value in first.items():
    assert star[name] is value, f"{name} differs under import *"
print(json.dumps({name: kind(value) for name, value in first.items()}))
"""


def test_every_package_is_lazy():
    # repro.analysis.passes is a module with code of its own (the pass
    # registry), not a re-exporting package.
    every = {
        ".".join(init.parent.relative_to(SRC).parts)
        for init in (SRC / "repro").glob("**/__init__.py")
    }
    assert every - set(PACKAGES) == {"repro.analysis.passes"}


@pytest.mark.parametrize("order", ["names-first", "submodules-first"])
@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve_the_same_in_either_import_order(package, order):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, package, order],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    pkg = importlib.import_module(package)
    assert got == {name: kind(getattr(pkg, name)) for name in pkg.__all__}


def test_colliding_names_are_the_functions():
    import repro
    import repro.metrics
    import repro.obs
    import repro.workloads

    assert kind(repro.workloads.characterize) == "callable"
    assert kind(repro.workloads.suites) == "callable"
    assert kind(repro.metrics.profile_report) == "callable"
    assert kind(repro.obs.chrome_trace) == "callable"
    assert repro.__version__ == "1.0.0" and "__version__" in repro.__all__


@pytest.mark.parametrize("package", PACKAGES)
def test_type_checking_imports_declare_the_lazy_table(package):
    """The ``if TYPE_CHECKING:`` block (read by type checkers) names what resolves."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(init.read_text(encoding="utf-8"))
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
    ]
    declared = {}
    for node in block.body:
        assert isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names:
            declared[alias.asname or alias.name] = node.module or ""
    assert declared == importlib.import_module(package).__lazy_exports__


def test_unknown_attribute_raises_attribute_error():
    import repro.obs

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.obs.nope
    assert not hasattr(repro.obs, "nope")
