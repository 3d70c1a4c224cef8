"""Lazy public surface for the ``repro`` packages.

A cache-hit figure run needs a handful of leaf modules; a package
``__init__`` that imported its submodules would load the simulator, the
trace toolchain and every figure module for it (docs/performance.md,
"Start-up and the hit path").  Every package therefore declares its
public names with :func:`lazy_package` and imports nothing itself::

    if TYPE_CHECKING:              # what type checkers and IDEs read
        from .stats import SimStats
    __all__ = lazy_package(__name__, {"stats": ["SimStats"]})

``from repro.metrics import SimStats``, ``repro.metrics.SimStats``,
``from repro.metrics import *`` and ``dir(repro.metrics)`` behave as they
did under eager imports; the defining submodule loads on first access.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


class LazyPackage(ModuleType):
    """A package module that imports a public name's submodule on first access."""

    #: public name -> submodule defining it; ``""`` exports the submodule itself.
    __lazy_exports__: dict[str, str]

    def __getattr__(self, name: str):
        source = self.__lazy_exports__.get(name)
        if source is None:
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        module = importlib.import_module(f"{self.__name__}.{source or name}")
        value = getattr(module, name) if source else module
        self.__dict__[name] = value
        return value

    def __setattr__(self, name: str, value) -> None:
        # The import system binds every freshly imported submodule on its
        # parent.  Where the package exports an object under the submodule's
        # own name (``workloads.characterize``, ``workloads.suites``,
        # ``metrics.profile_report``, ``obs.chrome_trace``) the exported
        # object must win whichever of the two is touched first, as it did
        # when ``__init__`` imported eagerly: drop the binding and let
        # ``__getattr__`` resolve the name.
        if isinstance(value, ModuleType) and self.__lazy_exports__.get(name):
            return
        super().__setattr__(name, value)

    def __dir__(self) -> list[str]:
        return sorted({**self.__dict__, **self.__lazy_exports__})


def lazy_package(
    package: str, exports: dict[str, list[str]], submodules: tuple[str, ...] = ()
) -> list[str]:
    """Make ``package`` resolve its public names lazily; returns its ``__all__``.

    ``exports`` maps a submodule to the names it defines; ``submodules``
    are exported as modules (``repro.experiments.rba_banks``).
    """
    table = {name: "" for name in submodules}
    for source, names in exports.items():
        for name in names:
            table[name] = source
    module = sys.modules[package]
    vars(module)["__lazy_exports__"] = table
    module.__class__ = LazyPackage
    return list(table)
