"""Lazy package exports (PEP 562).

A package ``__init__`` names each export and the submodule defining it;
the submodule loads on the first access of one of its names, so
importing the package costs nothing, and a run loads only the modules it
uses.  Usage, at the end of the ``__init__``::

    __all__ = lazy_exports(globals(), {
        "core": ("Observability", "ObsResult"),
        "export": ("write_chrome_trace",),
    })
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


class _LazyPackage(ModuleType):
    """A package whose exports win over same-named submodules.

    Importing a submodule binds it as an attribute of its package, so
    ``import repro.workloads.lock_contention`` would leave
    ``repro.workloads.lock_contention`` the module instead of the
    function the package exports.  This keeps the export, as an eager
    ``from .lock_contention import lock_contention`` in the ``__init__``
    did.
    """

    def __setattr__(self, name: str, value) -> None:
        if (isinstance(value, ModuleType)
                and self.__dict__["_owners"].get(name) == value.__name__):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(namespace: dict,
                 exports: dict[str, tuple[str, ...]]) -> list[str]:
    """Install a module ``__getattr__`` and ``__dir__`` into the package
    whose globals are ``namespace``, resolving every name in ``exports``
    (submodule -> names it defines) on first use; returns ``__all__``."""
    package = namespace["__name__"]
    owners = {name: f"{package}.{module}"
              for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owner), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    namespace.update(_owners=owners, __getattr__=__getattr__,
                     __dir__=__dir__)
    sys.modules[package].__class__ = _LazyPackage
    return sorted(owners)
