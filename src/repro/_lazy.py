"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` imports eagerly only what every run uses; names
from subsystems a run may never touch are listed in a table of
``{defining module: (names, ...)}`` and imported on first access::

    from repro import _lazy

    _LAZY: _lazy.LazyTable = {
        "repro.core.hetero": ("GeometryPool", "HeterogeneousParvaGPU"),
    }

    def __getattr__(name: str) -> object:
        return _lazy.load(__name__, globals(), _LAZY, name)

    def __dir__() -> list[str]:
        return _lazy.names(globals(), _LAZY)

The resolved value is stored in the package namespace, so each name pays
for its import once and later lookups never reach ``__getattr__``.  An
``if TYPE_CHECKING:`` block repeating the table as imports keeps every
name's precise type for the type checker.
"""

from __future__ import annotations

import importlib
from typing import Mapping, MutableMapping

LazyTable = Mapping[str, tuple[str, ...]]


def load(
    package: str,
    namespace: MutableMapping[str, object],
    table: LazyTable,
    name: str,
) -> object:
    """Import ``name`` from the module ``table`` lists it under, bind it
    in ``namespace`` and return it; ``AttributeError`` if it is not
    listed."""
    for module, exported in table.items():
        if name in exported:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def names(namespace: Mapping[str, object], table: LazyTable) -> list[str]:
    """The package's attributes: those bound so far plus every lazy name."""
    return sorted({*namespace, *(n for ns in table.values() for n in ns)})
