"""Lazy package re-exports (PEP 562).

A package ``__init__`` names its public objects in a table
``{defining module: [names]}`` instead of importing them, so importing
the package loads none of its submodules; a name's module loads on the
first attribute access (``from repro.sta import analyze`` included)::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.sta.timing": ["analyze", "TimingResult"],
        "repro.resilience.checkpoint": ["SCHEMA as CHECKPOINT_SCHEMA"],
    })

A resolved name is stored in the package namespace, so later lookups do
not reach ``__getattr__``.  Any other attribute of a package is looked
up as a submodule, as an eager package that had imported it would
provide (``import repro; repro.core.elmore_delay(...)``).  A plain
module (``repro.cli``) may use the same table for names it re-exports.
The namespace's ``_EXPORTS`` maps each exported name to its
``(module, attribute)``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = ["lazy_exports"]


def _import(module: str) -> Any:
    # ``__import__`` rather than ``importlib.import_module``: only the
    # former reports to ``-X importtime``, which the import tests and
    # ``benchmarks/bench_startup.py`` read.
    __import__(module)
    return sys.modules[module]


def lazy_exports(
    namespace: Dict[str, Any], table: Dict[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``, re-exporting each name of ``table`` from
    its defining module (``"attr as name"`` renames it)."""
    package = namespace["__name__"]
    where: Dict[str, Tuple[str, str]] = {}
    for module, entries in table.items():
        for entry in entries:
            attr, _, name = entry.partition(" as ")
            where[name or attr] = (module, attr)
    namespace["_EXPORTS"] = where

    def __getattr__(name: str) -> Any:
        if name in where:
            module, attr = where[name]
            value = getattr(_import(module), attr)
        else:
            value = _submodule(name)
        namespace[name] = value
        return value

    def _submodule(name: str) -> Any:
        # A plain module has no submodules, and the import system probes
        # dunder names (``__path__``) that must not recurse into imports.
        full = f"{package}.{name}"
        if "__path__" in namespace and not name.startswith("__"):
            try:
                return _import(full)
            except ModuleNotFoundError as exc:
                if exc.name != full:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
