"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package init names the submodule behind each name it re-exports, and the
submodule is imported on the first access of one of its names, not when the
package is imported.  A process that needs one module therefore imports
that module and what it imports, not the whole package: a pool worker
unpickling the engine imports the engine, and a serving worker the serving
stack.  ``from repro import ZSmilesEngine`` and ``repro.ZSmilesEngine``
resolve as they would from an eager init.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, MutableMapping, Tuple, Union

#: The names one submodule re-exports: each as itself, or ``{alias: name}``.
Names = Union[Iterable[str], Mapping[str, str]]


def lazy_exports(
    namespace: MutableMapping[str, Any], exports: Mapping[str, Names]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """A package's ``__getattr__``, ``__dir__`` and ``__all__``.

    *namespace* is the package's ``globals()``; *exports* maps a submodule,
    relative to the package (``".engine"``), to the names it re-exports.  A
    resolved name is kept in *namespace*, so each resolves once.  Any other
    name resolves to the submodule of that name when there is one
    (``repro.errors``), as it would once an eager init had imported it.

    A name spelled like the submodule it comes from (``smiles.validate``,
    the function in ``smiles/validate.py``) is bound at once: importing the
    submodule binds the package attribute to the module, which
    ``__getattr__`` would then never see.
    """
    package = namespace["__name__"]
    owners: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        pairs = names.items() if isinstance(names, Mapping) else ((name, name) for name in names)
        for alias, name in pairs:
            owners[alias] = (module, name)
            if module == "." + alias:
                namespace[alias] = getattr(importlib.import_module(module, package), name)

    def __getattr__(name: str) -> Any:
        if name in owners:
            module, attribute = owners[name]
            value = getattr(importlib.import_module(module, package), attribute)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *owners, *namespace.get("__all__", ())})

    return __getattr__, __dir__, list(owners)
