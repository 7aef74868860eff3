"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules with
eager ``from ... import`` lines makes every importer pay for every
submodule, used or not. Instead it lists its exports per defining module
and binds the returned ``__getattr__``/``__dir__``::

    if TYPE_CHECKING:  # for type checkers and linters only
        from repro.pkg.mod import Thing

    __all__ = ["Thing"]
    __getattr__, __dir__ = lazy_exports(__name__, {"repro.pkg.mod": ("Thing",)})

The defining module is imported on first access to one of its names, and
the value is then cached in the package namespace. A public name that is
not an export resolves to the submodule of that name, so ``import repro``
followed by ``repro.sim.System`` keeps working.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` for *package*.

    Args:
        package: The package's ``__name__``.
        exports: Defining module -> the names the package re-exports
            from it.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__
