"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package names the submodule each public name comes from; the
submodule is imported the first time the name is read, and the value
is then stored in the package namespace.  Later reads are plain
attribute lookups, and ``pkg.Name is pkg.sub.Name`` holds exactly as
after an eager ``from pkg.sub import Name``.  So ``import repro``
loads no submodule, and each command loads only the layers it runs
(docs/PERFORMANCE.md, "Start-up").
"""

from __future__ import annotations

import importlib
import importlib.util
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str,
    exports: Dict[str, Sequence[str]],
    namespace: Dict[str, Any],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazily exporting package.

    ``exports`` maps each submodule to the names the package takes from
    it; ``namespace`` is the package's ``globals()``, where a resolved
    name is cached.  A name that is not exported but is a submodule
    (``repro.sim`` after ``import repro``) is imported too, as it was
    when the package imported its submodules eagerly.  Use as::

        __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
    """
    home = {name: module for module, names in exports.items()
            for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif not name.startswith("__") and importlib.util.find_spec(
                f"{package}.{name}") is not None:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__
