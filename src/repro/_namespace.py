"""Package namespaces that resolve on first use (PEP 562).

A package ``__init__`` hands :func:`namespace` one table: each module,
written as its ``from ... import`` would write it, maps to the public
names taken from it; ``"."`` lists the package's own modules that are
public names themselves.  Nothing is imported until a name is asked
for, so importing one module of a package pays for that module and
what it imports, never for the rest of the package::

    __all__, __getattr__, __dir__ = namespace(__name__, {
        ".engine": ("Engine", "run"),
        ".": ("patterns",),
    })

Any other name falls back to the package's module of that name, as
``from package import module`` does; a name that is neither is an
``AttributeError`` naming the package.
"""

from __future__ import annotations

import sys
from importlib.util import resolve_name
from typing import Callable, Iterable, Mapping


def namespace(package: str, table: Mapping[str, Iterable[str]]) -> tuple[list, Callable, Callable]:
    """The ``__all__``, ``__getattr__`` and ``__dir__`` of ``package``."""
    home = {name: resolve_name(source, package) for source, names in table.items() for name in names}
    scope = vars(sys.modules[package])

    def __getattr__(name: str):
        # ``__import__`` rather than ``importlib.import_module``: ``python
        # -X importtime`` times the modules it imports.
        module = home.get(name, package)
        if module != package:
            __import__(module)
            value = scope[name] = getattr(sys.modules[module], name)
            return value
        module = f"{package}.{name}"
        if not name.startswith("__"):
            try:
                __import__(module)
                return sys.modules[module]
            except ModuleNotFoundError as exc:
                if exc.name != module:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list:
        return sorted(scope.keys() | home.keys())

    return list(home), __getattr__, __dir__
