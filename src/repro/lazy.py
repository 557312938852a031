"""Lazy package exports: a package imports a submodule when a name is used.

A package ``__init__`` that re-exports names of its submodules lists them
in one ``name -> module`` table and hands it to :func:`lazy_exports`, which
returns the package's PEP 562 ``__getattr__`` and ``__dir__`` and its
``__all__``.  ``import repro.cluster.worker`` then runs the ``repro`` and
``repro.cluster`` package modules without loading every submodule they
export, so each entry point pays only for the code it runs.  A name is
imported on first access and cached in the package namespace, so later
lookups are plain attribute reads.

>>> import sys, types
>>> demo = types.ModuleType("demo")
>>> sys.modules["demo"] = demo
>>> demo.__getattr__, demo.__dir__, demo.__all__ = lazy_exports(
...     "demo", {"sqrt": "math", "dedent": "textwrap"})
>>> demo.__all__
['dedent', 'sqrt']
>>> "sqrt" in vars(demo)
False
>>> demo.sqrt(9.0), "sqrt" in vars(demo)
(3.0, True)
>>> "dedent" in dir(demo)
True
>>> demo.cbrt
Traceback (most recent call last):
...
AttributeError: module 'demo' has no attribute 'cbrt'
>>> del sys.modules["demo"]
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Mapping


class _LazyPackage(ModuleType):
    """A package whose exports win over same-named submodules.

    Importing ``repro.experiments.claims`` binds the *module* onto the
    package as ``claims``, which would shadow the exported ``claims``
    *function*.  Such a binding is skipped; the submodule stays in
    ``sys.modules``.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) \
                and value.__name__ == f"{self.__name__}.{name}" \
                and name in self.__dict__.get("__all__", ()):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Mapping[str, str]) -> tuple[
        Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` of ``package`` for ``exports``.

    ``exports`` maps each exported name to the module that defines it.
    The package module is also made a :class:`_LazyPackage`, so a loaded
    submodule never shadows an exported name.
    """
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> Any:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(source), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(exports))

    return __getattr__, __dir__, sorted(exports)
