"""The package's public names resolve, so a stale export fails here first.

A name that moves between modules must leave every ``__all__`` that
listed it; ``from <module> import *`` raises on any name that does not
resolve.
"""

import collections
import importlib
import pkgutil

import trendsig


def test_every_listed_public_name_resolves_once():
    modules = [trendsig] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(trendsig.__path__, "trendsig.")
    ]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert trendsig in exported and len(exported) > 1
    for module in exported:
        exec(f"from {module.__name__} import *", {})
        repeats = [n for n, k in collections.Counter(module.__all__).items() if k > 1]
        assert not repeats, f"{module.__name__}.__all__ lists {repeats} twice"
