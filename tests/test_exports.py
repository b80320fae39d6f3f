"""The package's public names resolve, so a stale export fails here first.

A name that moves between modules must leave every ``__all__`` that
listed it; ``from <module> import *`` raises on any name that does not
resolve.  A name that loses its last use must also lose its import, and
a private helper that loses its last caller must go.
"""

import ast
import collections
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_imported_name_is_used_or_exported():
    """Module-level imports in the package are used, listed in ``__all__``,
    or marked ``# noqa: F401`` on the import statement."""
    dead = []
    for path in sorted(Path(trendsig.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                # __init__ computes its __all__; its string constants are the names
                used.update(
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    dead.append(f"{path.name}:{node.lineno}: {name}")
    assert not dead, f"imported but never used: {dead}"


def test_every_private_module_name_is_used_in_its_module():
    """A module-level private function, class or constant is used in the
    module that defines it, so a helper that loses its last caller goes too."""
    dead = []
    for path in sorted(Path(trendsig.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = node.lineno
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        dead += [f"{path.name}:{n}: {name}" for name, n in defined.items() if name not in used]
    assert not dead, f"private names never used in their module: {dead}"


# Public names with no caller in the package, and what keeps each.
PINNED = {
    "generate_batch": "criteria 4 and 8 generate their series with it",
    "lag1_autocorr": "the r1 definition that tests check by hand; fit_batch shares its kernel",
    "read_registry": "the library's registry reader; the CLI reads the text first, "
    "without numpy, and hands it to ingest.parse_registry",
    "t_cdf": "criterion 7 checks the scalar CDF against reference values",
    "run_comparison": "perfbench's worker calls it; it goes when the worker moves "
    "to run_comparisons",
    "write_series": "the round-trip partner of read_series",
}


def test_every_public_name_has_a_caller_or_a_pin():
    """Each name in ``trendsig.__all__`` is loaded somewhere in the package
    outside ``__init__.py``, or is pinned with a reason; a pinned name that
    gains a caller must leave ``PINNED``, so the list cannot go stale."""
    loaded = set()
    for path in Path(trendsig.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            loaded |= {
                node.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
    public = {name for name in trendsig.__all__ if not name.startswith("__")}
    assert set(PINNED) <= public, f"pinned but not public: {set(PINNED) - public}"
    assert sorted(public - loaded) == sorted(PINNED)


PUBLIC = [
    "Ar1Spec", "ComparisonSpec", "ComputationError", "DatasetEntry", "DomainError",
    "EnsembleStats", "InputError", "MonthIndex", "MonthlySeries", "SizePower",
    "TableRow", "TestResult", "TrendFit", "TrendSigError", "__version__", "compare",
    "comparison_row", "d1_star", "difference", "effective_n", "fit", "fit_batch",
    "generate_batch", "lag1_autocorr", "p_values", "read_registry", "read_series",
    "render", "run_comparison", "run_comparisons", "significance_marks", "size_power",
    "t_cdf", "truncate", "write_series",
]


def test_lazy_exports_are_the_defining_modules_public_names():
    """Each name the package loads on first access is its submodule's own
    public object, listed under that submodule alone, and the package lists
    the same names as before."""
    assert sorted(trendsig.__all__) == PUBLIC
    listed = collections.Counter(n for names in trendsig._EXPORTS.values() for n in names)
    repeats = [n for n, k in listed.items() if k > 1]
    assert not repeats, f"listed under two submodules: {repeats}"
    for module_name, names in trendsig._EXPORTS.items():
        module = importlib.import_module(f"trendsig.{module_name}")
        for name in names:
            assert name in module.__all__, f"{module_name}.__all__ lacks {name}"
            assert getattr(trendsig, name) is getattr(module, name), name
    for module_name in trendsig._SUBMODULES:
        assert getattr(trendsig, module_name) is importlib.import_module(
            f"trendsig.{module_name}"
        )
    with pytest.raises(AttributeError, match="no_such_name"):
        trendsig.no_such_name


def test_submodules_resolve_after_a_bare_import():
    probe = (
        "import sys, trendsig\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'trendsig'))\n"
        "assert loaded == ['trendsig', 'trendsig.errors'], loaded\n"
        "trendsig.ingest.read_registry\n"
        "trendsig.mc.size_power\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
