"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import densitypack

PACKAGE = Path(densitypack.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_no_assert_statements():
    # `python -O` strips asserts, so a result guard must be an explicit check.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"


def test_every_exported_name_resolves():
    missing = [f"densitypack.{n}" for n in densitypack.__all__ if not hasattr(densitypack, n)]
    for info in pkgutil.iter_modules(densitypack.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"densitypack.{info.name}")
        missing += [f"{mod.__name__}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_tracer_hooks_exist():
    # The benchmark's `--trace 1` replaces these module attributes by name,
    # some of them imports that the module itself no longer calls.
    spec = importlib.util.spec_from_file_location("densitypack_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooks = {"densitypack.cli": [*tracer.CLI_SPANS, *tracer.FAMILY_HELPERS, "enumerate_avoiding_windows"]}
    for modname in ("densitypack.profile", "densitypack.mappings"):
        hooks[modname] = ["enumerate_avoiding_windows", "profile"]
    missing = [
        f"{modname}.{attr}"
        for modname, attrs in hooks.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert not missing, f"names bench/tracer.py wraps are gone: {missing}"
