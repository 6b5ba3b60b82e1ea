"""Properties of the package source itself."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densitypack

PACKAGE = Path(densitypack.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
# numpy routines that call BLAS, and so would use more than the one OpenBLAS
# thread that numpy loads with.
BLAS_ROUTINES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}
# Run in a fresh interpreter, since a pytest plugin may have imported numpy.
# With "numpy-first", numpy loads before the package, and os.environ refuses
# writes from then on.
THREADS_SCRIPT = """
import os, sys
before = dict(os.environ)
if sys.argv[1:] == ["numpy-first"]:
    import numpy

    class Unwritable(dict):
        def __setitem__(self, key, value):
            raise AssertionError(f"os.environ[{key!r}] set after numpy loaded")

    os.environ = Unwritable(os.environ)
import densitypack.cli
print(len(os.listdir("/proc/self/task")), dict(os.environ) == before)
"""


def test_no_assert_statements():
    # `python -O` strips asserts, so a result guard must be an explicit check.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"


def test_no_blas_routines():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(getattr(node, "op", None), ast.MatMult):
                used = "@"
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_ROUTINES:
                used = node.attr
            elif isinstance(node, ast.alias) and BLAS_ROUTINES & set(node.name.split(".")):
                used = node.name
            elif isinstance(node, ast.ImportFrom) and BLAS_ROUTINES & set((node.module or "").split(".")):
                used = node.module
            else:
                continue
            found.append(f"{path.name}:{node.lineno} {used}")
    assert not found, (
        f"BLAS-backed numpy routines in {found}: densitypack/__init__.py loads numpy with a "
        "one-thread OpenBLAS pool because the package does no BLAS work; revisit that setting"
    )


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.skipif(
    "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
    reason="numpy is not built with OpenBLAS",
)
@pytest.mark.parametrize(
    "caller_env, numpy_first, pool",
    [
        ({}, False, 1),
        ({"OMP_NUM_THREADS": "2"}, False, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, False, 2),
        ({"OMP_NUM_THREADS": "2"}, True, 2),
    ],
)
def test_numpy_loads_with_one_blas_thread(caller_env, numpy_first, pool):
    # OpenBLAS reads OPENBLAS_NUM_THREADS, or else OMP_NUM_THREADS, and caps
    # its pool at the cores it may run on.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(caller_env, PYTHONPATH=str(PACKAGE.parent))
    argv = [sys.executable, "-c", THREADS_SCRIPT, *(["numpy-first"] if numpy_first else [])]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(min(pool, len(os.sched_getaffinity(0)))), "True"]


def test_every_exported_name_resolves():
    missing = [f"densitypack.{n}" for n in densitypack.__all__ if not hasattr(densitypack, n)]
    for info in pkgutil.iter_modules(densitypack.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"densitypack.{info.name}")
        missing += [f"{mod.__name__}.{n}" for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_readme_library_example_runs():
    # The documented example imports from the package root, so it fails
    # here if a name it uses leaves the public surface.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})


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
