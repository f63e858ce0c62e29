"""Contracts on the library source, checked on its syntax tree.

Library code reports through the `fracopt` logger, so only the CLI may call
`print`; and it raises ConfigurationError or SolverError with a message rather
than a bare `assert`, which `python -O` strips.  Its tridiagonals are held as
their bands, so it imports nothing from scipy.sparse (the tests use it as their
oracle).  And `import fracopt` leaves scipy.special unloaded: it adds about
50-70 ms to every fresh process, and import time bounds a run's setup.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "fracopt").glob("*.py"))


def test_the_library_sources_are_found():
    assert {path.name for path in SOURCES} >= {"cli.py", "control.py", "fem.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_print_outside_the_cli_and_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {node.lineno}: assert" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    if path.name != "cli.py":
        found += [f"line {node.lineno}: print" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print"]
    assert not found, f"{path.name}: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_scipy_sparse_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [(node.lineno, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [(node.lineno, f"{node.module}.{alias.name}") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module for alias in node.names]
    found = [f"line {line}: {name}" for line, name in modules
             if (name + ".").startswith("scipy.sparse.")]
    assert not found, f"{path.name}: {found}"


def test_importing_fracopt_does_not_load_scipy_special():
    # a fresh interpreter: this test process has scipy.special loaded already
    src = str(pathlib.Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, fracopt; print(sorted(m for m in sys.modules if 'scipy.special' in m))"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
