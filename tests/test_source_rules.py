"""Contracts on the library source, checked on its syntax tree.

Library code reports through the `fracopt` logger, so only the CLI may call
`print`; and it raises ConfigurationError or SolverError with a message rather
than a bare `assert`, which `python -O` strips.  Its tridiagonals are held as
their bands, so it imports nothing from scipy.sparse (the tests use it as their
oracle).  And `import fracopt` leaves scipy.special unloaded: it adds about
50-70 ms to every fresh process, and import time bounds a run's setup.  The
README's command-line section names exactly the CLI's subcommands and flags,
so a removed one cannot stay documented.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "fracopt").glob("*.py"))


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
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, fracopt; print(sorted(m for m in sys.modules if 'scipy.special' in m))"
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_readme_command_line_names_the_parsers_commands_and_flags():
    from fracopt.cli import build_parser

    _, commands = build_parser()
    flags = {flag for p in commands.values() for flag in re.findall(r"--[\w-]+", p.format_help())}
    flags.discard("--help")
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("\n## ")[0]
    examples = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    flag_block = re.search(r"Flags:\s*```\n(.*?)```", section, re.S).group(1)
    config_example = re.search(r"Config file example:\s*```\n(.*?)```", section, re.S).group(1)
    assert set(re.findall(r"^fracopt ([\w-]+)", examples, re.M)) == set(commands)
    assert set(re.findall(r"--[\w-]+", examples)) <= flags
    assert set(re.findall(r"^(--[\w-]+)", flag_block, re.M)) == flags
    keys = {"--" + key.replace("_", "-") for key in
            re.findall(r"^(\w[\w-]*)\s*=", config_example, re.M)}
    assert keys <= flags - {"--config", "--verbose"}
