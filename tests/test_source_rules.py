"""Contracts on the library source, checked on its syntax tree.

Library code reports through the `fracopt` logger, so only the CLI may call
`print`; and it raises ConfigurationError or SolverError with a message rather
than a bare `assert`, which `python -O` strips.  Its tridiagonals are held as
their bands, so it imports nothing from scipy.sparse (the tests use it as their
oracle).  And `import fracopt` leaves scipy.special unloaded: it adds about
50-70 ms to every fresh process, and import time bounds a run's setup.  The
README's command-line section names exactly the CLI's subcommands and flags,
so a removed one cannot stay documented.  Every name a module exports in
`__all__` has a use outside the tests: in the library beyond its own
definition, in the benchmark, or in the README's library example; so no entry
point is kept for the tests alone.  And every library name the benchmark uses
(module attributes, keyword arguments, and the functions and methods its tracer
patches by name) resolves, so a library change cannot break the benchmark alone.
"""

import ast
import importlib
import inspect
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


def _used_names(tree: ast.AST, skip=(), strings=False) -> set:
    """Names read in `tree` (as a name or an attribute), leaving out the nodes within
    the line spans `skip`.  With `strings`, a string constant such as
    "CylinderOperator.solve", which the benchmark's tracer patches by name, counts
    for its first part."""
    used = set()
    for node in ast.walk(tree):
        if any(first <= getattr(node, "lineno", 0) <= last for first, last in skip):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value.split(".")[0])
    return used


def test_every_exported_name_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    outside = set()  # benchmark and README library example
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _used_names(ast.parse(path.read_text()), strings=True)
    readme = (ROOT / "README.md").read_text().split("## Library", 1)[1]
    outside |= _used_names(ast.parse(re.search(r"```python\n(.*?)```", readme, re.S).group(1)))
    unused = []
    for path, tree in trees.items():
        exported = [ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        for name in (exported[0] if exported else ()):
            definition = [(node.lineno, node.end_lineno) for node in tree.body
                          if getattr(node, "name", None) == name]
            in_library = any(name in _used_names(other, definition if other is tree else ())
                             for p, other in trees.items() if p.name != "__init__.py")
            if not (in_library or name in outside):
                unused.append(f"{path.name}: {name}")
    assert not unused, f"exported for the tests only: {unused}"


def _resolve(node: ast.AST, roots: dict):
    """(text, object) of an attribute chain rooted at a fracopt import, such as
    `study.StudyConfig`; the object is None where a name does not resolve.  None for any
    other node."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not (parts and isinstance(node, ast.Name) and node.id in roots):
        return None
    obj = roots[node.id]
    for attr in reversed(parts):
        obj = getattr(obj, attr, None)
    return ".".join([node.id] + parts[::-1]), obj


def _benchmark_uses(tree: ast.AST):
    """The library uses of one benchmark source, as (line, text, object or None): every
    attribute chain rooted at a fracopt import, every keyword of a call to one, and every
    TRACED (module, "function" or "Class.method") entry."""
    import fracopt

    roots = {}  # local name -> fracopt module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update({a.asname or a.name: fracopt for a in node.names if a.name == "fracopt"})
        elif isinstance(node, ast.ImportFrom) and node.module == "fracopt":
            roots.update({a.asname or a.name: importlib.import_module(f"fracopt.{a.name}")
                          for a in node.names})
    for node in ast.walk(tree):
        chain = _resolve(node, roots)
        if chain is not None:
            yield (node.lineno, *chain)
        if not isinstance(node, ast.Call):
            continue
        func = _resolve(node.func, roots)
        if func is None or func[1] is None:
            continue  # not the library's, or reported as an attribute
        params = inspect.signature(func[1]).parameters
        if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            yield from ((node.lineno, f"{func[0]}({kw.arg}=)", params.get(kw.arg))
                        for kw in node.keywords if kw.arg is not None)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            for entry in node.value.elts:
                module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
                owner, *method = attr.split(".")
                obj = getattr(importlib.import_module(f"fracopt.{module}"), owner, None)
                if method:  # the tracer patches the method in its class's own namespace
                    obj = vars(obj).get(method[0]) if obj is not None else None
                yield entry.lineno, f"TRACED {module}.{attr}", obj


def test_the_benchmark_uses_only_library_names_that_resolve():
    # perfbench calls and traces the library by name, so a rename or a dropped keyword
    # would otherwise break the benchmark alone
    uses = [(path.name, line, text, obj) for path in sorted((ROOT / "perfbench").glob("*.py"))
            for line, text, obj in _benchmark_uses(ast.parse(path.read_text()))]
    assert any(text.startswith("TRACED") for _, _, text, _ in uses)
    assert any(text.endswith("=)") for _, _, text, _ in uses)
    broken = [f"{name}:{line}: {text}" for name, line, text, obj in uses if obj is None]
    assert not broken, f"the benchmark uses library names that do not resolve: {broken}"
