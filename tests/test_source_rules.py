"""Contracts on the library source, checked on its syntax tree.

Library code reports through the `fracopt` logger, so only the CLI may call
`print`; and it raises ConfigurationError or SolverError with a message rather
than a bare `assert`, which `python -O` strips.  Its tridiagonals are held as
their bands, so it imports nothing from scipy.sparse, and `import fracopt`
leaves scipy.special unloaded.  More broadly it runs on numpy alone:
no source imports scipy, which the tests keep as their oracle, and a fresh
interpreter with scipy blocked imports fracopt, assembles and solves, and
loads no scipy module; scipy.linalg alone adds about 150 ms to every fresh
process, and import time bounds a run's setup.  In control only
ReducedProblem.evaluate solves, so a control is certified on one path.  The
README's command-line section names exactly the CLI's subcommands and flags,
so a removed one cannot stay documented.  Every name a module exports in
`__all__` has a use outside the tests: in the library beyond its own
definition, in the benchmark, or in the README's library example; so no entry
point is kept for the tests alone.  And every library name the benchmark uses
(module attributes, keyword arguments, the functions and methods its tracer
patches by name, and the attributes it reads on the objects the library returns)
resolves, so a library change cannot break the benchmark alone.
"""

import ast
import importlib
import inspect
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import typing

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


def test_the_library_imports_no_scipy_and_runs_without_it():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = [(node.lineno, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names]
        modules += [(node.lineno, node.module) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module]
        found += [f"{path.name} line {line}: {name}" for line, name in modules
                  if name.split(".")[0] == "scipy"]
    assert not found, f"the library imports scipy: {found}"
    # a fresh interpreter: this test process has scipy loaded already
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # every scipy import raises ImportError
        import numpy as np
        import fracopt
        mesh = fracopt.TensorMesh(fracopt.BasePartition(2, 4), fracopt.GradedPartition(3, 2.0, 1.0))
        V, residual = fracopt.assemble_stiffness(mesh, 0.3).solve(np.ones(mesh.n_trace))
        assert residual <= 1e-10 and np.isfinite(V.free_values).all()
        print(sorted(name for name, module in sys.modules.items()
                     if module is not None and name.split(".")[0] == "scipy"))
    """)
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_operator_compares_no_dimension_with_a_number():
    # fem is one code path for every base dimension: formulas in n, not branches on it
    path = ROOT / "src" / "fracopt" / "fem.py"

    def is_n(node):
        return getattr(node, "id", None) == "n" or getattr(node, "attr", None) == "n"

    def is_number(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_number(e) for e in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, int)

    found = [f"line {node.lineno}" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare) and any(map(is_n, [node.left, *node.comparators]))
             and any(map(is_number, [node.left, *node.comparators]))]
    assert not found, f"fem.py compares the dimension with a number: {found}"


def test_control_certifies_a_control_on_one_path():
    # ReducedProblem.evaluate makes the checked state and adjoint solves and keeps their
    # residuals as the certificate; no other control code solves, applies K or forms a
    # residual, so nothing works the certificate out a second time
    path = ROOT / "src" / "fracopt" / "control.py"
    calls = []  # (enclosing class and function, method, line)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("solve", "residual", "apply")):
                calls.append((scope, child.func.attr, child.lineno))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(path.read_text()), "")
    assert ("ReducedProblem.evaluate", "solve") in {call[:2] for call in calls}
    stray = [f"line {line}: {scope or 'module'} calls .{method}("
             for scope, method, line in calls
             if (scope, method) != ("ReducedProblem.evaluate", "solve")]
    assert not stray, f"control.py certifies off the exit evaluation: {stray}"


def test_only_the_control_space_compares_a_scheme_with_a_name():
    # _control_space is the one definition of a scheme: the loop and the exit read what
    # differs from the space it returns, and check_scheme, which it calls, refuses a name
    # outside SCHEMES
    path = ROOT / "src" / "fracopt" / "control.py"

    def is_scheme(node):
        return getattr(node, "id", None) == "scheme" or getattr(node, "attr", None) == "scheme"

    def is_name(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_name(e) for e in node.elts)
        return ((isinstance(node, ast.Constant) and isinstance(node.value, str))
                or getattr(node, "id", None) == "SCHEMES")

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            operands = [child.left, *child.comparators] if isinstance(child, ast.Compare) else []
            if any(map(is_scheme, operands)) and any(map(is_name, operands)):
                found.append((scope, child.lineno))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{scope}.{child.name}".lstrip(".") if named else scope)

    visit(ast.parse(path.read_text()), "")
    assert {scope for scope, _ in found} == {"_control_space", "check_scheme"}, found


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


def _fracopt_roots(tree: ast.AST) -> dict:
    """Local name -> fracopt module, for each fracopt import in `tree`."""
    import fracopt

    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update({a.asname or a.name: fracopt for a in node.names if a.name == "fracopt"})
        elif isinstance(node, ast.ImportFrom) and node.module == "fracopt":
            roots.update({a.asname or a.name: importlib.import_module(f"fracopt.{a.name}")
                          for a in node.names})
    return roots


def _traced(tree: ast.AST):
    """Each TRACED (module, "function" or "Class.method", span, hook) entry, as (line,
    text, the object the tracer patches or None, the hook's name or None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in node.targets):
            for entry in node.value.elts:
                module, attr = (ast.literal_eval(e) for e in entry.elts[:2])
                owner, *method = attr.split(".")
                obj = getattr(importlib.import_module(f"fracopt.{module}"), owner, None)
                if method:  # the tracer patches the method in its class's own namespace
                    obj = vars(obj).get(method[0]) if obj is not None else None
                hook = getattr(entry.elts[3], "id", None)
                yield entry.lineno, f"TRACED {module}.{attr}", obj, hook


def _is_library_class(t) -> bool:
    return isinstance(t, type) and t.__module__.startswith("fracopt")


def _returns(obj) -> set:
    """The types a call of `obj` returns, from its annotation: a class makes itself."""
    if isinstance(obj, type):
        return {obj}
    ret = typing.get_type_hints(obj).get("return") if inspect.isroutine(obj) else None
    return {ret} if ret is not None else set()


def _items(types: set, index: int) -> set:
    """The types of item `index` of a value of one of `types` (a Tuple or a List)."""
    out = set()
    for t in types:
        origin, args = typing.get_origin(t), typing.get_args(t)
        if origin is tuple and -len(args) <= index < len(args):
            out.add(args[index])
        elif origin is list and args:
            out.add(args[0])
    return out


def _type_of(node: ast.AST, env: dict, roots: dict) -> set:
    """The library types `node` may have: a call of a library function or class (its
    return annotation), a method call or attribute of a value of known type, an item
    of a Tuple or List, or a name bound to one of these; empty where unknown."""
    if isinstance(node, ast.Name):
        return env.get(node.id) or set()
    if isinstance(node, ast.Call):
        chain = _resolve(node.func, roots)
        if chain is not None:
            return _returns(chain[1])
        if isinstance(node.func, ast.Attribute):
            owners = _type_of(node.func.value, env, roots)
            return set().union(*(_returns(getattr(t, node.func.attr, None))
                                 for t in owners if _is_library_class(t)))
    if isinstance(node, ast.Attribute):
        owners = _type_of(node.value, env, roots)
        return {typing.get_type_hints(t).get(node.attr) for t in owners
                if _is_library_class(t)} - {None}
    if isinstance(node, ast.Subscript):
        try:
            index = ast.literal_eval(node.slice)  # a constant index, such as 0 or -1
        except ValueError:
            return set()
        if isinstance(index, int):
            return _items(_type_of(node.value, env, roots), index)
    return set()


def _has_attribute(cls: type, attr: str) -> bool:
    """A class attribute, method or property, a dataclass field, or set on self."""
    if hasattr(cls, attr) or attr in typing.get_type_hints(cls):
        return True
    source = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
               and getattr(n.value, "id", None) == "self" and n.attr == attr
               for n in ast.walk(source))


def _typed_attribute_reads(tree: ast.AST, roots: dict, hooks: dict):
    """(line, "Class.attr", whether it exists) for each attribute the benchmark reads on
    a value of a known library class.  Per function, a name takes the types of every
    value assigned to it, and none if it is also bound another way; a tracer hook's
    second parameter is the result of each function it counts (`count(args, result)`).
    An attribute must exist on every type its value may have."""
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        env = {}  # name -> set of types, or None where unknown
        if scope.name in hooks:
            env[scope.args.args[1].arg] = hooks[scope.name]
        assigns = sorted((n for n in ast.walk(scope) if isinstance(n, ast.Assign)),
                         key=lambda n: (n.lineno, n.col_offset))
        targeted = set()
        for node in assigns:
            value = _type_of(node.value, env, roots)
            for target in node.targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                for i, name in enumerate(names):
                    if not isinstance(name, ast.Name):
                        continue
                    targeted.add(id(name))
                    types = _items(value, i) if isinstance(target, ast.Tuple) else value
                    known = env.get(name.id, set())
                    env[name.id] = known | types if types and known is not None else None
        for node in ast.walk(scope):  # bound by for, with, an import or a comprehension
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                    and id(node) not in targeted:
                env[node.id] = None
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                yield from ((node.lineno, f"{t.__name__}.{node.attr}", _has_attribute(t, node.attr))
                            for t in _type_of(node.value, env, roots) if _is_library_class(t))


def _benchmark_uses(tree: ast.AST):
    """The library uses of one benchmark source, as (line, text, object or None): every
    attribute chain rooted at a fracopt import, every keyword of a call to one, every
    TRACED (module, "function" or "Class.method") entry, and every attribute read on a
    value of a library class (see _typed_attribute_reads)."""
    roots = _fracopt_roots(tree)
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
    hooks = {}  # hook name -> the types of the results it counts
    for line, text, obj, hook in _traced(tree):
        yield line, text, obj
        if hook is not None and obj is not None:
            hooks[hook] = hooks.get(hook, set()) | _returns(obj)
    for line, text, found in _typed_attribute_reads(tree, roots, hooks):
        yield line, text, found or None


def test_the_benchmark_uses_only_library_names_that_resolve():
    # perfbench calls and traces the library by name, so a rename or a dropped keyword
    # would otherwise break the benchmark alone
    uses = [(path.name, line, text, obj) for path in sorted((ROOT / "perfbench").glob("*.py"))
            for line, text, obj in _benchmark_uses(ast.parse(path.read_text()))]
    assert any(text.startswith("TRACED") for _, _, text, _ in uses)
    assert any(text.endswith("=)") for _, _, text, _ in uses)
    # the reads on returned objects are typed, so each of these is checked
    assert {text for _, _, text, _ in uses} >= {
        "ReducedCostReport.n_state_solves", "ReducedCostReport.converged",
        "ReducedCostReport.vi_residual", "ReducedCostReport.iterations",
        "OptimalityResiduals.vi_violation_min", "ManufacturedProblem.lam_s",
        "ManufacturedProblem.u_exact", "ManufacturedProblem.z_exact"}
    broken = [f"{name}:{line}: {text}" for name, line, text, obj in uses if obj is None]
    assert not broken, f"the benchmark uses library names that do not resolve: {broken}"
