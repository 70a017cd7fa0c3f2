"""The package holds only code that a result or the benchmark reaches.

Reference implementations that only the tests read live in tests/oracles.py.
This guard parses src/cavqfi and follows references from ``cli.main``, from
every module-level statement, and from every name perfbench/ mentions; a
top-level def or class that none of them reaches fails it, and so does a
module-level constant that neither the package nor perfbench/ reads, an
imported name that its module never reads, or a parameter default that no
call in the package or perfbench/ overrides.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cavqfi"
BENCHMARK = ROOT / "perfbench"

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def parse_package():
    """module -> (top-level defs by name, imported names, module-level statements)."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs, imports, statements = {}, {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("cavqfi")
            ):
                source = (node.module or "").removeprefix("cavqfi").lstrip(".")
                for alias in node.names:
                    # `from . import policy` binds a module, `from .x import y` a name
                    target = (alias.name, None) if not source else (source, alias.name)
                    imports[alias.asname or alias.name] = target
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                statements.append(node)
        modules[path.stem] = (defs, imports, statements)
    return modules


def benchmark_names():
    """Every identifier perfbench's code mentions, dotted strings split at the dots."""
    names = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.update(node.value.split("."))
    return names


def unreached_definitions():
    modules = parse_package()

    def resolve(module, name):
        defs, imports, _ = modules[module]
        if name in defs:
            return (module, name)
        source, attr = imports.get(name, (None, None))
        if source in modules and attr is not None:
            return resolve(source, attr)
        return None

    def references(module, nodes):
        _, imports, _ = modules[module]
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    yield resolve(module, sub.id)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    source, attr = imports.get(sub.value.id, (None, None))
                    if source in modules and attr is None:
                        yield resolve(source, sub.attr)

    mentioned = benchmark_names()
    todo = [("cli", "main")]
    todo += [(m, n) for m, (defs, _, _) in modules.items() for n in defs if n in mentioned]
    for module, (_, _, statements) in modules.items():
        todo += references(module, statements)
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        module, name = key
        todo += references(module, [modules[module][0][name]])
    every = {(m, n) for m, (defs, _, _) in modules.items() for n in defs}
    return sorted(every - reached)


def test_every_definition_is_reached():
    assert unreached_definitions() == []


def unread_constants():
    """Module-level constants of the package that nothing reads.

    A constant is a top-level assignment to a plain name; dunder names,
    which Python and packaging tools read, are exempt.  It counts as read
    when a name loads it in its own module or in a module that imports it,
    when an attribute of its module names it, or when perfbench/ mentions it.
    """
    modules = parse_package()
    constants = set()
    for module, (_, _, statements) in modules.items():
        for node in statements:
            if isinstance(node, ast.Assign):
                targets = node.targets
            else:
                targets = [node.target] if isinstance(node, ast.AnnAssign) else []
            constants.update(
                (module, t.id)
                for t in targets
                if isinstance(t, ast.Name) and not (t.id.startswith("__") and t.id.endswith("__"))
            )
    read = set()
    for module, (defs, imports, statements) in modules.items():
        for node in list(defs.values()) + statements:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    source, attr = imports.get(sub.id, (module, sub.id))
                    read.add((source, attr))
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                    source, attr = imports.get(sub.value.id, (None, None))
                    if source in modules and attr is None:
                        read.add((source, sub.attr))
    mentioned = benchmark_names()
    return sorted(c for c in constants - read if c[1] not in mentioned)


def test_every_constant_is_read():
    assert unread_constants() == []


def unused_imports():
    """(module, name) for each name a package module imports and never reads.

    ``__init__.py`` is exempt: its imports are the package's exports.
    """
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name) for name in sorted(imported - read)]
    return unused


def test_every_import_is_read():
    assert unused_imports() == []


# defaults kept although only tests override them: qfi_numeric's diagnostics
# are what the tests inspect, and what a diagnostics channel would report
DEFAULT_ONLY_TESTS_OVERRIDE = {("qfi_numeric", "return_diagnostics")}


def _defaulted_parameters(func):
    """(position or None, name) of each parameter of func that has a default.

    Positions count the arguments a caller passes, so a method's self (and a
    class's __init__ self) is not counted.
    """
    args = func.args
    positional = args.posonlyargs + args.args
    if positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def unoverridden_defaults():
    """(callee, parameter) for each default that no call in src/ or perfbench/ passes.

    A call names its callee by a plain name or an attribute (``f(...)``,
    ``module.f(...)``); a class's __init__ is called by the class name.  A
    call passes a parameter positionally, by keyword, or through ``*args``
    or ``**kwargs``.
    """
    defaults = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                        defaults.setdefault(node.name, []).extend(_defaulted_parameters(item))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "__init__":
                defaults.setdefault(node.name, []).extend(_defaulted_parameters(node))
    overridden = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in defaults:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            for position, param in defaults[name]:
                if (
                    starred
                    or None in keywords
                    or param in keywords
                    or (position is not None and position < len(node.args))
                ):
                    overridden.add((name, param))
    every = {(name, param) for name, params in defaults.items() for _, param in params}
    return sorted(every - overridden - DEFAULT_ONLY_TESTS_OVERRIDE)


def test_every_default_is_overridden():
    assert unoverridden_defaults() == []
