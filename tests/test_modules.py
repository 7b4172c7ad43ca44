"""Module boundaries of the package, read from its source with `ast`."""

import ast
import importlib
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sictomo"
PERFBENCH = TESTS.parent / "perfbench"

# exact references that tests check computed results against; no command
# needs them
ORACLES = ("negativity", "p3_moment_exact", "partial_trace", "pair_trace",
           "inverse_depolarizing", "save_state", "ket_to_bloch")


def private_imports(source):
    """Names of the form `_name` that `source` imports from the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "sictomo"):
            for alias in node.names:
                if alias.name.startswith("_") and not (
                        alias.name.startswith("__")
                        and alias.name.endswith("__")):
                    yield alias.name


def test_private_import_checker():
    source = ("from .shadows import _check, pattern_codes\n"
              "from . import __version__\n"
              "def f():\n"
              "    from sictomo.budget import _table\n"
              "from numpy import _private\n")
    assert list(private_imports(source)) == ["_check", "_table"]


def test_no_module_imports_private_names_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    found = [f"{path.name}: {name}" for path in modules
             for name in private_imports(path.read_text())]
    assert found == []


def identifiers(tree, strings=False):
    """Every name, attribute and imported module or name in `tree`; with
    `strings`, every string constant too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            yield node.value


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(source):
    """(name, class or None, parts) for every top-level function, class and
    assigned name of `source`, and for every method or property of its
    classes, dunders left out. The parts are what a reached definition
    reaches into: a class's body without its non-dunder methods, which are
    reached by their own names."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            methods = [item for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not is_dunder(item.name)]
            for method in methods:
                yield method.name, node.name, [method]
            yield node.name, None, [
                *node.bases, *node.keywords, *node.decorator_list,
                *(item for item in node.body if item not in methods)]
        elif isinstance(node, ast.FunctionDef):
            yield node.name, None, [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not is_dunder(name.id):
                        yield name.id, None, [node]


def reached_names(roots, modules):
    """Names reached from the names `roots`: each definition of `modules`
    that a reached name names is reached, and so is every name in its parts.
    Matching by name alone can only over-count."""
    parts = {}
    for source in modules:
        for name, _, nodes in definitions(source):
            parts.setdefault(name, []).extend(nodes)
    todo, seen = set(roots), set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in parts.get(name, ()):
            todo |= set(identifiers(node)) - seen
    return seen


def overrides_outside_hook(module, owner, name):
    """Whether method `name` of class `owner` in `sictomo.<module>` overrides
    a method that a class from outside the package defines and calls, as
    `_Parser.error` overrides `argparse.ArgumentParser.error`."""
    if owner is None:
        return False
    cls = getattr(importlib.import_module(f"sictomo.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("sictomo"))


def test_reach_follows_bodies():
    modules = ["def a():\n    return b()\n"
               "def b():\n    return 1\n"
               "def c():\n    return a()\n"]
    assert {"a", "b"} <= reached_names(["a"], modules)
    assert "c" not in reached_names(["a"], modules)
    # a class reaches its dunders; its other methods are reached by name
    modules = ["LIMIT = 3\n"
               "class A:\n"
               "    def __init__(self):\n        self.n = LIMIT\n"
               "    def used(self):\n        return helper()\n"
               "    def unused(self):\n        return other()\n"
               "def helper():\n    return 1\n"
               "def other():\n    return 2\n"]
    reached = reached_names(["A", "used"], modules)
    assert {"A", "LIMIT", "used", "helper"} <= reached
    assert not {"unused", "other"} & reached
    assert [(name, owner) for name, owner, _ in definitions(modules[0])] == [
        ("LIMIT", None), ("used", "A"), ("unused", "A"), ("A", None),
        ("helper", None), ("other", None)]
    source = ast.parse("wrap(cls, 'used')\n")
    assert "used" not in set(identifiers(source))
    assert "used" in set(identifiers(source, strings=True))


def test_every_public_name_is_reached():
    """Every top-level function, class and assigned name of the package, and
    every method and property that is not a dunder, is reached by a CLI
    command (`verify` included), an acceptance criterion or the benchmark
    (which wraps methods by name), or is an exact oracle or reached from
    one. A method that overrides a hook of a class outside the package is
    exempt."""
    roots = set()
    for path in (SRC / "cli.py", TESTS / "test_acceptance.py"):
        roots |= set(identifiers(ast.parse(path.read_text())))
    for path in sorted(PERFBENCH.glob("*.py")):
        roots |= set(identifiers(ast.parse(path.read_text()), strings=True))
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    kept = reached_names(roots | set(ORACLES), modules.values())
    unreached = sorted(
        ".".join(filter(None, (module, owner, name)))
        for module, source in modules.items()
        for name, owner, _ in definitions(source)
        if name not in kept
        and not overrides_outside_hook(module, owner, name))
    assert unreached == []
    assert overrides_outside_hook("cli", "_Parser", "error")
    defined = {name for source in modules.values()
               for name, _, _ in definitions(source)}
    # an oracle that a command reaches needs no place on the list
    reached = reached_names(roots, modules.values())
    assert set(ORACLES) <= defined - reached
