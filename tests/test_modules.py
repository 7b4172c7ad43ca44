"""Module boundaries of the package, read from its source with `ast`."""

import ast
import pathlib

import sictomo

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sictomo"

# exact references that tests check estimates against; no command needs them
ORACLES = ("negativity", "renyi2_exact", "p3_moment_exact", "trace_distance",
           "partial_trace", "shadow_expand", "pair_trace",
           "inverse_depolarizing", "save_state")


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


def identifiers(tree):
    """Every name, attribute and imported module or name in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def reached_names(roots, modules):
    """Names reached from the sources `roots`: each top-level function or
    class of `modules` that a reached name names is reached, and so is every
    name in its body. Matching by name alone can only over-count."""
    bodies = {}
    for source in modules:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
    todo = {name for source in roots for name in identifiers(ast.parse(source))}
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in bodies.get(name, ()):
            todo |= set(identifiers(node)) - seen
    return seen


def test_reach_follows_bodies():
    modules = ["def a():\n    return b()\n"
               "def b():\n    return 1\n"
               "def c():\n    return a()\n"]
    assert {"a", "b"} <= reached_names(["from m import a\n"], modules)
    assert "c" not in reached_names(["from m import a\n"], modules)


def test_every_public_name_is_reached():
    """A public name is reached by a CLI command (`verify` included) or an
    acceptance criterion, or is an exact oracle."""
    reached = reached_names(
        [(SRC / "cli.py").read_text(),
         (TESTS / "test_acceptance.py").read_text()],
        [path.read_text() for path in sorted(SRC.glob("*.py"))])
    assert sorted(set(sictomo.__all__) - reached - set(ORACLES)) == []
    assert set(ORACLES) <= set(sictomo.__all__)
