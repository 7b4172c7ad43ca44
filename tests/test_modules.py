"""Module boundaries of the package, read from its source with `ast`."""

import ast
import importlib
import pathlib

import sictomo

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


def test_package_names_do_not_hide_submodules():
    """`sictomo.reconstruct` is the module, so `monkeypatch.setattr` on it
    reaches the module's own names; the package binds no function over a
    submodule's name. Each submodule is imported here, so the check does not
    rest on what other test files imported first; the package's binding is
    read before that import, which would overwrite it."""
    for path in SRC.glob("*.py"):
        if not path.stem.startswith("_"):
            bound = vars(sictomo).get(path.stem)
            module = importlib.import_module(f"sictomo.{path.stem}")
            assert bound in (None, module), (path.stem, bound)
            assert getattr(sictomo, path.stem) is module


def test_only_povm_reads_frame_projectors():
    """A SIC frame builds its bras, effects and duals from its projectors
    once, in `povm`; every other module reads those, so no module but `povm`
    reads `.projectors` and builds a site tensor of its own."""
    readers = sorted(
        path.name for path in SRC.glob("*.py") if path.name != "povm.py"
        and any(isinstance(node, ast.Attribute) and node.attr == "projectors"
                for node in ast.walk(ast.parse(path.read_text()))))
    assert readers == []


def test_only_povm_names_the_byte_cap():
    """Every size check goes through `povm.check_bytes`, which reads
    BYTES_CAP; no other module sizes an array against the cap itself."""
    namers = sorted(
        path.name for path in SRC.glob("*.py") if path.name != "povm.py"
        and "BYTES_CAP" in identifiers(ast.parse(path.read_text())))
    assert namers == []


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


def definition_parts(modules):
    """Each defined name of `modules` with the parts of its definitions."""
    parts = {}
    for source in modules:
        for name, _, nodes in definitions(source):
            parts.setdefault(name, []).extend(nodes)
    return parts


def reached_names(roots, modules):
    """Names reached from the names `roots`: each definition of `modules`
    that a reached name names is reached, and so is every name in its parts.
    Matching by name alone can only over-count."""
    parts = definition_parts(modules)
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


def root_trees():
    """The parsed files that reach starts from: `cli.py`, the acceptance
    tests and the benchmark, each with whether its string constants count
    as names (the benchmark wraps methods by name)."""
    for path in (SRC / "cli.py", TESTS / "test_acceptance.py",
                 *sorted(PERFBENCH.glob("*.py"))):
        yield ast.parse(path.read_text()), path.parent == PERFBENCH


def test_every_public_name_is_reached():
    """Every top-level function, class and assigned name of the package, and
    every method and property that is not a dunder, is reached by a CLI
    command (`verify` included), an acceptance criterion or the benchmark
    (which wraps methods by name), or is an exact oracle or reached from
    one. A method that overrides a hook of a class outside the package is
    exempt."""
    roots = set()
    for tree, strings in root_trees():
        roots |= set(identifiers(tree, strings))
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


def defaulted_fields(source):
    """(class, field, position) for every field with a default of each
    dataclass of `source`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in set(identifiers(d))
                for d in node.decorator_list):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign)]
            for position, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, item.target.id, position


def set_fields(trees):
    """What `trees` set: ("kw", name) for a keyword argument or an assigned
    attribute, and ("pos", callee, count) for a call that passes `count`
    positional arguments (every one, if unpacked) to a bare or dotted name."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg:
                yield "kw", node.arg
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute):
                            yield "kw", sub.attr
            elif isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None)
                count = (float("inf") if any(isinstance(a, ast.Starred)
                                             for a in node.args)
                         else len(node.args))
                yield "pos", callee, count


def unset_fields(trees, modules):
    """`Class.field` for every defaulted dataclass field of `modules` that
    no tree of `trees` passes by keyword or position, or assigns."""
    setters = set(set_fields(trees))
    keywords = {s[1] for s in setters if s[0] == "kw"}
    for source in modules:
        for owner, name, position in defaulted_fields(source):
            if name not in keywords and not any(
                    s[0] == "pos" and s[1] == owner and s[2] > position
                    for s in setters):
                yield f"{owner}.{name}"


def test_field_walk_on_a_toy_module():
    module = ("@dataclass\n"
              "class Cfg:\n"
              "    n: int\n"
              "    a: int = 1\n"
              "    b: int = 2\n"
              "    c: list = field(default_factory=list)\n"
              "    d: int = 4\n"
              "class Plain:\n"
              "    e: int = 5\n")
    assert list(defaulted_fields(module)) == [
        ("Cfg", "a", 1), ("Cfg", "b", 2), ("Cfg", "c", 3), ("Cfg", "d", 4)]
    trees = [ast.parse("cfg = mod.Cfg(3, 4, c=[])\ncfg.d += 1\n")]
    assert list(unset_fields(trees, [module])) == ["Cfg.b"]
    assert list(unset_fields([ast.parse("Cfg(*args)")], [module])) == []


def test_every_dataclass_default_is_set():
    """A dataclass field with a default is state that a caller may choose.
    Each must be passed or assigned somewhere in the code that a CLI
    command, an acceptance criterion or the benchmark reaches (matched by
    name, which can only over-count); otherwise nothing ever sets it and the
    field, with every branch that reads it, is dead."""
    roots, trees = set(), []
    for tree, strings in root_trees():
        trees.append(tree)
        roots |= set(identifiers(tree, strings))
    modules = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    parts = definition_parts(modules)
    for name in reached_names(roots | set(ORACLES), modules):
        trees.extend(parts.get(name, ()))
    assert sorted(unset_fields(trees, modules)) == []
