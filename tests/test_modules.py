"""Module boundaries of the package, read from its source with `ast`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sictomo"


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
