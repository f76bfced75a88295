"""Static check of the library source: no module keeps an import it never
reads, such as the leftovers of a folded function."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ctring"


def unread_imports(source: str) -> list:
    """The names bound by the module-level imports of `source` that no
    expression of the module reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_unread_imports_are_found():
    assert unread_imports("from math import factorial, prod\nimport os\nprod([])\n") == [
        "factorial",
        "os",
    ]
    assert unread_imports("import os.path\nos.path.join('a')\n") == []


def test_no_module_has_an_unread_import():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    dead = {
        path.name: names
        for path in modules
        if (names := unread_imports(path.read_text(encoding="utf-8")))
    }
    assert dead == {}
