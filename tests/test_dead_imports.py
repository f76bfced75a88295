"""Static checks: no module of the library keeps an import it never reads,
such as the leftovers of a folded function, and no oracle of the tests
outlives its last caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ctring"


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


def _names(tree) -> set:
    """Every name that `tree` reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def uncalled_functions(module: str, others) -> list:
    """The top-level functions of `module` that nothing names outside their
    own definition: neither the rest of `module` nor any source in `others`."""
    tree = ast.parse(module)
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    named = set().union(*(_names(ast.parse(source)) for source in others))
    for node in tree.body:
        own = {node.name} if isinstance(node, ast.FunctionDef) else set()
        named |= _names(node) - own
    return [node.name for node in functions if node.name not in named]


def test_uncalled_functions_are_found():
    module = "def a():\n    return a()\ndef b():\n    return c\ndef c():\n    pass\n"
    assert uncalled_functions(module, []) == ["a", "b"]
    assert uncalled_functions(module, ["from m import a, b"]) == []
    assert uncalled_functions(module, ["m.a(b)"]) == []


def test_every_oracle_has_a_caller():
    oracles = ROOT / "tests" / "oracles.py"
    others = [
        path.read_text(encoding="utf-8")
        for path in sorted({*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/**/*.py")})
        if path != oracles
    ]
    assert others
    assert uncalled_functions(oracles.read_text(encoding="utf-8"), others) == []
