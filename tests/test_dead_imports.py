"""Static checks: no module of the library keeps an import it never reads,
such as the leftovers of a folded function, and no oracle of the tests
outlives its last caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ctring"


SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _own_imports(scope):
    """The import statements that bind names in `scope`: those in its body,
    not in the body of a function nested in it."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            yield from _own_imports(node)


def unread_imports(source: str) -> list:
    """The names bound by the imports of `source`, at module level or inside
    a function, that no expression of their scope reads (a module-level
    name may be read anywhere in the module, a function-local one only in
    its function)."""
    dead = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, SCOPES):
            continue
        read = {
            node.id
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in _own_imports(scope):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    dead.append(name)
    return dead


def test_unread_imports_are_found():
    assert unread_imports("from math import factorial, prod\nimport os\nprod([])\n") == [
        "factorial",
        "os",
    ]
    assert unread_imports("import os.path\nos.path.join('a')\n") == []


def test_unread_function_local_imports_are_found():
    source = (
        "def f():\n"
        "    from math import factorial, prod\n"
        "    if True:\n"
        "        import os\n"
        "    return prod([])\n"
        "def g():\n"
        "    return factorial(3)\n"
    )
    assert unread_imports(source) == ["factorial", "os"]
    assert unread_imports("def f():\n    import os.path\n    return os.path.sep\n") == []


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
