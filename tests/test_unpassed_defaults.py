"""Static check: every defaulted parameter of a library function is passed,
by position or by keyword, by some call in the library, the tests or the
benchmark.  A default that no call overrides is a knob nothing turns, such
as the leftover of a caller that went away."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ctring"


def defaulted_parameters(source: str) -> list:
    """(callee name, parameter, position or None) for each defaulted
    parameter of each function of `source`.  The callee of a method is its
    name, and of __init__ its class's name; a method's position does not
    count its self or cls.  A keyword-only parameter has no position."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list
                )
                name = owner.name if bound and child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    out.append((name, arg.arg, i - bound))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, arg.arg, None))
                visit(child, None)
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return out


def passed(sources) -> dict:
    """callee name -> (most positional arguments of a call, keywords
    passed) over every call in `sources`; a starred argument counts as every
    position and a double-starred one as every keyword."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            most, keywords = calls.setdefault(name, (0, set()))
            count = len(node.args)
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                count = float("inf")
            keywords |= {kw.arg for kw in node.keywords}  # None: a ** argument
            calls[name] = (max(most, count), keywords)
    return calls


def unpassed_defaults(modules, sources) -> list:
    """The defaulted parameters of the functions in `modules` that no call
    in `sources` passes, as (callee name, parameter)."""
    calls = passed(sources)
    out = []
    for module in modules:
        for name, param, position in defaulted_parameters(module):
            most, keywords = calls.get(name, (0, set()))
            if param in keywords or None in keywords:
                continue
            if position is not None and most > position:
                continue
            out.append((name, param))
    return out


def test_unpassed_defaults_are_found():
    module = (
        "def f(a, b=1, *, c=2):\n"
        "    pass\n"
        "class K:\n"
        "    def __init__(self, x, y=0):\n"
        "        pass\n"
        "    def m(self, z=None):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(w=1):\n"
        "        pass\n"
    )
    every = [("f", "b"), ("f", "c"), ("K", "y"), ("m", "z"), ("s", "w")]
    assert unpassed_defaults([module], []) == every
    calls = "f(1, 2)\nf(1, c=3)\nK(1, 2)\nobj.m(1)\nK.s(3)\n"
    assert unpassed_defaults([module], [calls]) == []
    # a starred argument reaches every position but no keyword-only parameter
    loose = "f(1)\nK(1)\nobj.m()\nf(*args)\nK(**opts)\n"
    assert unpassed_defaults([module], [loose]) == [("f", "c"), ("m", "z"), ("s", "w")]


def test_every_default_is_passed_somewhere():
    modules = [path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))]
    sources = [
        path.read_text(encoding="utf-8")
        for pattern in ("src/**/*.py", "tests/*.py", "perfbench/**/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    assert modules and sources
    assert unpassed_defaults(modules, sources) == []
