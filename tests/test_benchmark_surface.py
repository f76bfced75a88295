"""The library surface that the benchmark in perfbench/ reads.

perfbench/ imports library names and rebinds the functions named in
`tracer.TARGETS`; a library change that deletes or renames one of them
breaks the benchmark, not the library's own tests.  These tests load the
benchmark's modules from their files and change nothing in them.
"""

import importlib
import importlib.util
import inspect
from functools import reduce
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_imports_resolve():
    assert callable(_load("workloads").build)


def test_tracer_targets_resolve():
    tracer = _load("tracer")
    for span, (modname, paths) in tracer.TARGETS.items():
        module = importlib.import_module(modname)
        if paths is None:  # every public function of the module
            assert any(inspect.isfunction(v) for v in vars(module).values()), span
        for path in paths or ():
            assert callable(reduce(getattr, path.split("."), module)), (span, path)
