"""The library surface that the benchmark in perfbench/ reads.

perfbench/ imports library names and rebinds the functions named in
`tracer.TARGETS`; a library change that deletes or renames one of them
breaks the benchmark, not the library's own tests, and so does a change of
a signature its workloads call or of an output they digest, or one that
leaves a traced layer uncalled.  These tests load the benchmark's modules
from their files and change nothing in them.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["basis", "sweep", "conjectures"])
def test_seed_zero_pass_matches_expected_digest(name, monkeypatch):
    # one checked pass, as the benchmark's worker runs it: every op returns
    # and passes its oracle, and the outputs hash to the recorded digest
    monkeypatch.setattr(sys, "path", list(sys.path))  # workloads appends to it
    workloads = _load("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # worker imports it
    worker = _load("worker")
    ops = workloads.build(name, worker.DEFAULT_SEED)
    _, outcomes, digest = worker.run_pass(ops, check=True)
    failed = [(op.name, o) for op, o in zip(ops, outcomes) if not isinstance(o, bytes)]
    assert failed == []
    assert digest == json.loads(worker.EXPECTED_DIGESTS.read_text())[name]


def test_benchmark_suite_passes():
    # the benchmark's own tests, which pin the traced layers the workloads
    # reach; test_rebinding_reaches_every_copied_name is deselected because it
    # names bindings the library dropped, and it fails in its own suite until
    # the benchmark is repaired
    root = PERFBENCH.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    known = "test_perfbench.py::test_rebinding_reaches_every_copied_name"
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"]
    result = subprocess.run(
        [sys.executable, *argv, "--deselect", f"perfbench/tests/{known}"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
