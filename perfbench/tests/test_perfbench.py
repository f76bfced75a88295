"""Fast tests of the benchmark itself: `python3 -m pytest perfbench/tests`."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import tracer as tracer_mod
import worker
import workloads
from tracer import TARGETS, Tracer, self_times

import ctring.cli
import ctring.series
import ctring.tables
from ctring.partitions import partitions, weak_compositions_upto

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_deterministic_per_seed_and_differs_across_seeds(name):
    first = [op.name for op in workloads.build(name, 3)]
    again = [op.name for op in workloads.build(name, 3)]
    other = [op.name for op in workloads.build(name, 4)]
    assert first == again
    assert first != other
    assert len(first) >= 100


def _bound_anywhere(obj):
    """(namespace, attribute) pairs, across every loaded module and ctring
    class, still bound to `obj`."""
    return [
        (getattr(ns, "__name__", ns), attr)
        for ns in tracer_mod._namespaces()
        for attr, value in list(vars(ns).items())
        if value is obj
    ]


def test_rebinding_reaches_every_copied_name():
    originals = [
        ("kostka", ctring.series.kostka),
        ("partitions", ctring.cli.partitions),
        ("hilbert_kostka", workloads.hilbert_kostka),
        ("contingency_tables", ctring.tables.contingency_tables),
    ]
    # the copies exist before tracing: the case a single patch would miss
    assert ctring.series.kostka is ctring.tables.kostka
    t = Tracer()
    t.install()
    try:
        for _, fn in originals:
            assert _bound_anywhere(fn) == []
        assert ctring.series.kostka.__wrapped__ is originals[0][1]
        assert workloads.hilbert_kostka.__wrapped__ is originals[2][1]
        t.enabled = True
        ctring.series.hilbert_kostka((2, 1), (1, 1, 1))
        t.enabled = False
        names = [t.names[n] for n in t.span_name]
        parents = list(t.span_parent)
        assert names[0] == "series.hilbert_kostka"
        assert "partitions.kostka" in names
        assert all(p == 0 for n, p in zip(names, parents) if n == "partitions.kostka")
        assert t.counts["partitions.partitions.calls"] == 1  # recursion folded
    finally:
        t.uninstall()
    for attr, fn in originals:
        assert _bound_anywhere(fn)
    assert ctring.series.kostka is originals[0][1]


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]; a second a [20, 21]
    names = ["a", "b", "c", "d", "a"]
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0]
    ends = [10.0, 4.0, 9.0, 7.0, 21.0]
    assert self_times(names, parents, starts, ends) == {
        "a": 10 - 3 - 4 + 1,
        "b": 3,
        "c": 3,
        "d": 1,
    }


def test_injected_wrong_result_counts_as_failed_op():
    def boom():
        raise ValueError("injected")

    ops = [
        workloads.Op("right", lambda: [1, 2], lambda r: r == [1, 2]),
        workloads.Op("wrong", lambda: [1, 3], lambda r: r == [1, 2]),
        workloads.Op("raises", boom, lambda r: True),
        workloads.Op("bad check", lambda: 1, lambda r: r["missing"]),
    ]
    errors = []
    latencies, reference, _ = worker.run_pass(ops, check=True)
    assert worker.count_failed(ops, reference, reference, errors) == 3
    assert len(latencies) == 4
    assert [e.split(":")[0] for e in errors] == ["wrong", "raises", "bad check"]
    # a later pass is judged against the first pass's outputs
    ops[0].run = lambda: [2, 1]
    _, outcomes, _ = worker.run_pass(ops)
    assert worker.count_failed(ops, outcomes, reference, []) == 4
    ops[0].run = lambda: [1, 2]
    _, outcomes, _ = worker.run_pass(ops)
    assert worker.count_failed(ops, outcomes, reference, []) == 3


def test_pass_count_depends_on_workload_and_seconds_only():
    assert [worker.pass_count(w, 22) for w in ("basis", "sweep", "conjectures")] == [6, 8, 11]
    assert worker.pass_count("sweep", 1) == worker.MIN_PASSES
    assert set(worker.PASS_SECONDS) == set(workloads.WORKLOADS)


def test_two_traced_passes_of_one_seed_give_identical_counts():
    rng = random.Random(5)
    comps = weak_compositions_upto(3, 3)
    ops = [workloads._sweep_op(a, b, rng) for a in comps for b in comps]
    ops += [workloads._one_row_op(bounds) for bounds in [(1, 2), (2, 1, 1)]]
    ops += [workloads._dominance_op(mu, nu) for mu in partitions(4) for nu in partitions(4)]
    ops += [workloads._log_concavity_op(mu, nu) for mu in partitions(6) for nu in partitions(6)]
    t = Tracer()
    t.install()
    counts = []
    try:
        for _ in range(2):
            t.reset()
            t.enabled = True
            worker.run_pass(ops, t)
            t.enabled = False
            counts.append(t.layer_counts())
    finally:
        t.uninstall()
    assert counts[0] == counts[1]
    for layer in ("quotient.QuotientModel", "symfunc.tensor_multiplicities", "onerow", "partitions.kostka"):
        assert counts[0][f"{layer}.calls"] > 0


def test_every_target_resolves():
    t = Tracer()
    t.install()
    try:
        for ns, attr, orig in t._saved:
            assert getattr(ns, attr).__wrapped__ is orig
        originals = {id(orig) for _, _, orig in t._saved}
    finally:
        t.uninstall()
    listed = sum(len(paths) for _, paths in TARGETS.values() if paths)
    assert len(originals) > listed  # every listed target, plus onerow's functions


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basis", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_tracer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    for span in TARGETS:
        assert f"{span}.self_s" in layer_names
        assert f"{span}.calls" in layer_names
