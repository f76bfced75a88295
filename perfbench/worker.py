"""Runs one workload in this (fresh, single-threaded) interpreter and prints
its measurements as one JSON line.  Started by run.py; not meant to be run by
hand, but `python3 perfbench/worker.py --workload sweep --seed 0 --seconds 22
--trace 0` works from the repository root with PYTHONPATH=src.

A pass runs every op of the workload once, starting from cold library caches
(the Kostka memo and every lru_cache), as one `ctring` invocation does; the
caches stay warm for the rest of the pass.  As soon as an op ends, outside
its timing, its result is reduced to the sha256 of its canonical text and
dropped.  A run makes a fixed number of timed passes, set by the workload
and --seconds alone (`pass_count`); the first pass's hashes are the
reference that later passes must reproduce op by op.  Every op does the
same work in every pass, so its latency is taken as its best over the
passes: on a machine shared with other tenants the speed of one core drifts
by +-25 % within seconds.  For the same reason the worker follows the
currently fastest CPU (CpuPicker).  The count is fixed because a minimum
over more passes comes out lower, so a count that grew with speed would
exaggerate every gain and every regression.  Peak RSS is read after the timed
passes; one more, untimed, pass then checks every op's result against the
workload's oracles, so that their time and memory stay out of the metrics.
After each timed pass, SETUP_PROBES fresh interpreters are timed up to
ctring and ctring.cli imported (`probe_setup`), so that the set-up samples
span the run as the passes do.
With --trace 1 the reference pass is followed by traced and untraced passes
in the order TRACE_ORDER, then the check pass; the traced passes' counts
must agree.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
EXPECTED_DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"
DEFAULT_SEED = 0
# Seconds one pass of each workload took at the commit that added the
# benchmark (2-vCPU VM, Python 3.11).  They turn --seconds into a pass count
# and must not be re-measured: the count has to stay the same on every commit.
PASS_SECONDS = {"basis": 3.7, "sweep": 2.6, "conjectures": 2.0}
MIN_PASSES = 3
SETUP_PROBES = 3
IMPORT_PROBE = "import time, ctring, ctring.cli; print(repr(time.perf_counter()))"
REPIN_EVERY_S = 0.5
CPU_PROBE_S = 0.02
# T traced, U untraced: a linear drift in machine speed hits both alike
TRACE_ORDER = "TUUT"


def pass_count(workload, seconds):
    """Timed passes in an untraced run: fixed by the workload and --seconds,
    never by how fast the passes go."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def clear_caches():
    """Empty every memo the library keeps between calls: lru_caches, and
    module-level dicts whose name says they are caches."""
    for name, module in list(sys.modules.items()):
        if name != "ctring" and not name.startswith("ctring."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif isinstance(value, dict) and "CACHE" in attr.upper():
                value.clear()
    gc.collect()


class CpuPicker:
    """Keeps this process on the CPU where a fixed probe loop currently runs
    fastest, re-checked at most every REPIN_EVERY_S when asked.

    On a VM shared with other tenants each vCPU is slowed by neighbours
    independently: probing both vCPUs of a 2-vCPU VM every 0.5 s, one often
    ran at ~950 probe loops/s while the other ran at ~1450, and either one
    stayed slow for a minute or more.  Following the fast one keeps those
    stretches out of the measurement.  Processes started while pinned
    inherit the pinning."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.last = float("-inf")

    def maybe_repin(self):
        if len(self.cpus) < 2 or time.perf_counter() - self.last < REPIN_EVERY_S:
            return
        os.sched_setaffinity(0, {max(self.cpus, key=self._speed)})
        self.last = time.perf_counter()

    @staticmethod
    def _speed(cpu):
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        loops = 0
        while time.perf_counter() - t0 < CPU_PROBE_S:
            table = {}
            for i in range(200):
                table[i, i + 1] = table.get((i, i + 1), 0) + i * 3 // 7
            loops += 1
        return loops / (time.perf_counter() - t0)


def probe_setup(cpu):
    """SETUP_PROBES times from starting an interpreter to ctring and
    ctring.cli imported, each on the currently fastest CPU.  The child reads
    the same monotonic clock as this process (CLOCK_MONOTONIC on Linux), so
    the difference spans interpreter start-up.  The child inherits this
    process's environment, which run.py made hermetic."""
    samples = []
    for _ in range(SETUP_PROBES):
        cpu.maybe_repin()
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(out.stdout) - t0)
    return samples


def settle(op, result, check):
    """(outcome, text) of an op that returned `result`: the outcome is the
    sha256 of its canonical text, or why the op failed (an exception, or
    with `check` a failed check)."""
    from workloads import canonical

    try:
        text = canonical(result)
        if check and not op.check(result):
            return "wrong result", text
    except Exception:
        return traceback.format_exc(limit=3), ""
    return hashlib.sha256(text.encode()).digest(), text


def run_pass(ops, tracer=None, cpu=None, check=False):
    """Run every op once from cold library caches.  Returns the latencies,
    each op's outcome (see `settle`; a raising op yields its traceback and
    the pass goes on) and the digest of every op's name and output text."""
    clear_caches()
    latencies = []
    outcomes = []
    digest = hashlib.sha256()
    for op in ops:
        if cpu is not None:
            cpu.maybe_repin()
        idx = tracer.open(tracer.OP_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            result = op.run()
            raised = None
        except Exception:
            raised = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(idx)
            tracer.end_op()
        outcome, text = (raised, "") if raised else settle(op, result, check)
        result = None
        outcomes.append(outcome)
        digest.update(op.name.encode())
        digest.update(b"\0")
        digest.update(text.encode())
        digest.update(b"\n")
    return latencies, outcomes, digest.hexdigest()


def count_failed(ops, outcomes, reference, errors):
    """Ops that failed, or whose output hash differs from the reference
    pass's; an op that failed there fails again.  The first few failures are
    described in `errors`."""
    failed = 0
    for op, got, want in zip(ops, outcomes, reference):
        if isinstance(got, str):
            problem = got
        elif got != want:
            problem = "output differs from the first pass"
        else:
            continue
        failed += 1
        if len(errors) < 5:
            errors.append(f"{op.name}: {problem}")
    return failed


def commit_id():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ctring").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure(workload, seed, seconds, trace):
    """Run the passes of one workload; returns the result record."""
    from workloads import build

    ops = build(workload, seed)
    cpu = CpuPicker()
    errors = []
    latencies, reference, out_digest = run_pass(ops, cpu=cpu)
    failed = count_failed(ops, reference, reference, errors)
    out = {"errors": errors, "ops_per_pass": len(ops), "digest": out_digest}
    walls = [sum(latencies)]
    if trace:
        out["metrics"], bad, traced_walls = traced_passes(workload, ops, reference, cpu, errors)
        failed += bad
        walls += traced_walls
    else:
        runs = [latencies]
        setups = probe_setup(cpu)
        for _ in range(pass_count(workload, seconds) - 1):
            latencies, outcomes, _ = run_pass(ops, cpu=cpu)
            failed += count_failed(ops, outcomes, reference, errors)
            runs.append(latencies)
            walls.append(sum(latencies))
            setups += probe_setup(cpu)
        best = [min(lat) for lat in zip(*runs)]
        out["metrics"] = {
            "wall_s": sum(best),
            "op_p50_ms": 1000 * statistics.median(best),
            "op_p90_ms": 1000 * statistics.quantiles(best, n=10, method="inclusive")[-1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            # the fastest start, as the op latencies are their fastest runs
            "setup_s": min(setups),
        }
    _, outcomes, _ = run_pass(ops, check=True)
    failed += count_failed(ops, outcomes, reference, errors)
    passes = len(walls) + 1  # and the check pass
    out.update(pass_walls=walls, passes=passes, attempted=passes * len(ops), failed=failed)
    return out


def traced_passes(workload, ops, reference, cpu, errors):
    """Traced and untraced passes in the order TRACE_ORDER; the tracer is
    installed only during traced ones, and the tracing overhead is the
    difference of their sums of per-op best latencies.  Returns the
    per-layer metrics, the failed-op count and the pass times."""
    from tracer import Tracer

    from ctring.partitions import kostka_cache_snapshot

    tracer = Tracer()
    traced, plain, selfs, counts, walls = [], [], [], [], []
    failed = 0
    for kind in TRACE_ORDER:
        if kind == "T":
            tracer.reset()
            tracer.install()
            tracer.enabled = True
            try:
                latencies, outcomes, _ = run_pass(ops, tracer, cpu)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            pass_counts = tracer.layer_counts()
            pass_counts["partitions.kostka_cache_entries"] = len(kostka_cache_snapshot())
            counts.append(pass_counts)
            selfs.append(tracer.self_times())
            traced.append(latencies)
        else:
            latencies, outcomes, _ = run_pass(ops, cpu=cpu)
            plain.append(latencies)
        failed += count_failed(ops, outcomes, reference, errors)
        walls.append(sum(latencies))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}.jsonl")
    if any(c != counts[0] for c in counts):
        # a deterministic op list must make the same calls on every pass
        failed += 1
        errors.append("traced passes of one seed gave different counts")
    metrics = dict(counts[0])
    for name in {n for s in selfs for n in s}:
        metrics[f"{name}.self_s"] = statistics.median(s.get(name, 0.0) for s in selfs)
    metrics["trace.wall_s"] = statistics.median(sum(lat) for lat in traced)
    metrics["trace.overhead_s"] = sum(map(min, zip(*traced))) - sum(map(min, zip(*plain)))
    return metrics, failed, walls


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if "CTRING_CACHE_DIR" in os.environ:
        # a persisted Kostka cache would skip the work being measured
        print("CTRING_CACHE_DIR must not be set", file=sys.stderr)
        return 2
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "commit": commit_id(),
        "source_sha256": source_digest(),
    }
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    expected = json.loads(EXPECTED_DIGESTS.read_text()).get(args.workload)
    out["digest_checked"] = args.seed == DEFAULT_SEED
    out["digest_ok"] = not out["digest_checked"] or out["digest"] == expected
    out["meta"] = meta
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
