"""The ctring benchmark.  From the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 22 --trace 0

Runs the workload in a fresh interpreter (worker.py) with CTRING_CACHE_DIR
removed from its environment, and waits for it; the worker also times the
set-up of fresh interpreters importing ctring and ctring.cli.  Prints a
line of run metadata, then, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Exits 2 when the checkout holds no ctring sources, 1 when the worker fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 170


def hermetic_env():
    env = {k: v for k, v in os.environ.items() if k != "CTRING_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    return env


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="ctring benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ctring" / "__init__.py").is_file():
        print(f"no ctring sources under {SRC}", file=sys.stderr)
        return 2

    env = hermetic_env()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("worker printed no result", file=sys.stderr)
        return 1
    record = json.loads(lines[-1])

    measured = record["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    failed = record["failed"]
    correct = failed == 0 and record["digest_ok"]
    for line in record["errors"]:
        print(line, file=sys.stderr)
    keys = ("meta", "passes", "pass_walls", "ops_per_pass", "digest", "digest_checked", "digest_ok")
    info = {k: record[k] for k in keys}
    info["error_rate"] = failed / record["attempted"]
    print(json.dumps({"run": info}, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": record["attempted"], "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
