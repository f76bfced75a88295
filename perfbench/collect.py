"""Run the benchmark over ten seeds and summarise each metric.

    python3 perfbench/collect.py --label 04a79a4 \
        --out perfbench/baseline/BENCH_04a79a4.json

For every workload of BENCHMARK.json, runs `run.py --trace 0` once per seed
(seeds 0..9, one run at a time, for the run_seconds of BENCHMARK.json), then
`run.py --trace 1` once with seed 0.  Reports each
end-to-end metric's median, quartiles and spread (interquartile distance over
the median, as `statistics.quantiles(values, n=4)` gives the quartiles) next
to a third of its bound in BENCHMARK.json, the target the spread should stay
under.  Writes the summary as JSON to --out when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="multi-seed benchmark summary")
    parser.add_argument("--label")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        runs = []
        for seed in range(SEEDS):
            info, result = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "passes": info["passes"], "digest_ok": info["digest_ok"]})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(workload, seed, result["correct"], info["passes"],
                  {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        entry = {"meta": info["meta"], "runs": runs, "end_to_end": {}}
        for name, vals in values.items():
            stats = summarise(vals)
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            print(f"  {name}: median {stats['median']:.4f} spread {stats['spread']:.4f}"
                  f" (target < {bounds[name] / 3:.4f})", flush=True)
        info, result = run(workload, 0, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        entry["per_layer_correct"] = result["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
