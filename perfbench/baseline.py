"""Run the benchmark over ten seeds and record the figures.

    python3 perfbench/baseline.py --label seed

For every workload in BENCHMARK.json, runs `perfbench/run.py --trace 0`
once for each of the seeds 1 to 10, then one `--trace 1` run with seed 1,
and prints each end-to-end metric's median and spread (the distance between
the first and third quartiles as a share of the median) next to the
metric's bound. Writes everything, with the machine facts, to
perfbench/BENCH_<label>.json. Exits 1 if a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    machine = next((ln[len("machine: "):] for ln in lines if ln.startswith("machine: ")), "{}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: not correct\n{proc.stderr}",
              file=sys.stderr)
    return result, machine


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="write perfbench/BENCH_<label>.json")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record: dict[str, object] = {"run_seconds": bench["run_seconds"], "seeds": SEEDS,
                                 "workloads": {}}
    all_correct = True
    for workload in bench["workloads"]:
        name = workload["name"]
        runs = []
        for seed in SEEDS:
            result, machine = run_once(name, seed, bench["run_seconds"], 0)
            record["machine"] = json.loads(machine)
            runs.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = s = {**spread(values), "bound": bound, "values": values}
            print(f"  {metric}: median {s['median']:.6g}, spread {s['spread']:.4f} "
                  f"(bound {bound})")
        traced, _machine = run_once(name, SEEDS[0], bench["run_seconds"], 1)
        entry = {"end_to_end": summary,
                 "correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                 "per_layer_correct": traced["correct"]}
        all_correct &= entry["correct"] and traced["correct"]
        record["workloads"][name] = entry
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
