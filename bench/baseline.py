"""Run every workload on several seeds and summarise each metric's spread.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json [--trace-seeds 1-3]

Each run is a separate `bench/run.py` process, one after another. For each
workload and metric the summary holds the values, their median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summarise(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seeds", type=seed_range, default=[])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    report: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        entry = {}
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            if not seeds:
                continue
            results = []
            for seed in seeds:
                result, report["env"] = run_once(name, seed, spec["run_seconds"], trace)
                if not result["correct"]:
                    print(f"{name} seed {seed}: {result['failed']} failed", file=sys.stderr)
                results.append(result)
            entry["per_layer" if trace else "end_to_end"] = {
                "seeds": seeds,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": summarise(results),
            }
            for metric, s in entry["per_layer" if trace else "end_to_end"]["metrics"].items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(
                    f"{name:13s} {metric:30s} median {s['median']:<14.6g} {s['unit']:6s} "
                    f"spread {spread}",
                    flush=True,
                )
        report["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
