"""Run a workload under seeds 1 to ``--runs`` and report each
end-to-end metric's median and spread (interquartile distance over
median), next to a third of its bound, the figure a steady benchmark
stays under.

    python3 perfbench/spread.py --workload regions --runs 10

Runs are sequential, so they do not compete for the machine's cores,
and each measures for the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

import spec  # noqa: E402
from measure import median, spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    benchmark = spec.load()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    results, took = [], []
    for seed in range(1, args.runs + 1):
        start = time.perf_counter()
        results.append(run_once(args.workload, seed, benchmark["run_seconds"]))
        took.append(time.perf_counter() - start)
        if not results[-1]["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
    steady = True
    print(f"{args.workload}: {args.runs} runs, {median(took):.1f} s each"
          f" (max {max(took):.1f} s)")
    for row in benchmark["end_to_end"]:
        name, bound = row["name"], row["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        s = spread(values)
        steady &= s < bound / 3
        print(f"{name:22s} median {median(values):12.6g} {row['unit']:4s}"
              f" spread {s:7.4f}  bound/3 {bound / 3:.4f}"
              f"{'' if s < bound / 3 else '  TOO WIDE'}")
    return 0 if steady and all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
