"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload regions --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see ``perfbench/README.md``), one per line with its
unit, and then, as the last line, one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

``BENCHMARK.json`` at the root of the checkout defines the workloads
and metrics; a run refuses a file that breaks the contract's format,
and checks its own result line against it before printing it.
The process exits 0 when it printed a result, and with another code
when it could not measure (no ``src/``, a malformed document).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent


def format_line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"{name:34s} {shown:>14s} {unit:8s} {note}".rstrip()


def main(argv=None) -> int:
    try:
        benchmark = spec.load()
    except spec.SpecError as exc:
        for problem in exc.problems:
            print(f"spec: {problem}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports the program: fails without src/

    ledger = workloads.Ledger()
    workload = workloads.make_workload(args.workload, args.seed, args.seconds,
                                       ledger)
    result = workload.per_layer() if args.trace else workload.end_to_end()

    units = spec.units(bool(args.trace))
    print(f"# workload {args.workload}, seed {args.seed},"
          f" {'traced' if args.trace else 'untraced'}")
    for line in result.info:
        print(f"# {line}")
    for name, unit in units.items():
        value = result.metrics.get(name)
        if value is not None:
            print(format_line(name, value, unit, result.notes.get(name, "")))
    error_rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(format_line("error_rate", error_rate, "ratio",
                      f"{ledger.failed} of {ledger.attempted} checks failed"))
    for problem in ledger.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)

    document = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": result.metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    problems = spec.validate_result(document, bool(args.trace))
    if problems:
        for problem in problems:
            print(f"result: {problem}", file=sys.stderr)
        return 3
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
