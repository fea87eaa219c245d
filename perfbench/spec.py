"""The benchmark's definition, and the format rules its documents obey.

``BENCHMARK.json`` at the root of the checkout is the one definition of
the benchmark's workloads and metrics.  :func:`load` reads it and
refuses it, with a list of what is wrong, when it breaks the benchmark
contract's format (:func:`validate_benchmark`); :func:`validate_result`
checks a run's final JSON line against the metrics it names.  So a
malformed document fails the benchmark itself.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path

__all__ = [
    "BENCHMARK_JSON",
    "REGION_OPS_PER_KSTEP",
    "SpecError",
    "load",
    "units",
    "validate_benchmark",
    "validate_result",
]

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: RunStats region operations per 1000 steps,
#: ``(letregions + finite_regions_created) * 1000 / steps``, of each
#: program of the hot-run workload, as recorded when the split was
#: made (each figure is also in its workload's ``why``).  Every run
#: prints the measured figure beside the recorded one, so a change that
#: moves a program across the split shows.
REGION_OPS_PER_KSTEP = {
    "regions": {"nucleic": 198.82, "mandelbrot": 233.35,
                "barnes_hut": 189.36, "tsp": 140.72, "quicksort": 165.86},
}


class SpecError(Exception):
    """``BENCHMARK.json`` is missing, unreadable or malformed."""

    def __init__(self, problems: list) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


@functools.cache
def load() -> dict:
    """The checked content of ``BENCHMARK.json``."""
    try:
        document = json.loads(BENCHMARK_JSON.read_text())
    except (OSError, ValueError) as exc:
        raise SpecError([f"cannot read {BENCHMARK_JSON.name}: {exc}"]) from exc
    problems = validate_benchmark(document)
    if problems:
        raise SpecError(problems)
    return document


def units(trace: bool) -> dict:
    """Metric name -> unit of the metrics a run reports: the per-layer
    ones when ``trace``, else the end-to-end ones."""
    return {row["name"]: row["unit"]
            for row in load()["per_layer" if trace else "end_to_end"]}


# -- format rules -------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
_PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")
_MAX_BYTES = 64 * 1024


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_rows(doc: dict, key: str, fields: tuple, lo: int, hi: int,
                problems: list) -> list:
    rows = doc.get(key)
    if not isinstance(rows, list) or not lo <= len(rows) <= hi:
        problems.append(f"{key}: need a list of {lo} to {hi} entries")
        return []
    good = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != set(fields):
            problems.append(f"{key}[{i}]: keys must be exactly {fields}")
        else:
            good.append(row)
    return good


def validate_benchmark(doc) -> list:
    """Every way ``doc`` breaks the ``BENCHMARK.json`` format (empty
    when it conforms)."""
    problems: list = []
    if not isinstance(doc, dict):
        return ["BENCHMARK.json must hold a JSON object"]
    expected_keys = {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}
    if set(doc) != expected_keys:
        problems.append(f"keys must be exactly {sorted(expected_keys)}")
    if len(json.dumps(doc, indent=2).encode("utf-8")) > _MAX_BYTES:
        problems.append("document larger than 64 KiB")

    command = doc.get("command")
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(a, str) and len(a) <= 200 for a in command)):
        problems.append("command: 1 to 32 strings of at most 200 characters")
    else:
        for arg in command:
            if arg.startswith("/") or ".." in arg.split("/"):
                problems.append(f"command: {arg!r} leaves the repository")

    paths = doc.get("paths")
    if (not isinstance(paths, list) or not 1 <= len(paths) <= 16
            or not all(isinstance(p, str) and _PATH.match(p) for p in paths)):
        problems.append("paths: 1 to 16 relative paths of [A-Za-z0-9_./-]")
    elif any(p.startswith("/") or ".." in p.split("/") for p in paths):
        problems.append("paths: must stay inside the repository")

    seconds = doc.get("run_seconds")
    if not _is_int(seconds) or not 1 <= seconds <= 60:
        problems.append("run_seconds: a whole number from 1 to 60")

    names: list = []
    for row in _check_rows(doc, "workloads", ("name", "why"), 2, 8, problems):
        names.append(row["name"])
        why = row["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {row['name']!r}: why must be one line"
                            " of 1 to 200 characters")
    end_to_end = _check_rows(doc, "end_to_end",
                             ("name", "unit", "better", "bound"), 1, 16,
                             problems)
    per_layer = _check_rows(doc, "per_layer", ("name", "unit", "better"),
                            1, 128, problems)
    for row in end_to_end + per_layer:
        names.append(row["name"])
        if not isinstance(row["unit"], str) or not _UNIT.match(row["unit"]):
            problems.append(f"metric {row['name']!r}: bad unit {row['unit']!r}")
        if row["better"] not in ("lower", "higher"):
            problems.append(f"metric {row['name']!r}: better must be"
                            " 'lower' or 'higher'")
    for row in end_to_end:
        bound = row["bound"]
        if not _is_number(bound) or not 0 < bound <= 0.25:
            problems.append(f"metric {row['name']!r}: bound must be in (0, 0.25]")
    setup = [row for row in end_to_end if row["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end must hold setup_s in s, better lower")

    for name in names:
        if not isinstance(name, str) or not _NAME.match(name):
            problems.append(f"bad name {name!r}")
    duplicates = sorted({n for n in names if names.count(n) > 1}, key=str)
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")
    return problems


def validate_result(doc, trace: bool) -> list:
    """Every way a run's final JSON object breaks the result format for
    a run with ``--trace`` ``trace`` (empty when it conforms)."""
    if not isinstance(doc, dict):
        return ["result must be a JSON object"]
    problems: list = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys must be exactly correct, attempted, failed,"
                        " metrics")
    if not isinstance(doc.get("correct"), bool):
        problems.append("correct must be true or false")
    attempted, failed = doc.get("attempted"), doc.get("failed")
    if not _is_int(attempted) or attempted < 1:
        problems.append("attempted must be a whole number of at least 1")
    if not _is_int(failed) or failed < 0:
        problems.append("failed must be a whole number of at least 0")
    elif _is_int(attempted) and failed > attempted:
        problems.append("failed exceeds attempted")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    wanted = units(trace)
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        problems.append(f"metrics: missing {missing}, unexpected {extra}")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"metric {name!r}: need exactly value and unit")
        elif not _is_number(entry["value"]):
            problems.append(f"metric {name!r}: value {entry['value']!r} is"
                            " not a finite number")
        elif name in wanted and entry["unit"] != wanted[name]:
            problems.append(f"metric {name!r}: unit {entry['unit']!r},"
                            f" expected {wanted[name]!r}")
    return problems
