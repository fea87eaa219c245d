"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
from measure import geomean, median, percentile, spread, tail  # noqa: E402


# -- measure -------------------------------------------------------------------


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert geomean([7.5]) == pytest.approx(7.5)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_percentile_interpolates_between_ranks():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert median([4, 1, 3, 2]) == 2.5
    assert percentile(list(range(1, 12)), 90) == 10
    assert percentile([5], 90) == 5
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_tail_needs_ten_samples_beyond():
    hundred = [float(i) for i in range(1, 101)]
    p90 = tail(hundred, 90)
    assert p90.value == pytest.approx(90.1)
    assert (p90.beyond, p90.samples, p90.supported) == (10, 100, True)
    short = tail(hundred[:90], 90)
    assert short.beyond == 9 and not short.supported
    # Ties at the percentile are not beyond it.
    flat = tail([1.0] * 50 + [2.0] * 50, 90)
    assert flat.value == 2.0 and flat.beyond == 0 and not flat.supported


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 11.1, 9.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


# -- calibration ---------------------------------------------------------------


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_meter_scales_by_the_kernel_times_around_an_operation(monkeypatch):
    meter = calibrate.Meter()
    times = iter([0.004, 0.006, 0.010])
    monkeypatch.setattr(meter, "_kernel_seconds", lambda count: next(times))
    meter.start()
    assert meter.factor() == pytest.approx(0.005 / 0.005)
    assert meter.factor() == pytest.approx(0.005 / 0.008)


def test_meter_times_operations_by_thread_cpu_time():
    meter = calibrate.Meter()
    _, seconds = meter.time(time.sleep, 0.2)
    assert seconds < 0.05


def test_meter_probes_during_an_operation_and_leaves_the_probes_out():
    meter = calibrate.Meter(op_clock=calibrate.clock)
    previous = signal.getsignal(signal.SIGALRM)
    with meter.probing():
        meter.start()
        spin(0.35)
        window = list(meter.window)
        factor = meter.factor()
        after = meter.window[0]
        meter.factor = lambda count=1: 1.0
        probed = meter.probed
        _, seconds = meter.time(spin, 0.35)
        probed = meter.probed - probed
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(window) >= 3
    assert factor == pytest.approx(calibrate.REFERENCE_SECONDS
                                   * (len(window) + 1) / (sum(window) + after))
    assert probed > 0
    assert seconds == pytest.approx(0.35 - probed, abs=0.002)


# -- frame-to-layer classifier -------------------------------------------------


SRC = "/x/src/repro"


@pytest.mark.parametrize("filename, qualname, layer", [
    (f"{SRC}/runtime/gc.py", "Collector._trace", "gc"),
    (f"{SRC}/runtime/heap.py", "Heap.repack_region", "gc"),
    (f"{SRC}/runtime/heap.py", "Heap.new_region", "region"),
    (f"{SRC}/runtime/heap.py", "Heap.dealloc_region", "region"),
    (f"{SRC}/runtime/heap.py", "Region.__init__", "region"),
    (f"{SRC}/runtime/heap.py", "Heap.alloc", "alloc"),
    (f"{SRC}/runtime/heap.py", "Page.__init__", "alloc"),
    (f"{SRC}/runtime/compile.py", "_dealloc_fast", "region"),
    (f"{SRC}/runtime/compile.py", "_alloc", "alloc"),
    (f"{SRC}/runtime/compile.py", "_prim_kernel.<locals>.k", "mutator"),
    (f"{SRC}/core/effects.py", "RegionVar.__hash__", "region"),
    (f"{SRC}/core/effects.py", "EffectVar.__hash__", None),
    (f"{SRC}/runtime/values.py", "RPair.__init__", "alloc"),
    (f"{SRC}/runtime/values.py", "structural_eq", "mutator"),
    (f"{SRC}/runtime/stats.py", "RunStats.note_current", "alloc"),
    (f"{SRC}/runtime/bytecode/vm.py", "_execute", "mutator"),
    (f"{SRC}/runtime/interp.py", "Interp.ev", "mutator"),
    ("<bytecode kernel 7>", "_kernel_7", "mutator"),
    (f"{SRC}/runtime/bytecode/specialize.py", "specialize_body", None),
    (f"{SRC}/pipeline.py", "compile_program", None),
    ("/x/perfbench/workloads.py", "RegionsWorkload.measure", None),
])
def test_classify_code(filename, qualname, layer):
    assert layers.classify_code(filename, qualname) == layer


def fake_stack(*frames):
    """A chain of frame-like objects, innermost first."""
    frame = None
    for filename, qualname in reversed(frames):
        frame = SimpleNamespace(
            f_code=SimpleNamespace(co_filename=filename, co_qualname=qualname),
            f_back=frame)
    return frame


def test_classify_stack_precedence():
    vm = (f"{SRC}/runtime/bytecode/vm.py", "_execute")
    alloc = (f"{SRC}/runtime/compile.py", "_alloc")
    bench = ("/x/perfbench/workloads.py", "one_pass")
    # A collection started by an allocation is gc, even inside a value
    # helper the collector calls.
    assert layers.classify_stack(fake_stack(
        (f"{SRC}/runtime/values.py", "RPair.words"),
        (f"{SRC}/runtime/gc.py", "Collector._trace"), alloc, vm, bench)) == "gc"
    # A RegionVar hash inside _alloc is region time.
    assert layers.classify_stack(fake_stack(
        (f"{SRC}/core/effects.py", "RegionVar.__hash__"), alloc, vm)) == "region"
    assert layers.classify_stack(fake_stack(
        (f"{SRC}/runtime/heap.py", "Heap._grow"), alloc, vm)) == "alloc"
    assert layers.classify_stack(fake_stack(vm, bench)) == "mutator"
    assert layers.classify_stack(fake_stack(bench)) == "other"
    assert layers.classify_stack(None) == "other"


def test_sampler_files_samples_under_the_running_layer():
    namespace: dict = {}
    exec(compile("def spin(until, clock):\n"
                 "    while clock() < until:\n"
                 "        pass\n", "<bytecode kernel 1>", "exec"), namespace)
    sampler = layers.StackSampler()
    with sampler.sampling():
        namespace["spin"](time.perf_counter() + 0.3, time.perf_counter)
    assert sampler.counts["mutator"] > 0
    assert sampler.shares()["mutator"] > 0.5
    assert not any(t.name == "perfbench-sampler" for t in threading.enumerate())


def test_stage_timers_wrap_and_restore(monkeypatch):
    module = types.ModuleType("perfbench_fake_stage")

    def parse(x):
        time.sleep(0.01)
        return x + 1

    class Collector:
        def collect_kind(self, kind):
            return kind

    module.parse = parse
    module.Collector = Collector
    monkeypatch.setitem(sys.modules, module.__name__, module)
    table = {"a": ((module.__name__, "parse"),),
             "b": ((module.__name__, "Collector.collect_kind"),)}
    timers = layers.StageTimers(table)
    with timers:
        assert module.parse is not parse
        assert module.parse(1) == 2 and module.parse(2) == 3
        assert Collector().collect_kind("major") == "major"
    assert module.parse is parse
    assert Collector.__dict__["collect_kind"].__name__ == "collect_kind"
    assert timers.calls == {"a": 2, "b": 1}
    assert timers.seconds["a"] >= 0.02


# -- the contract's formats ----------------------------------------------------


def test_committed_benchmark_conforms():
    document = spec.load()
    assert spec.validate_benchmark(document) == []
    names = [w["name"] for w in document["workloads"]]
    assert names == ["regions", "compile", "serve"]


def test_load_refuses_a_malformed_file(tmp_path, monkeypatch):
    bad = copy.deepcopy(spec.load())
    bad["run_seconds"] = 0
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(spec, "BENCHMARK_JSON", path)
    spec.load.cache_clear()
    try:
        with pytest.raises(spec.SpecError, match="run_seconds"):
            spec.load()
        path.write_text("{")
        with pytest.raises(spec.SpecError, match="cannot read"):
            spec.load()
    finally:
        spec.load.cache_clear()


def test_every_recorded_ratio_is_in_its_why():
    whys = {w["name"]: w["why"] for w in spec.load()["workloads"]}
    for workload, ratios in spec.REGION_OPS_PER_KSTEP.items():
        for program, ratio in ratios.items():
            assert f"{program} {ratio:g}" in whys[workload]


@pytest.mark.parametrize("mutate, expected", [
    (lambda d: d["end_to_end"][0].update(bound=0.3), "bound"),
    (lambda d: d["per_layer"].append(dict(d["per_layer"][0])), "more than once"),
    (lambda d: d["workloads"][0].update(why="two\nlines"), "one line"),
    (lambda d: d["end_to_end"].pop(7), "setup_s"),
    (lambda d: d.update(extra=1), "keys"),
    (lambda d: d.update(run_seconds=61), "run_seconds"),
    (lambda d: d.update(paths=["../out"]), "paths"),
    (lambda d: d["per_layer"][0].update(unit="milli seconds"), "unit"),
])
def test_validate_benchmark_rejects(mutate, expected):
    document = copy.deepcopy(spec.load())
    mutate(document)
    problems = spec.validate_benchmark(document)
    assert any(expected in p for p in problems), problems


def good_result(trace: bool) -> dict:
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": unit}
                        for name, unit in spec.units(trace).items()}}


@pytest.mark.parametrize("trace", [False, True])
def test_validate_result_accepts_a_well_formed_result(trace):
    assert spec.validate_result(good_result(trace), trace) == []
    # End-to-end metrics do not satisfy a traced run, nor the reverse.
    assert spec.validate_result(good_result(trace), not trace) != []


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("failed"),
    lambda d: d.update(attempted=0),
    lambda d: d.update(attempted=True),
    lambda d: d.update(failed=4),
    lambda d: d.update(correct="yes"),
    lambda d: d["metrics"].pop("setup_s"),
    lambda d: d["metrics"].update(error_rate={"value": 0.0, "unit": "ratio"}),
    lambda d: d["metrics"]["setup_s"].update(value=math.nan),
    lambda d: d["metrics"]["setup_s"].update(value=None),
    lambda d: d["metrics"]["setup_s"].update(unit="ms"),
    lambda d: d["metrics"]["setup_s"].update(note="x"),
])
def test_validate_result_rejects(mutate):
    document = good_result(False)
    mutate(document)
    assert spec.validate_result(document, False) != []


def run_in_copy(tmp_path, benchmark_json: str):
    """Run the command in a directory holding only ``benchmark_json``
    as BENCHMARK.json and a copy of perfbench/."""
    (tmp_path / "BENCHMARK.json").write_text(benchmark_json)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_run_fails_without_the_program(tmp_path):
    out = run_in_copy(tmp_path, (ROOT / "BENCHMARK.json").read_text())
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_run_refuses_a_malformed_benchmark_json(tmp_path):
    bad = copy.deepcopy(spec.load())
    bad["end_to_end"] = [row for row in bad["end_to_end"]
                         if row["name"] != "setup_s"]
    out = run_in_copy(tmp_path, json.dumps(bad))
    assert out.returncode == 2
    assert "setup_s" in out.stderr and '"correct"' not in out.stdout


# -- workloads -----------------------------------------------------------------


def test_workloads_are_the_ones_benchmark_json_names():
    workloads = pytest.importorskip("workloads")
    assert list(workloads.WORKLOADS) == [w["name"]
                                         for w in spec.load()["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """A one-program run workload with one set-up and one pass."""
    workloads = pytest.importorskip("workloads")
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "MIN_PASSES", 1)
    monkeypatch.setattr(workloads, "MIN_TRACED_PASSES", 1)
    monkeypatch.setattr(workloads, "import_seconds",
                        lambda modules: 0.0)

    class Tiny(workloads.RegionsWorkload):
        programs = ("quicksort",)

    return workloads, Tiny


def test_untraced_run_installs_no_wrapper_or_sampler(tiny, monkeypatch):
    workloads, Tiny = tiny

    def forbidden(*args, **kwargs):
        raise AssertionError("an untraced run created an instrument")

    monkeypatch.setattr(workloads, "StageTimers", forbidden)
    monkeypatch.setattr(workloads, "StackSampler", forbidden)
    import repro.pipeline
    from repro.runtime.gc import Collector

    seen = []
    real_run = workloads.RegionsWorkload.check

    def check(self, name, result, phase):
        seen.append((hasattr(repro.pipeline.parse_program, "__wrapped__"),
                     hasattr(Collector.collect_kind, "__wrapped__"),
                     any(t.name == "perfbench-sampler"
                         for t in threading.enumerate())))
        return real_run(self, name, result, phase)

    monkeypatch.setattr(workloads.RegionsWorkload, "check", check)
    ledger = workloads.Ledger()
    result = Tiny(seed=1, seconds=0, ledger=ledger).end_to_end()
    assert seen and not any(any(flags) for flags in seen)
    assert ledger.failed == 0 and ledger.attempted == len(seen)
    assert set(result.metrics) == set(spec.units(False))


def test_traced_run_reports_layers_and_restores_functions(tiny):
    workloads, Tiny = tiny
    import repro.pipeline

    ledger = workloads.Ledger()
    result = Tiny(seed=1, seconds=0, ledger=ledger).per_layer()
    assert ledger.failed == 0
    assert set(result.metrics) == set(spec.units(True))
    assert result.metrics["frontend.parse_calls"] == 1
    assert result.metrics["runtime.steps"] > 0
    assert result.metrics["trace.overhead_ratio"] > 0
    assert not hasattr(repro.pipeline.parse_program, "__wrapped__")


def test_check_counts_a_counter_mismatch_as_failed(tiny):
    workloads, Tiny = tiny
    from repro.runtime.stats import RunStats

    ledger = workloads.Ledger()
    workload = Tiny(seed=1, seconds=0, ledger=ledger)
    first = SimpleNamespace(value=2584, output="", stats=RunStats(steps=10))
    workload.check("fib", first, "hot")
    workload.check("fib", first, "hot")
    workload.check("fib", SimpleNamespace(value=2584, output="",
                                          stats=RunStats(steps=11)), "hot")
    workload.check("fib", SimpleNamespace(value=1, output="",
                                          stats=RunStats(steps=10)), "hot")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert "RunStats" in ledger.problems[0]
    assert "expected '2584'" in ledger.problems[1]
