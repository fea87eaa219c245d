"""The benchmark's three workloads, driven through the public API.

* ``regions`` compiles programs with
  :func:`repro.pipeline.compile_program` and runs them hot with
  ``CompiledProgram.run(backend="bytecode")``.
* ``compile`` compiles and lowers every registry program cold and runs
  none of them.
* ``serve`` sends requests through a :class:`repro.server.fleet.LocalFleet`
  gateway with :class:`repro.server.client.ServerClient`.

A *pass* is one round over a workload's programs (for ``serve``, a
fixed batch of requests) in an order drawn from the seed.  Every
operation is checked: values against the registry's ``expected``, and
stdout and the RunStats counters against the program's first run, which
they must repeat exactly.  A mismatch counts as a failed operation.

A pass's time is the sum of its operations' times, each scaled by
:class:`calibrate.Meter` for the machine's speed around it.  An untraced run
(:meth:`Workload.end_to_end`) creates no instrument, and on ``regions``
and ``compile`` times each operation by the CPU time of the thread that
runs it; a traced run
(:meth:`Workload.per_layer`) wraps the stage functions with
:class:`layers.StageTimers`, samples the stack with
:class:`layers.StackSampler` from another thread, and so times by the
wall clock, which counts the sampler's share of the interpreter.
"""

from __future__ import annotations

import gc
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.registry import BENCHMARKS, benchmark_source
from repro.config import CompilerFlags
from repro.core.terms import term_size
from repro.pipeline import compile_program
from repro.runtime.stats import RunStats
from repro.runtime.values import show_value

import spec
from calibrate import Meter, clock
from layers import (COMPILE_STAGES, GC_STAGE, SPECIALIZE_STAGE, StackSampler,
                    StageTimers)
from measure import geomean, median, percentile, tail

__all__ = ["WORKLOADS", "Ledger", "Result", "make_workload"]

ROOT = Path(__file__).resolve().parent.parent
#: Fleet cache and artifact directories live here, inside the checkout;
#: each serve set-up gets a fresh one and removes it when it closes.
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fleet boots per untraced serve run; ``setup_s`` takes their median.
#: A boot varies more than the other set-ups, so it is repeated more.
BOOT_REPS = 5
#: Passes an untraced run measures at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Passes each half of a traced run measures at least.
MIN_TRACED_PASSES = 2
#: Serve: client connections, and requests of each pass sent with
#: ``cache: false`` (a pass sends each program once).
CLIENTS = 2
UNCACHED = 2

IMPORTS = ("repro.pipeline", "repro.analysis", "repro.runtime.bytecode",
           "repro.runtime.bytecode.specialize")
SERVER_IMPORTS = IMPORTS + ("repro.server.fleet", "repro.server.client")


class Ledger:
    """Correctness book: one entry per checked operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


@dataclass
class Result:
    """One run's metrics, a note per metric for the printout, and
    lines of context printed before them."""

    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    info: list = field(default_factory=list)


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds it took)``."""
    start = clock()
    result = fn(*args, **kwargs)
    return result, clock() - start


#: Run by a fresh interpreter: import each module, with the time scaled
#: by a meter in that process (the parent's kernel timings say nothing
#: of the core the child runs on), and print the total.
IMPORT_SCRIPT = """\
import importlib, sys
sys.path[:0] = [{here!r}, {src!r}]
from calibrate import Meter
meter = Meter()
with meter.probing():
    meter.start()
    print(sum(meter.time(importlib.import_module, name)[1] for name in {modules!r}))
"""


def import_seconds(modules) -> float:
    """Median scaled time, over :data:`SETUP_REPS` fresh interpreters,
    of importing ``modules``."""
    code = IMPORT_SCRIPT.format(here=str(ROOT / "perfbench"),
                                src=str(ROOT / "src"), modules=list(modules))
    command = [sys.executable, "-c", code]
    return median([
        float(subprocess.run(command, check=True, capture_output=True,
                             text=True).stdout)
        for _ in range(SETUP_REPS)
    ])


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident memory of this process, plus that of the largest
    reaped child process when ``children``."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def lower(program):
    """Lower ``program`` to bytecode the way ``run(backend="bytecode")``
    does on its first call, and return the ``BytecodeProgram``."""
    multiplicity = program.multiplicity if program.flags.multiplicity else None
    drop_regions = program.drop_regions if program.flags.drop_regions else None
    return program._ensure_bytecode(multiplicity, drop_regions).program


def region_ops_per_kstep(stats: RunStats) -> float:
    ops = stats.letregions + stats.finite_regions_created
    return ops * 1000.0 / stats.steps if stats.steps else 0.0


def empty_per_layer() -> dict:
    """Every per-layer metric at 0: a layer this workload's process
    does not exercise reads 0."""
    return dict.fromkeys(spec.units(trace=True), 0.0)


def runtime_counters(stats: RunStats) -> dict:
    created = stats.finite_regions_created + stats.infinite_regions_created
    collected = stats.gc_reclaimed_words + stats.gc_traced_words
    return {
        "runtime.steps": stats.steps,
        "runtime.allocations": stats.allocations,
        "runtime.allocated_words": stats.allocated_words,
        "runtime.letregions": stats.letregions,
        "runtime.finite_regions": stats.finite_regions_created,
        "runtime.region_deallocs": stats.region_deallocs,
        "runtime.region_apps": stats.region_apps,
        "runtime.gc_count": stats.gc_count + stats.gc_minor_count,
        "runtime.gc_traced_words": stats.gc_traced_words,
        "runtime.peak_pages": stats.peak_pages,
        "runtime.region_ops_per_kstep": region_ops_per_kstep(stats),
        "runtime.finite_ratio": (stats.finite_regions_created / created
                                 if created else 0.0),
        "runtime.gc_reclaim_ratio": (stats.gc_reclaimed_words / collected
                                     if collected else 0.0),
    }


def stage_metrics(timers: StageTimers, passes: int) -> dict:
    """Compile-stage time and calls per pass (raw wall time: a traced
    run has no bound to hold)."""
    out = {}
    for stage in COMPILE_STAGES:
        out[f"{stage}_ms"] = timers.seconds[stage] * 1000.0 / passes
        out[f"{stage}_calls"] = timers.calls[stage] / passes
    return out


def geomean_of_medians(samples: dict) -> float:
    """Geometric mean over programs of each program's median."""
    return geomean([median(v) for v in samples.values()])


class Workload:
    """Shared driver: ``seed`` orders each pass, ``seconds`` is how long
    the measured phase lasts (whole passes, at least a minimum)."""

    name = ""
    programs: tuple = ()
    imports = IMPORTS

    def __init__(self, seed: int, seconds: float, ledger: Ledger) -> None:
        self.seed = seed
        self.seconds = seconds
        self.ledger = ledger
        self.meter = Meter()
        self.rng = random.Random(f"{self.name}:{seed}")
        self.sources = {name: benchmark_source(name) for name in self.programs}

    def order(self) -> list:
        names = list(self.programs)
        self.rng.shuffle(names)
        return names

    def passes(self, seconds: float, min_passes: int, one_pass,
               more=None) -> list:
        """Run ``one_pass()``, which returns its time, until ``seconds``
        have gone by and at least ``min_passes`` ran (and, if given,
        until ``more()`` is false); returns the pass times."""
        times = []
        deadline = clock() + seconds
        while (len(times) < min_passes or clock() < deadline
               or (more is not None and more())):
            gc.collect()
            times.append(one_pass())
        return times

    def end_to_end(self) -> Result:  # pragma: no cover - abstract
        raise NotImplementedError

    def per_layer(self) -> Result:  # pragma: no cover - abstract
        raise NotImplementedError


class RegionsWorkload(Workload):
    """Hot runs of compiled programs."""

    name = "regions"
    programs = tuple(spec.REGION_OPS_PER_KSTEP["regions"])
    flags = CompilerFlags()

    def __init__(self, seed, seconds, ledger) -> None:
        super().__init__(seed, seconds, ledger)
        self.reference: dict = {}
        self.compiled: dict = {}

    def check(self, name: str, result, phase: str) -> None:
        got = (show_value(result.value), result.output, result.stats.to_dict())
        ref = self.reference.setdefault(name, got)
        expected = BENCHMARKS[name].expected
        problem = []
        if got[0] != expected:
            problem.append(f"value {got[0]!r}, expected {expected!r}")
        if got != ref:
            problem.append("stdout or RunStats differ from its first run")
        self.ledger.check(not problem, f"{name} ({phase}): " + "; ".join(problem))

    def compile(self, name: str):
        program = compile_program(self.sources[name], self.flags, cache=False)
        lower(program)
        return program

    def setup(self, reps: int):
        """``reps`` times: compile, lower and run once every program.
        Returns the scaled time of each set-up and each program's scaled
        compile-plus-lowering times in milliseconds."""
        times, compile_ms = [], {name: [] for name in self.programs}
        meter = self.meter
        for _ in range(reps):
            gc.collect()
            meter.start()
            total, compiled = 0.0, {}
            for name in self.programs:
                program, compile_s = meter.time(self.compile, name)
                result, run_s = meter.time(program.run, "bytecode")
                self.check(name, result, "warm-up")
                compiled[name] = program
                compile_ms[name].append(compile_s * 1000.0)
                total += compile_s + run_s
            times.append(total)
            self.compiled = compiled
        return times, compile_ms

    def measure(self, seconds: float, min_passes: int, sampler=None):
        """Hot passes; returns (scaled pass times, per-program scaled run
        times in ms)."""
        run_ms = {name: [] for name in self.programs}

        def run(name):
            # Each run starts from the same collector state, whatever
            # ran before it in the pass.
            gc.collect()
            if sampler is None:
                return self.compiled[name].run(backend="bytecode")
            with sampler.sampling():
                return self.compiled[name].run(backend="bytecode")

        def one_pass():
            self.meter.start()
            total = 0.0
            for name in self.order():
                result, seconds_taken = self.meter.time(run, name)
                self.check(name, result, "hot")
                run_ms[name].append(seconds_taken * 1000.0)
                total += seconds_taken
            return total

        passes = self.passes(seconds, min_passes, one_pass)
        return passes, run_ms

    def split_info(self, out: Result) -> None:
        recorded = spec.REGION_OPS_PER_KSTEP[self.name]
        for name in self.programs:
            ratio = region_ops_per_kstep(
                RunStats.from_dict(self.reference[name][2]))
            moved = "" if round(ratio, 2) == recorded[name] else (
                f"  MOVED from recorded {recorded[name]}")
            out.info.append(f"region_ops_per_kstep {name} {ratio:.2f}{moved}")

    def end_to_end(self) -> Result:
        import_s = import_seconds(self.imports)
        with self.meter.probing():
            setup_times, compile_ms = self.setup(SETUP_REPS)
            passes, run_ms = self.measure(self.seconds, MIN_PASSES)
        pass_steps = sum(self.reference[name][2]["steps"]
                         for name in self.programs)
        typical = [median(v) for v in run_ms.values()]
        out = Result()
        out.metrics = {
            "run_ms_geomean": geomean_of_medians(run_ms),
            "compile_ms_geomean": geomean_of_medians(compile_ms),
            "pass_s_p50": median(passes),
            "steps_per_s": pass_steps / median(passes),
            "req_ms_p50": median(typical),
            "req_ms_p90": percentile(typical, 90),
            "req_per_s": len(self.programs) / median(passes),
            "setup_s": import_s + median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        fewest = min(len(v) for v in run_ms.values())
        out.notes = {
            "run_ms_geomean": f"{len(self.programs)} programs, median of"
                              f" >={fewest} hot runs each",
            "compile_ms_geomean": f"median of {SETUP_REPS} cold compiles each",
            "pass_s_p50": f"median of {len(passes)}",
            "req_ms_p50": f"over the {len(typical)} programs' medians",
            "setup_s": f"import + median of {SETUP_REPS} set-ups",
        }
        self.split_info(out)
        return out

    def per_layer(self) -> Result:
        self.meter = Meter(op_clock=clock)
        stages = {**COMPILE_STAGES, **SPECIALIZE_STAGE}
        with StageTimers(stages) as setup_timers:
            self.setup(1)
        untraced, *_ = self.measure(self.seconds / 2, MIN_TRACED_PASSES)
        sampler = StackSampler()
        with StageTimers(GC_STAGE) as gc_timers:
            traced, *_ = self.measure(self.seconds / 2, MIN_TRACED_PASSES,
                                      sampler)
        pass_stats = RunStats.aggregate(
            RunStats.from_dict(self.reference[name][2])
            for name in self.programs)
        shares = sampler.shares()
        out = Result()
        out.metrics = empty_per_layer()
        out.metrics.update(stage_metrics(setup_timers, 1))
        out.metrics.update(runtime_counters(pass_stats))
        out.metrics.update({
            "regions.term_nodes": sum(term_size(p.term)
                                      for p in self.compiled.values()),
            "bytecode.instructions": sum(lower(p).canonical_len
                                         for p in self.compiled.values()),
            "bytecode.specialize_ms":
                setup_timers.seconds["bytecode.specialize"] * 1000.0,
            "bytecode.specialized_bodies":
                setup_timers.calls["bytecode.specialize"],
            "runtime.mutator_share": shares["mutator"],
            "runtime.alloc_share": shares["alloc"],
            "runtime.region_share": shares["region"],
            "runtime.gc_share": shares["gc"],
            "runtime.samples": sampler.total,
            "runtime.gc_ms": gc_timers.seconds["runtime.gc"] * 1000.0
                             / len(traced),
            "trace.overhead_ratio": median(traced) / median(untraced),
        })
        out.notes = {
            "runtime.gc_ms": f"per pass, {len(traced)} traced passes",
            "trace.overhead_ratio": f"{len(traced)} traced over"
                                    f" {len(untraced)} untraced passes",
        }
        self.split_info(out)
        return out


class CompileWorkload(Workload):
    """Cold compiles plus lowering of every registry program.

    Nothing is run, so ``run_ms_geomean`` times the step that makes a
    program runnable (bytecode lowering) and ``steps_per_s`` counts
    bytecode instructions emitted per second of compile."""

    name = "compile"
    programs = tuple(BENCHMARKS)
    flags = CompilerFlags(analyze=True)
    #: Compiled (and lowered) once per set-up to load what the first
    #: compile of a process loads lazily.
    warmup = "fib"

    def __init__(self, seed, seconds, ledger) -> None:
        super().__init__(seed, seconds, ledger)
        self.signature: dict = {}
        self.last: dict = {}

    def compile(self, name: str):
        return compile_program(self.sources[name], self.flags, cache=False)

    def check(self, name: str, program, code) -> None:
        analysis = program.analysis
        got = (analysis is not None and analysis.ok,
               program.verification_error is None,
               code.canonical_len, len(code.bodies))
        ref = self.signature.setdefault(name, got)
        problem = []
        if not (got[0] and got[1]):
            problem.append("verification failed")
        if got != ref:
            problem.append(f"output {got} differs from first compile {ref}")
        self.ledger.check(not problem, f"{name} (compile): " + "; ".join(problem))

    def setup(self, reps: int) -> list:
        times = []
        for _ in range(reps):
            self.meter.start()
            program, compile_s = self.meter.time(self.compile, self.warmup)
            times.append(compile_s + self.meter.time(lower, program)[1])
        return times

    def measure(self, seconds: float, min_passes: int):
        op_ms = {name: [] for name in self.programs}
        lower_ms = {name: [] for name in self.programs}

        def one_pass():
            self.meter.start()
            total = 0.0
            for name in self.order():
                program, compile_s = self.meter.time(self.compile, name)
                code, lower_s = self.meter.time(lower, program)
                self.check(name, program, code)
                self.last[name] = (program, code)
                op_ms[name].append((compile_s + lower_s) * 1000.0)
                lower_ms[name].append(lower_s * 1000.0)
                total += compile_s + lower_s
            return total

        passes = self.passes(seconds, min_passes, one_pass)
        return passes, op_ms, lower_ms

    def end_to_end(self) -> Result:
        import_s = import_seconds(self.imports)
        with self.meter.probing():
            setup_times = self.setup(SETUP_REPS)
            passes, op_ms, lower_ms = self.measure(self.seconds, MIN_PASSES)
        pass_instructions = sum(code.canonical_len
                                for _, code in self.last.values())
        typical = [median(v) for v in op_ms.values()]
        out = Result()
        out.metrics = {
            "run_ms_geomean": geomean_of_medians(lower_ms),
            "compile_ms_geomean": geomean_of_medians(op_ms),
            "pass_s_p50": median(passes),
            "steps_per_s": pass_instructions / median(passes),
            "req_ms_p50": median(typical),
            "req_ms_p90": percentile(typical, 90),
            "req_per_s": len(self.programs) / median(passes),
            "setup_s": import_s + median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
        }
        out.notes = {
            "run_ms_geomean": "bytecode lowering only; nothing is run",
            "compile_ms_geomean": f"{len(self.programs)} programs, median of"
                                  f" {len(passes)} cold compiles each",
            "pass_s_p50": f"median of {len(passes)}",
            "steps_per_s": "bytecode instructions emitted per second",
            "req_ms_p50": f"over the {len(typical)} programs' medians",
            "setup_s": f"import + median of {SETUP_REPS} warm-up compiles",
        }
        return out

    def per_layer(self) -> Result:
        self.meter = Meter(op_clock=clock)
        self.setup(1)
        untraced, *_ = self.measure(self.seconds / 2, MIN_TRACED_PASSES)
        with StageTimers(COMPILE_STAGES) as timers:
            traced, *_ = self.measure(self.seconds / 2, MIN_TRACED_PASSES)
        out = Result()
        out.metrics = empty_per_layer()
        out.metrics.update(stage_metrics(timers, len(traced)))
        out.metrics.update({
            "regions.term_nodes": sum(term_size(p.term)
                                      for p, _ in self.last.values()),
            "bytecode.instructions": sum(code.canonical_len
                                         for _, code in self.last.values()),
            "trace.overhead_ratio": median(traced) / median(untraced),
        })
        out.notes = {"frontend.parse_ms": f"per pass, {len(traced)}"
                                          " traced passes"}
        return out


@dataclass
class Reply:
    """One request: its raw client latency, and the factor its pass's
    times are scaled by."""

    name: str
    cached: bool
    seconds: float
    response: dict
    retries: int = 0
    rejections: int = 0
    scale: float = 1.0


class ServeWorkload(Workload):
    """A closed loop of :data:`CLIENTS` clients against a one-node,
    one-worker fleet.  A pass is one request per program in seeded
    order, :data:`UNCACHED` of them with ``cache: false``, taken in turn
    from a seeded rotation of the programs, shuffled anew every four
    passes, so that each is sent uncached once every four passes and
    with another partner each time (a fixed pairing made the pass times
    of a whole run depend on which two compiles the seed put together);
    the clients take the pass's requests from a shared list.

    A pass or a boot is mostly work in the worker process, on the
    other processor, whose speed the kernel timed next to it does not
    follow; in an untraced run the kernel is also timed every
    :data:`calibrate.PROBE_INTERVAL` seconds during one, when it
    competes with the worker as the worker competes with it.  Short
    passes keep the timings close to the requests they scale."""

    name = "serve"
    programs = ("ratio", "fib", "msort_rf", "msort", "sieve", "fft", "ray",
                "matmul")
    imports = SERVER_IMPORTS
    flags = CompilerFlags()

    def __init__(self, seed, seconds, ledger) -> None:
        super().__init__(seed, seconds, ledger)
        self.reference: dict = {}
        self.fleet = None
        self.base_dir = None

    # -- fleet lifecycle ---------------------------------------------------

    def request(self, name: str, cached: bool) -> dict:
        from repro.server.protocol import make_request

        return make_request(self.sources[name], flags=self.flags,
                            backend="bytecode", cache=cached)

    def client(self, url: str):
        from repro.server.client import ServerClient

        return ServerClient(url, timeout=120.0, retry_jitter_seed=self.seed)

    def boot(self) -> None:
        """Start a fleet with fresh directories, wait until it is ready
        and send one cached request per program."""
        from repro.server.fleet import LocalFleet

        TMP_ROOT.mkdir(exist_ok=True)
        self.base_dir = tempfile.mkdtemp(prefix="fleet-", dir=TMP_ROOT)
        self.fleet = LocalFleet(nodes=1, workers_per_node=1,
                                base_dir=self.base_dir)
        url = self.fleet.start()
        client = self.client(url)
        client.wait_ready(timeout=60.0)
        for name in self.programs:
            self.check(name, client.submit(self.request(name, True)), "warm-up")

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        if self.base_dir is not None:
            shutil.rmtree(self.base_dir, ignore_errors=True)
            self.base_dir = None

    def check(self, name: str, response: dict, phase: str) -> None:
        problem = []
        if response.get("status") != "ok":
            error = response.get("error") or {}
            problem.append(f"status {response.get('status')!r}"
                           f" ({error.get('type')}: {error.get('message')})")
        else:
            got = (response.get("value"), response.get("stdout"),
                   response.get("stats"))
            ref = self.reference.setdefault(name, got)
            expected = BENCHMARKS[name].expected
            if got[0] != expected:
                problem.append(f"value {got[0]!r}, expected {expected!r}")
            if got != ref:
                problem.append("stdout or RunStats differ from its first reply")
        self.ledger.check(not problem, f"{name} ({phase}): " + "; ".join(problem))

    def setup(self, reps: int) -> list:
        """``reps`` fleet boots; all but the last are closed again."""
        times = []
        for rep in range(reps):
            self.meter.start(5)
            seconds_taken = timed(self.boot)[1]
            times.append(seconds_taken * self.meter.factor(5))
            if rep < reps - 1:
                self.close()
        return times

    # -- the closed loop ---------------------------------------------------

    def send_pass(self, uncached) -> list:
        """One pass of requests from :data:`CLIENTS` threads, with the
        programs in ``uncached`` sent uncached; returns the replies."""
        todo = [(name, name not in uncached) for name in self.programs]
        self.rng.shuffle(todo)
        lock = threading.Lock()
        replies: list = []
        url = self.fleet.gateway_url

        def client_loop() -> None:
            client = self.client(url)
            while True:
                with lock:
                    if not todo:
                        return
                    name, cached = todo.pop()
                start = clock()
                try:
                    response, trace = client.submit_ex(self.request(name, cached))
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    response = {"status": "unavailable",
                                "error": {"type": type(exc).__name__,
                                          "message": str(exc)}}
                    retries = rejections = 0
                else:
                    retries = trace.retries
                    rejections = trace.reasons.count("rejected") + (
                        response.get("status") == "rejected")
                with lock:
                    replies.append(Reply(name, cached, clock() - start,
                                         response, retries, rejections))

        threads = [threading.Thread(target=client_loop, name=f"client-{i}")
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return replies

    def measure(self, seconds: float, min_passes: int, until_p90=False):
        """Passes of requests; returns (scaled pass times, replies,
        replies of each pass)."""
        replies: list = []
        per_pass: list = []
        rotation: list = []

        def one_pass():
            if not rotation:
                rotation.extend(self.order())
            uncached = [rotation.pop() for _ in range(UNCACHED)]
            self.meter.start(5)
            batch, seconds_taken = timed(self.send_pass, uncached)
            factor = self.meter.factor(5)
            for reply in batch:
                reply.scale = factor
                self.check(reply.name, reply.response, "request")
            per_pass.append(batch)
            replies.extend(batch)
            return seconds_taken * factor

        def more():
            return until_p90 and not tail([r.seconds * r.scale
                                           for r in replies], 90).supported

        passes = self.passes(seconds, min_passes, one_pass, more)
        return passes, replies, per_pass

    def node_metrics(self) -> dict:
        return self.client(self.fleet.node_urls[0]).stats()["metrics"]

    @staticmethod
    def timing(replies, key: str, cached: bool) -> dict:
        """Per program, the worker's scaled ``timing[key]`` in
        milliseconds, of the replies with that cache setting."""
        out: dict = {}
        for r in replies:
            if r.cached == cached and r.response.get("status") == "ok":
                out.setdefault(r.name, []).append(
                    r.response["timing"][key] * r.scale * 1000.0)
        return out

    def end_to_end(self) -> Result:
        import_s = import_seconds(self.imports)
        try:
            with self.meter.probing():
                setup_times = self.setup(BOOT_REPS)
                passes, replies, _ = self.measure(self.seconds, MIN_PASSES,
                                                  until_p90=True)
        finally:
            self.close()
            _stop_resource_tracker()
        latencies = [r.seconds * r.scale * 1000.0 for r in replies]
        p90 = tail(latencies, 90)
        self.ledger.check(p90.supported,
                          f"p90 has {p90.beyond} requests beyond it, need 10")
        pass_steps = sum(self.reference[name][2]["steps"]
                         for name in self.programs)
        out = Result()
        out.metrics = {
            "run_ms_geomean": geomean_of_medians(
                self.timing(replies, "run_seconds", True)),
            "compile_ms_geomean": geomean_of_medians(
                self.timing(replies, "compile_seconds", False)),
            "pass_s_p50": median(passes),
            "steps_per_s": pass_steps / median(passes),
            "req_ms_p50": median(latencies),
            "req_ms_p90": p90.value,
            "req_per_s": len(self.programs) / median(passes),
            "setup_s": import_s + median(setup_times),
            "peak_rss_mb": peak_rss_mb(children=True),
        }
        out.notes = {
            "run_ms_geomean": "worker run time of cached requests",
            "compile_ms_geomean": "worker compile time of uncached requests",
            "pass_s_p50": f"median of {len(passes)} passes of"
                          f" {len(self.programs)} requests",
            "req_ms_p50": f"{len(latencies)} requests, {CLIENTS} clients",
            "req_ms_p90": f"{p90.beyond} requests beyond",
            "setup_s": f"import + median of {BOOT_REPS} fleet boots",
            "peak_rss_mb": "benchmark process + worker process",
        }
        return out

    def per_layer(self) -> Result:
        """Server hops from ``/v1/stats`` snapshots taken around the
        second half and from the replies' ``timing``.  Neither costs
        anything inside a pass, and the compiles and runs happen in the
        worker, out of reach of the in-process instruments; so both
        halves run alike and ``trace.overhead_ratio`` is a noise check
        (about 1), not a tracing cost."""
        try:
            self.setup(1)
            untraced, _, _ = self.measure(self.seconds / 2, MIN_TRACED_PASSES)
            before = self.node_metrics()
            traced, replies, per_pass = self.measure(self.seconds / 2,
                                                     MIN_TRACED_PASSES)
            after = self.node_metrics()
        finally:
            self.close()
            _stop_resource_tracker()
        ok = [r for r in replies if r.response.get("status") == "ok"]
        n = len(ok) or 1
        # Raw times: the node's latency histogram cannot be scaled per
        # pass, so no server figure is.
        client_ms = sum(r.seconds for r in ok) * 1000.0 / n
        node = {k: after["latency_seconds"][k] - before["latency_seconds"][k]
                for k in ("sum", "count")}
        node_ms = node["sum"] * 1000.0 / node["count"] if node["count"] else 0.0
        compile_ms = sum(r.response["timing"]["compile_seconds"]
                         for r in ok) * 1000.0 / n
        run_ms = sum(r.response["timing"]["run_seconds"]
                     for r in ok) * 1000.0 / n
        hits = sum(after["cache"][k] - before["cache"][k]
                   for k in ("memory_hits", "disk_hits", "fleet_hits"))
        pass_stats = RunStats.aggregate(
            RunStats.from_dict(r.response["stats"]) for r in per_pass[0]
            if r.response.get("status") == "ok")
        out = Result()
        out.metrics = empty_per_layer()
        out.metrics.update(runtime_counters(pass_stats))
        out.metrics.update({
            "server.client_ms": client_ms,
            "server.node_ms": node_ms,
            "server.gateway_ms": client_ms - node_ms,
            "server.queue_pipe_ms": node_ms - compile_ms - run_ms,
            "server.worker_compile_ms": compile_ms,
            "server.worker_run_ms": run_ms,
            "server.cache_hit_ratio": hits / len(replies),
            "server.rejections": sum(r.rejections for r in replies),
            "server.retries": sum(r.retries for r in replies),
            "trace.overhead_ratio": median(traced) / median(untraced),
        })
        out.notes = {
            "server.client_ms": f"mean of {len(ok)} requests",
            "trace.overhead_ratio": "no in-process instrument: noise check",
        }
        return out


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts
    beside spawned workers, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


WORKLOADS = {
    cls.name: cls
    for cls in (RegionsWorkload, CompileWorkload, ServeWorkload)
}


def make_workload(name: str, seed: int, seconds: float, ledger: Ledger):
    return WORKLOADS[name](seed, seconds, ledger)
