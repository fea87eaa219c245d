"""Per-layer instruments for the traced run, all installed from outside
the program.

* :class:`StageTimers` replaces named functions by timing wrappers at
  the place the caller looks them up (``repro.pipeline.parse_program``,
  ``repro.runtime.gc.Collector.collect_kind``, ...) and restores them on
  exit.  Each layer gets a wall time and a call count.
* :class:`StackSampler` samples the main thread's stack from a thread
  of its own and files each sample under a runtime layer with
  :func:`classify_stack`.

Neither is created by an untraced run, so end-to-end figures carry no
instrument cost.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = [
    "COMPILE_STAGES",
    "SPECIALIZE_STAGE",
    "GC_STAGE",
    "SAMPLE_INTERVAL",
    "StageTimers",
    "StackSampler",
    "classify_code",
    "classify_stack",
    "PRECEDENCE",
    "RUNTIME_LAYERS",
]

#: Layer name -> the ``(module, attribute)`` sites it is timed at.  A
#: dotted attribute names a method on a class.  Compile stages are
#: wrapped where ``compile_program`` and ``CompiledProgram`` look them
#: up: the pipeline module's globals, or the package a function-local
#: ``from ... import`` reads.  Each is reported as ``<layer>_ms`` and
#: ``<layer>_calls``.
COMPILE_STAGES: dict[str, tuple[tuple[str, str], ...]] = {
    "frontend.parse": (("repro.pipeline", "parse_program"),),
    "frontend.infer": (("repro.pipeline", "infer_program"),),
    "regions.infer": (("repro.pipeline", "infer_regions"),),
    "regions.freeze": (("repro.pipeline", "freeze_program"),),
    "regions.multiplicity": (("repro.pipeline", "analyse_multiplicity"),),
    "regions.dropregions": (("repro.pipeline", "analyse_drop_regions"),),
    "core.typecheck": (("repro.pipeline", "typecheck"),),
    "analysis.verify": (("repro.analysis", "verify_term"),),
    "bytecode.lower": (
        ("repro.runtime.interp", "prepare"),
        ("repro.runtime.bytecode", "compile_bytecode"),
    ),
}

#: The bytecode specializer, which a program's first run calls.
SPECIALIZE_STAGE = {
    "bytecode.specialize": (
        ("repro.runtime.bytecode.specialize", "specialize_body"),
    ),
}

#: The collector, timed exactly over the hot runs of a traced pass.
GC_STAGE = {"runtime.gc": (("repro.runtime.gc", "Collector.collect_kind"),)}


class StageTimers:
    """Timing wrappers over a table like :data:`COMPILE_STAGES`, active inside
    ``with timers:``.  ``seconds[layer]`` and ``calls[layer]``
    accumulate across activations."""

    def __init__(self, stages: dict) -> None:
        self.stages = stages
        self.seconds = {layer: 0.0 for layer in stages}
        self.calls = {layer: 0 for layer in stages}
        self._saved: list = []

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        seconds, calls, clock = self.seconds, self.calls, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += clock() - start
                calls[layer] += 1

        timed.__wrapped__ = fn
        return timed

    def __enter__(self) -> "StageTimers":
        if self._saved:
            raise RuntimeError("StageTimers is already installed")
        for layer, sites in self.stages.items():
            for module_name, attr in sites:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


#: The layers a runtime sample can land in; ``other`` is everything the
#: rules below do not claim (benchmark code, the specializer, compile).
RUNTIME_LAYERS = ("mutator", "alloc", "region", "gc", "other")

#: Qualified names in ``runtime/heap.py`` that belong to the region
#: lifecycle; the rest of the heap is allocation bookkeeping, except
#: ``repack_region``, which only the collector calls.
_HEAP_REGION = frozenset({
    "Region.__init__", "Heap.new_region", "Heap.dealloc_region",
    "Heap._release",
})


def classify_code(filename: str, qualname: str) -> Optional[str]:
    """The runtime layer one code object belongs to, or ``None`` when
    it claims none (the caller then looks at the next frame out)."""
    path = filename.replace("\\", "/")
    if path.endswith("/runtime/gc.py"):
        return "gc"
    if path.endswith("/runtime/heap.py"):
        if qualname == "Heap.repack_region":
            return "gc"
        return "region" if qualname in _HEAP_REGION else "alloc"
    if path.endswith("/runtime/compile.py"):
        if qualname == "_dealloc_fast":
            return "region"
        return "alloc" if qualname == "_alloc" else "mutator"
    if path.endswith("/core/effects.py"):
        return "region" if qualname.startswith("RegionVar.") else None
    if path.endswith("/runtime/values.py"):
        return "alloc" if qualname.endswith(".__init__") else "mutator"
    if path.endswith("/runtime/stats.py"):
        return "alloc" if qualname == "RunStats.note_current" else None
    if (path.endswith("/runtime/bytecode/vm.py")
            or path.endswith("/runtime/interp.py")
            or path.startswith("<bytecode kernel")):
        return "mutator"
    return None


#: When frames of several layers are on the stack, the sample belongs
#: to the one listed first: a collection run from an allocation is gc
#: time, a ``RegionVar`` hash inside ``_alloc`` is region time.
PRECEDENCE = ("gc", "region", "alloc", "mutator")


def classify_stack(frame) -> str:
    """The layer of a sampled stack: of the layers its frames claim,
    the first in :data:`PRECEDENCE`; ``other`` when no frame claims
    one."""
    seen = set()
    while frame is not None:
        code = frame.f_code
        layer = classify_code(code.co_filename, code.co_qualname)
        if layer == "gc":
            return layer
        seen.add(layer)
        frame = frame.f_back
    for layer in PRECEDENCE:
        if layer in seen:
            return layer
    return "other"


#: Seconds between two stack samples.
SAMPLE_INTERVAL = 0.001


class StackSampler:
    """Samples the main thread's stack about every
    :data:`SAMPLE_INTERVAL` seconds from a daemon thread, while inside
    ``with sampler.sampling():``."""

    def __init__(self) -> None:
        self.counts = {layer: 0 for layer in RUNTIME_LAYERS}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict:
        """Each layer's share of all samples (0.0 for every layer when
        nothing was sampled)."""
        total = self.total
        return {layer: (n / total if total else 0.0)
                for layer, n in self.counts.items()}

    def _loop(self, stop: threading.Event) -> None:
        counts, target = self.counts, threading.main_thread().ident
        while not stop.wait(SAMPLE_INTERVAL):
            frame = sys._current_frames().get(target)
            if frame is not None:
                counts[classify_stack(frame)] += 1

    @contextmanager
    def sampling(self) -> Iterator["StackSampler"]:
        stop = threading.Event()
        thread = threading.Thread(target=self._loop, args=(stop,),
                                  name="perfbench-sampler", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()
