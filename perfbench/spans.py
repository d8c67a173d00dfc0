"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the engine's layers from the
outside: each target is replaced, in the namespace where its caller
looks it up, by a wrapper that records one span per call.  Nothing in
``src/`` is instrumented, and the engine's own tracer stays off.

Spans keep one stack per thread.  A span that opens on a thread with an
empty stack (an executor pool thread running an instruction) adopts the
executor run that is open on another thread as its parent, when there is
exactly one; that run is the span that caused it.  Spans stay in memory
and are written as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import threading
import time
from contextlib import contextmanager

#: The span whose self time is executor dispatch; orphan spans on pool
#: threads adopt the open one as their parent.
RUN_SPAN = "runtime.dispatch"
UNIT_SPAN = "bench.unit"


class Span:
    __slots__ = ("name", "parent", "tid", "start", "end")

    def __init__(self, name, parent, tid, start):
        self.name = name
        self.parent = parent
        self.tid = tid
        self.start = start
        self.end = start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_targets():
    """(owner, attribute, span name) for every timed public function.

    Each owner is the namespace the caller reads the name from: the
    optimizer binds ``explore`` and friends at import, the pipeline binds
    ``apply_rewrites``, and ``lower_program`` / ``execute_operator`` are
    imported at call time from their defining modules.
    """
    import inspect

    from repro import api
    from repro.codegen import optimizer as codegen_optimizer
    from repro.codegen.plan_cache import PlanCache
    from repro.compiler import pipeline, program
    from repro.compiler.execution import Engine
    from repro.runtime import ops, skeletons
    from repro.runtime.compressed import CompressedMatrix
    from repro.runtime.distributed import SparkExecutor
    from repro.runtime.executor import ProgramExecutor
    from repro.runtime.matrix import MatrixBlock
    from repro.serve.prepared import PreparedProgram
    from repro.serve.scheduler import SessionScheduler

    targets = [
        (api, "matrix", "api.bind"),
        (pipeline, "apply_rewrites", "hops.rewrites"),
        (codegen_optimizer.CodegenOptimizer, "optimize", "codegen.optimize"),
        (codegen_optimizer, "explore", "codegen.explore"),
        (codegen_optimizer, "mpskip_enum", "codegen.enumerate"),
        (codegen_optimizer, "construct_cplan", "codegen.construct"),
        (codegen_optimizer, "construct_multi_agg", "codegen.construct"),
        (PlanCache, "get_or_compile", "codegen.plan_cache"),
        (Engine, "compile", "compiler.compile"),
        (program, "lower_program", "compiler.lower"),
        (ProgramExecutor, "run", RUN_SPAN),
        (skeletons, "execute_operator", "runtime.fused"),
        (MatrixBlock, "to_dense", "runtime.convert"),
        (MatrixBlock, "to_csr", "runtime.convert"),
        (CompressedMatrix, "decompress", "runtime.convert"),
        (SparkExecutor, "execute_instruction", "runtime.distributed"),
        (SparkExecutor, "collect_value", "runtime.distributed"),
        (SessionScheduler, "submit", "serve.submit"),
        (PreparedProgram, "bind", "serve.bind"),
        (PreparedProgram, "bind_batch", "serve.bind"),
        (PreparedProgram, "execute_bound", "serve.exec"),
        (PreparedProgram, "execute_batch", "serve.exec"),
    ]
    for name, func in vars(ops).items():
        if (not name.startswith("_") and inspect.isfunction(func)
                and func.__module__ == ops.__name__):
            targets.append((ops, name, "runtime.basic"))
    return targets


class Recorder:
    """Records spans around the layer targets while installed."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_runs: list[Span] = []
        self._saved: list = []

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, func, name):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    # -- span stack -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        tid = threading.get_ident()
        if stack:
            parent = stack[-1]
        else:
            parent = None
            if name != RUN_SPAN:
                with self._lock:
                    others = [s for s in self._open_runs if s.tid != tid]
                if len(others) == 1:
                    parent = others[0]
        span = Span(name, parent, tid, time.perf_counter())
        stack.append(span)
        if name == RUN_SPAN:
            with self._lock:
                self._open_runs.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == RUN_SPAN:
            with self._lock:
                self._open_runs.remove(span)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a unit of work)."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- export -----------------------------------------------------------
    def export_chrome(self, path: str, max_events: int = 200_000) -> int:
        """Write the first ``max_events`` spans as trace-event JSON."""
        spans = sorted(self.spans, key=lambda s: s.start)[:max_events]
        if not spans:
            return 0
        origin = spans[0].start
        index = {id(s): i for i, s in enumerate(spans)}
        events = []
        for i, s in enumerate(spans):
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": os.getpid(),
                "tid": s.tid, "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"id": i, "parent": index.get(id(s.parent))},
            })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


# ----------------------------------------------------------------------
# Derivations
# ----------------------------------------------------------------------
class Coverage:
    """The union of (start, end) intervals, as sorted disjoint pieces."""

    def __init__(self, intervals):
        self.starts: list[float] = []
        self.ends: list[float] = []
        for a, b in sorted(intervals):
            if self.ends and a <= self.ends[-1]:
                self.ends[-1] = max(self.ends[-1], b)
            else:
                self.starts.append(a)
                self.ends.append(b)

    def within(self, lo: float, hi: float) -> float:
        """Length of [lo, hi] that the union covers."""
        i = max(bisect.bisect_right(self.starts, lo) - 1, 0)
        total = 0.0
        while i < len(self.starts) and self.starts[i] < hi:
            total += max(0.0, min(self.ends[i], hi) - max(self.starts[i], lo))
            i += 1
        return total


def children_of(spans) -> dict:
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    return children


def self_time(span: Span, children: dict) -> float:
    kids = children.get(id(span), ())
    return span.duration - Coverage((k.start, k.end) for k in kids).within(
        span.start, span.end)


def summarize(spans) -> dict:
    """Inclusive seconds per span name and self seconds per layer.

    Inclusive time counts only the outermost span of a name, so a
    function that calls itself (or a sibling with the same name) is
    not counted twice.  Self time is a span's duration minus the union
    of its children's intervals.
    """
    children = children_of(spans)
    inclusive: dict = {}
    self_by_name: dict = {}
    self_by_layer: dict = {}
    for s in spans:
        ancestor = s.parent
        nested = False
        while ancestor is not None:
            if ancestor.name == s.name:
                nested = True
                break
            ancestor = ancestor.parent
        if not nested:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        own = self_time(s, children)
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
        self_by_layer[s.layer] = self_by_layer.get(s.layer, 0.0) + own
    return {"inclusive": inclusive, "self": self_by_name,
            "layer_self": self_by_layer}


def unattributed(spans) -> tuple[float, float]:
    """(unit seconds, unit seconds no child span covers) over units."""
    children = children_of(spans)
    total = missing = 0.0
    for s in spans:
        if s.name == UNIT_SPAN:
            total += s.duration
            missing += self_time(s, children)
    return total, missing
