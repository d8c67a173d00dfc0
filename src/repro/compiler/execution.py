"""Execution engines: the experimental configurations of Section 5.

* ``base``     — basic operators only, every intermediate materialized,
* ``numpy``    — like base but without CSE sharing (the eager-library
                 reference standing in for Julia/TF),
* ``fused``    — base plus SystemML's hand-coded fused operators,
* ``gen``      — the cost-based codegen optimizer (Gen),
* ``gen-fa``   — the fuse-all heuristic (Gen-FA),
* ``gen-fnr``  — the fuse-no-redundancy heuristic (Gen-FNR).

:class:`Engine` is a thin façade over the staged pipeline:

1. the **compiler front half** (:mod:`repro.compiler.pipeline`) runs
   rewrites → codegen optimization → exec-type selection as named
   passes over a shared :class:`CompilationContext`,
2. the **lowering layer** (:mod:`repro.compiler.program`) converts the
   optimized multi-root HOP DAG into a ``Program`` of instructions with
   explicit symbol-table slots and dependency edges (hand-coded fused
   patterns lower at compile time — no runtime pattern recursion),
3. the **runtime executor** (:mod:`repro.runtime.executor`) schedules
   the program serially or over a thread pool by dependency readiness,
   eagerly freeing dead intermediates.

An engine owns a plan cache, a program cache and runtime statistics.
``execute`` compiles each distinct statement-block DAG once: DAGs
rebuilt per loop iteration are keyed by an exact structural signature
(:mod:`repro.compiler.program_cache`), and a repeated block reruns the
cached program with its new input blocks bound through the executor's
``bindings`` overlay.  A new signature (a changed shape, nnz or
literal) compiles afresh, which is the dynamic recompilation of a
statement block; generated operators stay shared across those compiles
through the plan cache.  Engines are thread-safe: compilations
serialize on the context's compile lock while runtime execution
overlaps, which is what the serving subsystem (:mod:`repro.serve`)
builds on.

:func:`shared_engine` hands out one long-lived engine per mode, so
interpreter entry points (``run_script``, ``api.eval``) that are called
without an explicit engine reuse warm program and plan caches instead
of paying the full compile pipeline on every call.
"""

from __future__ import annotations

import threading

from repro.codegen.plan_cache import BuildOnceLRU
from repro.compiler.pipeline import (
    MODE_POLICIES,
    CompilationContext,
    build_pipeline,
    compile_program,
)
from repro.compiler.program_cache import (
    MAX_CACHED_PROGRAMS,
    compile_signed,
    sign_dag,
)
from repro.compiler.recompile import Recompiler
from repro.config import CodegenConfig, DEFAULT_CONFIG
from repro.errors import RuntimeExecError
from repro.hops.hop import Hop
from repro.runtime.distributed import SparkExecutor
from repro.runtime.executor import ProgramExecutor

_MODES = tuple(MODE_POLICIES)

_shared_engines: dict[str, "Engine"] = {}
_shared_engines_lock = threading.Lock()


def shared_engine(mode: str = "gen") -> "Engine":
    """A process-wide engine for ``mode``, created on first use.

    Callers that do not manage an engine themselves (``run_script``
    without an ``engine=``, bare ``api.eval``) share these instances so
    repeated invocations hit warm plan and specialization caches.
    """
    with _shared_engines_lock:
        engine = _shared_engines.get(mode)
        if engine is None:
            engine = Engine(mode=mode)
            _shared_engines[mode] = engine
        return engine


class Engine:
    """Executes HOP DAGs under one of the experimental configurations.

    ``execute`` compiles each distinct DAG signature once and reruns
    the cached program for rebuilt blocks; ``compile`` always runs the
    full pipeline on the given hops (inspection, serving).
    """

    def __init__(self, mode: str = "gen", config: CodegenConfig | None = None):
        if mode not in _MODES:
            raise RuntimeExecError(f"unknown engine mode '{mode}' (use {_MODES})")
        self.mode = mode
        self.config = config or DEFAULT_CONFIG.copy()
        self.context = CompilationContext(mode, self.config)
        if self.config.lockset_debug:
            # Process-wide debug instrumentation: reports land in this
            # engine's stats (repro.analysis.lockset; idempotent).
            from repro.analysis import lockset

            lockset.enable(stats=self.stats)
        self._pipeline = build_pipeline(mode)
        self._spark = (
            SparkExecutor(self.config.cluster, self.config, self.stats)
            if self.config.cluster is not None
            else None
        )
        self.executor = ProgramExecutor(
            self.config, self.stats, self._spark,
            recompiler=Recompiler(self.context),
        )
        # DAG signature -> CachedProgram (programs over symbolic leaves).
        self._programs = BuildOnceLRU(MAX_CACHED_PROGRAMS,
                                      "Engine._programs")

    # Backward-compatible views onto the shared compilation context.
    @property
    def stats(self):
        return self.context.stats

    @property
    def plan_cache(self):
        return self.context.plan_cache

    @property
    def tracer(self):
        """The engine's span tracer (no-op unless config.trace_level)."""
        return self.context.tracer

    # ------------------------------------------------------------------
    def compile(self, roots: list[Hop]):
        """Run the compiler pipeline and lower to a runtime Program."""
        return compile_program(roots, self.context, self._pipeline)

    def execute(self, roots: list[Hop]) -> list:
        """Execute a multi-root DAG; returns root values.

        The DAG compiles once per signature: a hit reruns the cached
        program with this call's input blocks bound, a miss compiles a
        symbolic clone (the caller's DAG is never rewritten).
        """
        with self.tracer.span("evaluate", cat="request",
                              n_roots=len(roots)):
            signed = sign_dag(roots)
            if signed is None:  # already-optimized hops: compile as is
                return self.executor.run(self.compile(roots))
            cached, hit = self._programs.get_or_build(
                signed.key, lambda: compile_signed(signed, self.compile)
            )
            with self.stats.lock:
                self.stats.program_cache_lookups += 1
                self.stats.program_cache_hits += hit
            return self.executor.run(cached.program,
                                     cached.bindings(signed.blocks))

    # ------------------------------------------------------------------
    # Observability (repro.obs).
    # ------------------------------------------------------------------
    def export_trace(self, path: str) -> str:
        """Write buffered spans as Chrome trace-event JSON.

        Load the file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  With ``trace_level="off"`` the file holds
        an empty ``traceEvents`` list.  Returns ``path``.
        """
        return self.tracer.export_chrome_trace(path)

    def profile_report(self):
        """Per-operator profile aggregated from the span buffer.

        Returns a :class:`~repro.obs.profile.ProfileReport`: ``str()``
        renders the explain-style text table, ``.data`` holds the raw
        per-operator aggregation.  Requires
        ``trace_level="instructions"`` or ``"full"`` for per-operator
        rows (phases-level traces profile compile phases only).
        """
        from repro.obs.profile import profile

        return profile(self.tracer, self.stats)

    # ------------------------------------------------------------------
    # Serving entry points (thin delegates into repro.serve).
    # ------------------------------------------------------------------
    def prepare(self, builder, name: str = "prepared",
                batch_inputs: tuple = (), **options):
        """Prepare an expression builder for repeated serving.

        ``builder`` receives a dict of named input placeholders
        (:class:`~repro.api.Mat`) and returns the output expression(s).
        Returns a :class:`~repro.serve.PreparedProgram` whose lowered
        plans are cached per input-shape signature.
        """
        from repro.serve import PreparedProgram

        return PreparedProgram(self, builder, name=name,
                               batch_inputs=tuple(batch_inputs), **options)

    def prepare_script(self, source: str, name: str = "script",
                       batch_inputs: tuple = (), **options):
        """Prepare a parameterized script (declared ``input`` slots)."""
        from repro.serve import PreparedProgram

        return PreparedProgram.from_script(self, source, name=name,
                                           batch_inputs=tuple(batch_inputs),
                                           **options)

    def close(self) -> None:
        """Release the executor's thread pool (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
