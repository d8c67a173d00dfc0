"""Plan cache and operator compilation (codegen steps 4-5).

Generated operators are maintained in a plan cache keyed by the CPlan's
semantic hash, avoiding redundant code generation and compilation for
equivalent operators — across DAGs and during dynamic recompilation
(Section 2.1).  Two compilation backends mirror the paper's janino vs
javac comparison (Figure 11):

* ``exec``: in-memory ``compile()`` + ``exec()`` (the fast janino path),
* ``file``: write the source to disk, byte-compile it, and import it as
  a module (the heavyweight javac path).

The cache is thread-safe: a serving scheduler shares one cache across
concurrent request compilations, and a concurrent miss on the same key
compiles exactly once.  :class:`BuildOnceLRU` provides that guarantee
here and under the engine's program cache and serving specializations.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib.util
import math
import os
import py_compile
import sys
import tempfile
import threading
import time
from collections import OrderedDict

from repro.analysis import lockset
from repro.codegen.cplan import CPlan
from repro.codegen.pygen import (
    GENERATED_IMPORT_MODULES,
    GeneratedOperator,
    generate_source,
)
from repro.errors import CodegenError

# Process-wide exec()-compile cache keyed by source hash: semantically
# identical operators regenerated across recompiles, specializations,
# and engines produce byte-identical source (operator names are
# deterministic functions of the semantic hash), so the compiled
# callable is reused instead of re-``exec``-ing identical code.
_SOURCE_CACHE: dict = {}
_SOURCE_CACHE_LOCK = lockset.make_lock("plan_cache._SOURCE_CACHE_LOCK")


def _source_cache_key(name: str, source: str, backend: str) -> str:
    digest = hashlib.sha256(source.encode()).hexdigest()
    return f"{backend}:{name}:{digest}"


class BuildOnceLRU:
    """A bounded LRU map whose misses build each key exactly once.

    Builds run outside the lock, so hits on other keys never queue
    behind a compile; a concurrent miss on the *same* key waits on the
    first thread's in-flight ``Event`` instead of building again.  A
    failed build wakes its waiters and one of them takes over.  A
    ``capacity`` of ``math.inf`` never evicts.
    """

    def __init__(self, capacity: float, name: str):
        self.capacity = max(1, capacity)
        self._name = name
        self._lock = lockset.make_lock(f"{name}._lock")
        self._entries: OrderedDict = OrderedDict()
        self._building: dict = {}  # key -> Event of the in-flight build

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_build(self, key, build) -> tuple:
        """``(value, hit)`` for ``key``, calling ``build()`` on a miss."""
        while True:
            with self._lock:
                lockset.note_access(self._name, self, "entries")
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    return value, True
                event = self._building.get(key)
                if event is None:
                    event = self._building[key] = threading.Event()
                    break  # this thread owns the build
            event.wait()

        try:
            value = build()
        except BaseException:
            with self._lock:
                del self._building[key]
            event.set()
            raise
        with self._lock:
            lockset.note_access(self._name, self, "entries")
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            del self._building[key]
        event.set()
        return value, False


class PlanCache:
    """CPlan-hash -> compiled operator cache (thread-safe, unbounded).

    ``enabled=False`` compiles on every lookup (the paper's Fig 11
    no-cache configuration).  Lookups and hits are counted in the
    ``plan_cache_*`` fields of the stats object passed in.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._cache = BuildOnceLRU(math.inf, "PlanCache")

    @property
    def size(self) -> int:
        """Number of cached operators."""
        return len(self._cache)

    def get_or_compile(self, cplan: CPlan, config, stats=None) -> GeneratedOperator:
        """Return a compiled operator, reusing cached equivalents.

        On a concurrent miss for the same key only one thread compiles;
        the others block until the operator lands in the cache.
        """
        if self.enabled:
            operator, hit = self._cache.get_or_build(
                cplan.semantic_hash(),
                lambda: self._compile(cplan, config, stats),
            )
        else:
            operator, hit = self._compile(cplan, config, stats), False
        if stats is not None:
            size = len(self._cache)
            with stats.lock:
                stats.plan_cache_lookups += 1
                stats.plan_cache_hits += hit
                stats.plan_cache_size = max(stats.plan_cache_size, size)
        return operator

    @staticmethod
    def _compile(cplan: CPlan, config, stats) -> GeneratedOperator:
        """Generate and compile one operator's source."""
        from repro.obs import trace as obs_trace

        tracer = stats.tracer if stats is not None else obs_trace.NULL_TRACER
        start = time.perf_counter()
        with tracer.span("codegen-source", cat="compile",
                         template=cplan.ttype.value):
            name, source = generate_source(cplan, config.inline_primitives)
            if getattr(config, "verify_level", "off") != "off":
                from repro.analysis.kernel_lint import check_source

                check_source(name, source, kind="interpreted", stats=stats)
        gen_elapsed = time.perf_counter() - start

        start = time.perf_counter()
        with tracer.span("operator-compile", cat="compile", op=name):
            genexec = compile_operator(name, source, config.compiler,
                                       stats=stats)
        compile_elapsed = time.perf_counter() - start
        if stats is not None:
            with stats.lock:
                stats.n_classes_compiled += 1
                stats.codegen_seconds += gen_elapsed + compile_elapsed
                stats.class_compile_seconds += compile_elapsed
        return GeneratedOperator(name, cplan, source, genexec)


def compile_source(name: str, source: str, backend: str = "exec",
                   stats=None) -> dict:
    """Compile generated source into a namespace, via the source cache.

    Byte-identical source compiles exactly once per process; later
    requests (recompiles, serving specializations, other engines) reuse
    the namespace and record a ``n_source_cache_hits``.  Used for both
    interpreted ``genexec`` modules and vectorized kernel modules.
    """
    key = _source_cache_key(name, source, backend)
    with _SOURCE_CACHE_LOCK:
        lockset.note_access("plan_cache", _SOURCE_CACHE, "source_cache")
        namespace = _SOURCE_CACHE.get(key)
    if namespace is not None:
        if stats is not None:
            with stats.lock:
                stats.n_source_cache_hits += 1
        return namespace
    namespace = _compile_namespace(name, source, backend)
    with _SOURCE_CACHE_LOCK:
        lockset.note_access("plan_cache", _SOURCE_CACHE, "source_cache")
        _SOURCE_CACHE.setdefault(key, namespace)
    return namespace


def compile_operator(name: str, source: str, backend: str = "exec",
                     stats=None):
    """Compile generated source and return the genexec callable."""
    return compile_source(name, source, backend, stats=stats)["genexec"]


def _restricted_import(name, globals=None, locals=None, fromlist=(),
                       level=0):
    """``__import__`` hook for generated code: allowlisted modules only.

    Generated sources import exactly the surface the kernel lint
    permits (numpy/scipy and the runtime vector primitives); anything
    else — smuggled past the lint or injected into a cached source —
    fails here at exec time.
    """
    if level == 0 and any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in GENERATED_IMPORT_MODULES
    ):
        return builtins.__import__(name, globals, locals, fromlist, level)
    raise CodegenError(
        f"generated code may not import '{name}' "
        f"(allowed: {', '.join(GENERATED_IMPORT_MODULES)})"
    )


#: The only builtins generated code executes with.  Mirrors the kernel
#: lint's name allowlist; no I/O, no introspection, no dynamic eval.
_GENERATED_BUILTINS = {
    "__import__": _restricted_import,
    "abs": abs,
    "bool": bool,
    "enumerate": enumerate,
    "float": float,
    "int": int,
    "len": len,
    "max": max,
    "min": min,
    "range": range,
    "repr": repr,
    "round": round,
    "sum": sum,
    "zip": zip,
}


def _compile_namespace(name: str, source: str, backend: str) -> dict:
    if backend == "exec":
        # Restricted namespace: generated code never sees full builtins
        # (the file backend imports a real module instead — the javac
        # analogue — and is covered by the source lint).
        namespace: dict = {"__builtins__": dict(_GENERATED_BUILTINS)}
        code = compile(source, f"<generated {name}>", "exec")
        exec(code, namespace)
        return namespace
    if backend == "file":
        tmpdir = tempfile.mkdtemp(prefix="repro_codegen_")
        path = os.path.join(tmpdir, f"{name.lower()}.py")
        with open(path, "w") as handle:
            handle.write(source)
        # Byte-compile explicitly (the expensive out-of-process step of
        # javac, approximated in-process) and import the module.
        py_compile.compile(path, doraise=True)
        spec = importlib.util.spec_from_file_location(f"repro_gen_{name}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module.__dict__
    raise CodegenError(f"unknown compiler backend '{backend}'")
