"""The batch workloads: ``train``, ``kernels`` and ``hybrid``.

A workload's set-up draws its inputs from the seed, creates its engine
where one is shared, and warms the process up.  One round runs every
program once on the engine; the runner times rounds, units and the NumPy
references around it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import reference
import scripts
from spans import UNIT_SPAN

from repro import api
from repro.compiler import Engine
from repro.config import ClusterConfig, CodegenConfig
from repro.runtime.compressed import compress
from repro.runtime.matrix import MatrixBlock

#: Engine counters the benchmark reads as deltas over a round.
COUNT_FIELDS = (
    "n_plans_evaluated", "n_programs_compiled", "n_recompiles",
    "n_instructions_executed", "n_decompressions",
    "plan_cache_hits", "plan_cache_lookups",
    "n_compiled_runs", "n_interpreted_runs",
    "n_requests_served", "n_requests_batched",
    "n_specialization_hits", "n_specialization_misses",
    "sim_seconds",  # simulated network/IO seconds of the distributed backend
)


def snapshot(stats) -> dict:
    return {f: getattr(stats, f) for f in COUNT_FIELDS}


class Round:
    """Unit timing and engine tracking for one round of a workload."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.units: list[float] = []
        self._engines: list = []

    @contextlib.contextmanager
    def unit(self):
        scope = (self.recorder.span(UNIT_SPAN) if self.recorder is not None
                 else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with scope:
                yield
        finally:
            self.units.append(time.perf_counter() - start)

    def eval(self, engine, *exprs) -> list:
        """One statement block: a single ``api.eval_all`` call."""
        with self.unit():
            return api.eval_all(list(exprs), engine=engine)

    def track(self, engine):
        """Count this engine's counter deltas from now to the round end."""
        if all(tracked is not engine for tracked, _ in self._engines):
            self._engines.append((engine, snapshot(engine.stats)))
        return engine

    def counts(self) -> dict:
        totals = dict.fromkeys(COUNT_FIELDS, 0)
        for engine, before in self._engines:
            after = snapshot(engine.stats)
            for key in totals:
                totals[key] += after[key] - before[key]
        return totals


@dataclass
class Program:
    name: str
    run: Callable[[Round], object]
    reference: Callable[[], object]


class BatchWorkload:
    name = ""
    programs: list[Program] = []

    def setup(self, seed: int) -> None:
        """Draw inputs from ``seed``, build programs, warm up (after close)."""
        raise NotImplementedError

    def close(self) -> None:
        """Drop the programs and the inputs their closures hold."""
        self.programs = []


def _fresh_fit(config, fit):
    """Run ``fit(ev, engine)`` on a new engine, as a new script run would."""
    def run(ctx: Round):
        engine = ctx.track(Engine(mode="gen", config=config))
        try:
            return fit(ctx.eval, engine)
        finally:
            engine.close()
    return run


class Train(BatchWorkload):
    """Gen-mode fits, each on a fresh engine: compile-dominated."""

    name = "train"
    LAM = 1e-3

    def setup(self, seed: int) -> None:
        rng = inputs.rng_for(seed, 1)
        x_svm, y_svm = inputs.classification(rng, 100_000, 10)
        x_als = inputs.sparse(rng, 2_000, 2_000, 0.01, low=1.0, high=5.0)
        u0 = rng.uniform(0.1, 1.0, (2_000, 8))
        v0 = rng.uniform(0.1, 1.0, (2_000, 8))
        x_ae = inputs.dense(rng, 4_000, 100)
        init = {}
        for key, rows, cols in (("W1", 100, 64), ("W2", 64, 2),
                                ("W3", 2, 64), ("W4", 64, 100)):
            bound = np.sqrt(6.0 / (rows + cols))
            init[key] = rng.uniform(-bound, bound, (rows, cols))
        for key, cols in (("b1", 64), ("b2", 2), ("b3", 64), ("b4", 100)):
            init[key] = np.zeros((1, cols))
        order = rng.permutation(4_000)
        lam = self.LAM

        def svm(outer, inner):
            return lambda ev, e: scripts.l2svm(ev, e, x_svm, y_svm, lam, outer, inner)

        def als(outer, inner):
            return lambda ev, e: scripts.als_cg(ev, e, x_als, u0, v0, lam, outer, inner)

        def ae(rows):
            return lambda ev, e: scripts.autoencoder(ev, e, x_ae, init, rows, 512, 0.01)

        config = CodegenConfig()
        self.programs = [
            Program("l2svm", _fresh_fit(config, svm(5, 3)),
                    lambda: reference.l2svm(x_svm, y_svm, lam, 5, 3)),
            Program("als_cg", _fresh_fit(config, als(2, 8)),
                    lambda: reference.als_cg(x_als, u0, v0, lam, 2, 8)),
            Program("autoencoder", _fresh_fit(config, ae(order)),
                    lambda: reference.autoencoder(x_ae, init, order, 512, 0.01)),
        ]
        # Warm-up: every statement block once, so process-wide first-use
        # costs (imports, generated-source compiles) stay out of the run.
        warm = Round()
        for fit in (svm(1, 1), als(1, 1), ae(order[:512])):
            _fresh_fit(config, fit)(warm)


class Hybrid(BatchWorkload):
    """L2SVM and KMeans past a scaled local memory budget: distributed ops."""

    name = "hybrid"
    LAM = 1e-3

    @staticmethod
    def config() -> CodegenConfig:
        # 200k x 10 dense is 16 MB; an 8 MB local budget forces SPARK
        # operators for anything touching X, with executor memory scaled
        # by the same factor (as in bench_table6_distributed.py).
        return CodegenConfig(
            cluster=ClusterConfig(n_workers=6, executor_mem=10e6),
            local_mem_budget=8e6,
        )

    def setup(self, seed: int) -> None:
        rng = inputs.rng_for(seed, 2)
        x_svm, y_svm = inputs.classification(rng, 200_000, 10)
        x_km = inputs.blobs(rng, 200_000, 10, 5)
        c0 = x_km[rng.choice(200_000, size=5, replace=False)]
        lam = self.LAM

        def svm(outer, inner):
            return lambda ev, e: scripts.l2svm(ev, e, x_svm, y_svm, lam, outer, inner)

        def km(iters):
            return lambda ev, e: scripts.kmeans(ev, e, x_km, c0, iters)

        self.programs = [
            Program("l2svm", _fresh_fit(self.config(), svm(5, 3)),
                    lambda: reference.l2svm(x_svm, y_svm, lam, 5, 3)),
            Program("kmeans", _fresh_fit(self.config(), km(5)),
                    lambda: reference.kmeans(x_km, c0, 5)),
        ]
        warm = Round()
        for fit in (svm(1, 1), km(1)):
            _fresh_fit(self.config(), fit)(warm)


class Kernels(BatchWorkload):
    """Fig 8 expressions on large inputs through one warm gen engine."""

    name = "kernels"
    #: Evaluations of each expression per round (each one a unit), so a
    #: run holds enough units for its p99.
    REPEAT = 3

    def __init__(self):
        self.engine = None

    def setup(self, seed: int) -> None:
        rng = inputs.rng_for(seed, 3)
        d = {
            "X": inputs.dense(rng, 100_000, 20),
            "Y": inputs.dense(rng, 100_000, 20),
            "Z": inputs.dense(rng, 100_000, 20),
            "Xs": inputs.sparse(rng, 100_000, 20, 0.05),
            "Xr": inputs.dense(rng, 100_000, 100),
            "v": inputs.dense(rng, 100, 1),
            "Xrs": inputs.sparse(rng, 100_000, 100, 0.01),
            "Xo": inputs.sparse(rng, 10_000, 10_000, 0.001),
            "U": inputs.dense(rng, 10_000, 10),
            "V": inputs.dense(rng, 10_000, 10),
            "Xc_raw": inputs.low_cardinality(rng, 100_000, 20, 8),
        }
        d["Xc"] = compress(MatrixBlock(d["Xc_raw"]), co_code=False)
        self.engine = Engine(mode="gen")
        self.programs = [
            Program(name, self._runner(build, d), self._reference(name, d))
            for name, build in scripts.KERNELS.items()
        ]
        for build in scripts.KERNELS.values():
            api.eval_all(build(d), engine=self.engine)

    def _runner(self, build, d):
        def run(ctx: Round):
            engine = ctx.track(self.engine)
            outputs = []
            for _ in range(self.REPEAT):
                with ctx.unit():
                    outputs.append(api.eval_all(build(d), engine=engine))
            return outputs
        return run

    def _reference(self, name, d):
        ref = reference.KERNELS[name]
        return lambda: [ref(d) for _ in range(self.REPEAT)]

    def close(self) -> None:
        super().close()
        if self.engine is not None:
            self.engine.close()
            self.engine = None


BATCH = {w.name: w for w in (Train, Kernels, Hybrid)}
