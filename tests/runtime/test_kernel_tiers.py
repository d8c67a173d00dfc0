"""Compiled vs interpreted tier: differential grid and tier resolution.

Differential grid (template × out-type × main storage) asserting that
the compiled drivers reproduce both the interpreted tile-loop drivers
and the unfused base interpreter — exactly for order-preserving
kernels, within ``KERNEL_COMPARE_RTOL`` where a whole-array
aggregation reassociates.  The base-mode oracle stays independent for
the table cells where both tiers share one driver.  Plus unit tests for
compile-on-first-use, failure pinning, kernel sharing through the plan
cache and serving specializations, and the source-hash compile cache.
"""

import numpy as np
import pytest

from repro import api
from repro.codegen import npgen
from repro.codegen.plan_cache import compile_source
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.compressed import compress
from repro.runtime.matrix import MatrixBlock
from repro.runtime.skeletons import KERNEL_COMPARE_RTOL
from repro.runtime.stats import RuntimeStats

ROWS, COLS = 96, 24


def _engine(backend: str, **kwargs) -> Engine:
    config = CodegenConfig(intra_op_threads=1, **kwargs)
    if backend == "interpreted":
        config.vectorized_kernels = False
    return Engine(mode="gen", config=config)


def _as_arrays(values):
    return [
        v.to_dense() if isinstance(v, MatrixBlock) else np.float64(v)
        for v in values
    ]


def _main_block(storage: str) -> object:
    rng = np.random.default_rng(23)
    if storage == "dense":
        return MatrixBlock(rng.uniform(0.1, 1.0, (ROWS, COLS)))
    if storage == "sparse":
        return MatrixBlock.rand(
            ROWS, COLS, sparsity=0.15, seed=23, low=0.2, high=1.5
        )
    return compress(MatrixBlock(np.round(rng.uniform(0, 3, (ROWS, COLS)))))


def _check_grid_cell(build, backend, rtol, atol):
    """Compiled results against the interpreted tier and base mode."""
    engine = _engine(backend)
    compiled = _as_arrays(api.eval_all(build(), engine=engine))
    oracles = {
        "interpreted": api.eval_all(build(), engine=_engine("interpreted")),
        "base": api.eval_all(build(), engine=Engine(mode="base")),
    }
    for name, values in oracles.items():
        for idx, (expected, actual) in enumerate(
            zip(_as_arrays(values), compiled)
        ):
            np.testing.assert_allclose(
                actual, expected, rtol=rtol, atol=atol,
                err_msg=f"oracle={name} output={idx}",
            )
    return engine


# ----------------------------------------------------------------------
# Differential grid: template × out-type × storage
# ----------------------------------------------------------------------
_CELL_RECIPES = {
    "no_agg": lambda x, y: [x * y * 2.0],
    "row_agg": lambda x, y: [(x * y).row_sums()],
    "col_agg": lambda x, y: [(x * y).col_sums()],
    "full_agg": lambda x, y: [(x * y).sum()],
    "multi_agg": lambda x, y: [(x * y).sum(), (x * x).sum()],
    "full_agg_selfmul": lambda x, y: [(x * x).sum()],
}

_ROW_RECIPES = {
    "no_agg": lambda x, v: [api.sigmoid(x @ v)],
    "col_agg_t": lambda x, v: [x.T @ (x @ v)],
    "full_agg": lambda x, v: [(x @ v).sum()],
}

_OUTER_RECIPES = {
    "outer_no_agg": lambda s, u, v: [s * (u @ v.T)],
    "outer_left": lambda s, u, v: [((s != 0.0) * (u @ v.T)).T @ u],
    "outer_right": lambda s, u, v: [((s != 0.0) * (u @ v.T)) @ v],
    "outer_full_agg": lambda s, u, v: [
        (s * api.log(u @ v.T + 1e-15)).sum()
    ],
}


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize("storage", ["dense", "sparse", "compressed"])
@pytest.mark.parametrize("out_type", sorted(_CELL_RECIPES))
def test_cell_grid_compiled_matches_interpreted(out_type, storage, backend):
    main = _main_block(storage)
    side = np.random.default_rng(5).uniform(0.5, 1.5, (ROWS, COLS))

    def build():
        x = api.matrix(main, "X")
        y = api.matrix(side, "Y")
        return _CELL_RECIPES[out_type](x, y)

    engine = _check_grid_cell(build, backend, KERNEL_COMPARE_RTOL, 1e-12)
    # Every storage runs compiled: dictionary-compatible compressed
    # plans and sparse-safe CSR plans run the one shared driver,
    # other compressed plans decompress first.
    summary = engine.stats.kernel_summary()
    assert summary["n_compiled_runs"] >= 1


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize("storage", ["dense", "sparse", "compressed"])
@pytest.mark.parametrize("out_type", sorted(_ROW_RECIPES))
def test_row_grid_compiled_matches_interpreted(out_type, storage, backend):
    main = _main_block(storage)
    vec = np.random.default_rng(6).uniform(0.1, 1.0, (COLS, 1))

    def build():
        x = api.matrix(main, "X")
        v = api.matrix(vec, "v")
        return _ROW_RECIPES[out_type](x, v)

    _check_grid_cell(build, backend, KERNEL_COMPARE_RTOL, 1e-12)


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize("storage", ["sparse", "dense", "compressed"])
@pytest.mark.parametrize("out_type", sorted(_OUTER_RECIPES))
def test_outer_grid_compiled_matches_interpreted(out_type, storage, backend):
    rng = np.random.default_rng(9)
    if storage == "sparse":
        driver = MatrixBlock.rand(120, 100, sparsity=0.08, seed=31)
    elif storage == "dense":
        driver = MatrixBlock(rng.uniform(0.1, 1.0, (120, 100)))
    else:
        driver = compress(MatrixBlock(
            np.round(rng.uniform(0, 3, (120, 100)))))
    u = rng.uniform(0.1, 1.0, (120, 4))
    v = rng.uniform(0.1, 1.0, (100, 4))

    def build():
        s = api.matrix(driver, "S")
        um, vm = api.matrix(u, "U"), api.matrix(v, "V")
        return _OUTER_RECIPES[out_type](s, um, vm)

    _check_grid_cell(build, backend, 1e-8, 1e-11)


@pytest.mark.parametrize("recipe", ["full_agg", "multi_agg"])
def test_compressed_cell_kernel_runs_dictionary_direct(recipe):
    """An eligible (sparse-safe, side-free, sum-aggregated) plan over a
    compressed main runs the dictionary-direct driver on the compiled
    tier too — no decompression."""
    main = _main_block("compressed")

    def build():
        x = api.matrix(main, "X")
        if recipe == "full_agg":
            return [((x * x) * 2.0).sum()]
        return [(x * x).sum(), ((x * x) * (x * 3.0)).sum()]

    engine = _check_grid_cell(build, "vectorized", KERNEL_COMPARE_RTOL,
                              1e-12)
    summary = engine.stats.kernel_summary()
    assert summary["n_compiled_runs"] >= 1
    compressed = engine.stats.compressed_summary()
    assert compressed["n_compressed_ops"] >= 1
    assert compressed["n_decompressions"] == 0


def test_elementwise_kernels_bit_identical():
    """Order-preserving kernels reproduce the oracle exactly."""
    rng = np.random.default_rng(77)
    xd = rng.uniform(-1.0, 1.0, (200, 40))
    yd = rng.uniform(-1.0, 1.0, (200, 40))

    def build():
        x, y = api.matrix(xd, "X"), api.matrix(yd, "Y")
        return [api.abs_(x * y) + x, (x * y).row_sums()]

    oracle = _as_arrays(api.eval_all(build(), engine=_engine("interpreted")))
    compiled = _as_arrays(api.eval_all(build(), engine=_engine("vectorized")))
    for expected, actual in zip(oracle, compiled):
        assert np.array_equal(actual, expected)


def test_kernels_compose_with_intra_op_parallelism():
    """All partitions of one execution run the same (compiled) tier."""
    data = np.random.default_rng(41).uniform(0.1, 1.0, (256, 32))

    def build():
        x = api.matrix(data, "X")
        return [(x * x).sum(), api.sigmoid(x) * 2.0]

    serial = _as_arrays(api.eval_all(
        build(), engine=_engine("vectorized")))
    engine = Engine(mode="gen", config=CodegenConfig(
        intra_op_threads=4, intra_op_min_cells=1))
    parallel = _as_arrays(api.eval_all(build(), engine=engine))
    for expected, actual in zip(serial, parallel):
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-12)
    stats = engine.stats
    assert stats.n_intra_op_parallel >= 1
    assert stats.n_compiled_runs >= 1


# ----------------------------------------------------------------------
# Tier resolution
# ----------------------------------------------------------------------
class TestPromotion:
    def _eval_once(self, engine):
        rng = np.random.default_rng(3)
        x = api.matrix(rng.uniform(0.1, 1.0, (64, 16)), "X")
        y = api.matrix(rng.uniform(0.1, 1.0, (64, 16)), "Y")
        return float(api.eval((x * y).sum(), engine=engine))

    def test_threshold_zero_compiles_on_first_execution(self):
        """The kernel compiles at the operator's first execution."""
        engine = _engine("vectorized")
        self._eval_once(engine)
        summary = engine.stats.kernel_summary()
        assert summary["n_kernel_compiles"] == 1
        assert summary["n_compiled_runs"] == 1
        assert summary["n_interpreted_runs"] == 0

    def test_disabled_kernels_stay_interpreted(self):
        engine = _engine("interpreted")
        self._eval_once(engine)
        summary = engine.stats.kernel_summary()
        assert summary["n_kernel_compiles"] == 0
        assert summary["n_compiled_runs"] == 0
        assert summary["n_interpreted_runs"] == 1

    def test_kernel_shared_across_executions(self):
        """Plan-cache-shared operators compile their kernel once."""
        engine = _engine("vectorized")
        for _ in range(4):
            self._eval_once(engine)
        summary = engine.stats.kernel_summary()
        assert summary["n_kernel_compiles"] == 1
        assert summary["n_compiled_runs"] == 4
        assert summary["compiled_run_fraction"] == 1.0

    def test_compile_failure_pins_operator_interpreted(self, monkeypatch):
        def broken(cplan, config, stats=None):
            raise RuntimeError("emission bug")

        monkeypatch.setattr(npgen, "compile_kernel", broken)
        oracle = self._eval_once(_engine("interpreted"))
        engine = _engine("vectorized")
        results = [self._eval_once(engine) for _ in range(2)]
        assert results == [oracle, oracle]
        summary = engine.stats.kernel_summary()
        # One failed compile; the pinned operator never retries.
        assert summary["n_kernel_failures"] == 1
        assert summary["n_kernel_compiles"] == 0
        assert summary["n_interpreted_runs"] == 2

    def test_driver_failure_reruns_interpreted(self, monkeypatch):
        def raising_entry(*args):
            raise RuntimeError("kernel bug")

        def fake(cplan, config, stats=None):
            return npgen.CompiledKernel("fake", "", raising_entry)

        monkeypatch.setattr(npgen, "compile_kernel", fake)
        oracle = self._eval_once(_engine("interpreted"))
        engine = _engine("vectorized")
        assert self._eval_once(engine) == oracle
        # The failed driver pinned the operator: the next run resolves
        # straight to the interpreted tier.
        assert self._eval_once(engine) == oracle
        summary = engine.stats.kernel_summary()
        assert summary["n_compiled_runs"] == 1
        assert summary["n_interpreted_runs"] == 1


# ----------------------------------------------------------------------
# Sharing: serving specializations and the source-hash cache
# ----------------------------------------------------------------------
class TestKernelSharing:
    def test_serving_specializations_share_kernel(self):
        """Shape specializations reuse one compiled kernel.

        The semantic hash ignores absolute sizes, so both shape
        specializations of the prepared program resolve to the same
        GeneratedOperator — and therefore the same compiled kernel.
        """
        engine = Engine(mode="gen", config=CodegenConfig(intra_op_threads=1))
        prepared = engine.prepare(
            lambda s: (s["X"] * s["Y"]).sum(), name="dot"
        )
        rng = np.random.default_rng(13)
        for rows in (32, 32, 48, 48, 32):
            inputs = {
                "X": rng.uniform(0.1, 1.0, (rows, 8)),
                "Y": rng.uniform(0.1, 1.0, (rows, 8)),
            }
            prepared.run(inputs)
        summary = engine.stats.kernel_summary()
        assert summary["n_compiled_runs"] == 5
        # One kernel compile serves both shape specializations.
        assert summary["n_kernel_compiles"] == 1

    def test_source_cache_returns_same_namespace(self):
        source = "def genexec(a, b, s):\n    return a\n"
        stats = RuntimeStats()
        ns1 = compile_source("TMP_SRC_TEST", source, "exec", stats=stats)
        before = stats.n_source_cache_hits
        ns2 = compile_source("TMP_SRC_TEST", source, "exec", stats=stats)
        assert ns1 is ns2
        assert stats.n_source_cache_hits == before + 1
        assert ns1["genexec"]("x", [], []) == "x"

    def test_source_cache_distinguishes_backends_and_source(self):
        stats = RuntimeStats()
        a = compile_source("TMP_SRC_A", "def genexec(a, b, s):\n    return 1\n",
                           "exec", stats=stats)
        b = compile_source("TMP_SRC_A", "def genexec(a, b, s):\n    return 2\n",
                           "exec", stats=stats)
        assert a is not b
        assert a["genexec"](0, [], []) == 1
        assert b["genexec"](0, [], []) == 2
