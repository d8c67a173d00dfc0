"""The engine's program cache: each statement-block DAG compiles once.

``Engine.execute`` keys a DAG by its exact signature; a hit reruns the
cached program with the new input blocks bound, a miss compiles a
symbolic clone.  The contract: hits compile nothing and equal a fresh
compile; any change the compiler could see is a miss; cached programs
hold no input data; the caller's DAG is never rewritten.
"""

import gc
import math
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.codegen.plan_cache import BuildOnceLRU
from repro.compiler.execution import Engine
from repro.compiler.program_cache import sign_dag
from repro.config import ClusterConfig, CodegenConfig
from repro.hops.hop import DataOp, collect_dag
from repro.runtime.compressed import compress
from repro.runtime.matrix import MatrixBlock
from tests.conftest import ALL_MODES, as_array, make_engine

RNG = np.random.default_rng(23)
XD = RNG.random((40, 12))
YD = RNG.random((40, 12))
VD = RNG.random((12, 1))


def _lookups(engine, outcome):
    stats = engine.stats
    if outcome == "hit":
        return stats.program_cache_hits
    return stats.program_cache_lookups - stats.program_cache_hits


def _build(xd=XD, yd=YD, lit=2.0):
    x = api.matrix(xd, "X")
    y = api.matrix(yd, "Y")
    v = api.matrix(VD, "v")
    return [(x * y * lit).sum(), x.T @ (x @ v), api.exp(x * 0.25).row_sums()]


def _key(exprs):
    return sign_dag([e.hop for e in exprs]).key


class TestHits:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_hit_compiles_nothing_and_is_bit_identical(self, mode):
        engine = make_engine(mode)
        first = [as_array(v) for v in api.eval_all(_build(), engine=engine)]
        compiled = engine.stats.n_programs_compiled
        classes = engine.stats.n_classes_compiled
        lookups = engine.stats.plan_cache_lookups
        for _ in range(3):
            again = [as_array(v)
                     for v in api.eval_all(_build(), engine=engine)]
            for expected, actual in zip(first, again):
                assert np.array_equal(actual, expected)
        assert engine.stats.n_programs_compiled == compiled == 1
        assert engine.stats.n_classes_compiled == classes
        assert engine.stats.plan_cache_lookups == lookups
        assert _lookups(engine, "hit") == 3
        assert _lookups(engine, "miss") == 1

    def test_hit_binds_new_data(self):
        """Same signature, different values: the rerun reads the new
        blocks, not the ones the program was compiled against."""
        engine = make_engine("gen")
        api.eval_all(_build(), engine=engine)
        other = RNG.random(XD.shape)
        total = api.eval_all(_build(xd=other), engine=engine)[0]
        assert engine.stats.n_programs_compiled == 1
        assert total == pytest.approx(float((other * YD * 2.0).sum()),
                                      rel=1e-12)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_modes_match_uncached_oracle(self, mode):
        engine = make_engine(mode)
        api.eval_all(_build(), engine=engine)  # miss
        cached = api.eval_all(_build(), engine=engine)  # hit
        oracle_engine = make_engine(mode)
        roots = [e.hop for e in _build()]
        oracle = oracle_engine.executor.run(oracle_engine.compile(roots))
        for expected, actual in zip(oracle, cached):
            np.testing.assert_allclose(as_array(actual), as_array(expected),
                                       rtol=1e-12, atol=0)


class TestMisses:
    def test_dims_change_misses(self):
        assert _key(_build()) != _key(_build(xd=XD[:20], yd=YD[:20]))

    def test_nnz_change_misses(self):
        sparser = XD.copy()
        sparser[0, :] = 0.0
        assert _key(_build()) != _key(_build(xd=sparser))

    def test_storage_change_misses(self):
        csr = MatrixBlock(sp.csr_matrix(XD))
        assert csr.is_sparse and csr.nnz == MatrixBlock(XD).nnz
        assert _key(_build()) != _key(_build(xd=csr))

    def test_literal_value_misses(self):
        assert _key(_build(lit=2.0)) != _key(_build(lit=3.0))

    def test_literals_keyed_by_exact_bits(self):
        assert _key(_build(lit=0.0)) != _key(_build(lit=-0.0))
        assert _key(_build(lit=math.nan)) == _key(_build(lit=math.nan))
        assert _key(_build(lit=1.0)) != _key(_build(lit=1.0 + 2**-52))

    def test_aliasing_misses(self):
        block = MatrixBlock(XD)
        same = api.matrix(block, "X") * api.matrix(block, "X")
        two = api.matrix(XD, "X") * api.matrix(XD.copy(), "Y")
        assert _key([same.sum()]) != _key([two.sum()])

    def test_compressed_identity_misses(self):
        data = np.repeat(RNG.integers(0, 4, size=(1, 12)), 40, axis=0) * 1.0
        first, second = compress(MatrixBlock(data)), compress(MatrixBlock(data))

        def expr(cm):
            return [(api.matrix(cm, "C") * api.matrix(XD, "X")).sum()]

        assert _key(expr(first)) == _key(expr(first))
        assert _key(expr(first)) != _key(expr(second))

    def test_root_order_misses(self):
        x = api.matrix(XD, "X")
        a, b = x.sum(), (x * 2.0).sum()
        assert _key([a, b]) != _key([b, a])

    def test_misses_compile_and_agree(self):
        engine = make_engine("gen")
        for lit in (2.0, 3.0):
            total = api.eval(_build(lit=lit)[0], engine=engine)
            assert total == pytest.approx(float((XD * YD * lit).sum()))
        assert engine.stats.n_programs_compiled == 2
        assert _lookups(engine, "miss") == 2


class TestNoPinnedData:
    def test_bound_block_dies_after_eval(self):
        engine = make_engine("gen")
        block = MatrixBlock(RNG.random((40, 12)))
        ref = weakref.ref(block)
        x = api.matrix(block, "X")
        api.eval((x * x * 2.0).sum(), engine=engine)
        del x, block
        gc.collect()
        assert ref() is None
        assert engine.stats.n_programs_compiled == 1  # engine still alive

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_cached_entries_hold_no_matrix_data(self, mode):
        engine = make_engine(mode)
        api.eval_all(_build(), engine=engine)
        (cached,) = list(engine._programs._entries.values())
        program = cached.program
        for _, value in program.constants:
            assert not isinstance(value, (MatrixBlock, np.ndarray))
        hops = collect_dag([instr.hop for instr in program.instructions])
        for hop in hops:
            if isinstance(hop, DataOp):
                assert not isinstance(hop.data, (MatrixBlock, np.ndarray))


class TestCallerDag:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_user_dag_reevaluates(self, mode):
        exprs = _build()
        hop_ids = {h.id for h in collect_dag([e.hop for e in exprs])}
        engine = make_engine(mode)
        first = [as_array(v) for v in api.eval_all(exprs, engine=engine)]
        assert {h.id for h in collect_dag([e.hop for e in exprs])} == hop_ids
        again = api.eval_all(exprs, engine=engine)
        fresh = api.eval_all(exprs, engine=make_engine(mode))
        for expected, a, b in zip(first, again, fresh):
            assert np.array_equal(as_array(a), expected)
            np.testing.assert_allclose(as_array(b), expected, rtol=1e-12)


class TestAdaptiveRecompile:
    def test_unknown_nnz_recompiles_on_every_cached_run(self):
        arr = np.zeros((300, 200))
        mask = np.random.default_rng(5).random(arr.shape) < 0.01
        arr[mask] = 1.5
        engine = Engine(mode="gen",
                        config=CodegenConfig(adaptive_recompile=True))
        expected = (arr * 3.0) * np.abs(arr)
        for run in range(1, 4):
            x = api.matrix(MatrixBlock(arr), "X", nnz_unknown=True)
            result = api.eval((x * 3.0) * api.abs_(x), engine=engine)
            assert engine.stats.n_recompiles == run
            assert np.array_equal(result.to_dense(), expected)
        assert _lookups(engine, "hit") == 2


class TestDistributedBindings:
    @staticmethod
    def _engine(backend):
        return Engine(mode="gen", config=CodegenConfig(
            cluster=ClusterConfig(n_workers=4, executor_mem=10e6),
            local_mem_budget=2e4, distributed_backend=backend,
            mp_workers=2,
        ))

    def test_simulated_and_multiprocess_agree(self):
        rng = np.random.default_rng(8)
        arrays = [rng.random((400, 12)) for _ in range(2)]
        results = {}
        for backend in ("simulated", "multiprocess"):
            engine = self._engine(backend)
            try:
                runs = []
                for arr in arrays:
                    x = api.matrix(arr, "X")
                    runs.append([as_array(v) for v in api.eval_all(
                        [(x * x * 2.0).sum(), x.T @ (x * 0.5)],
                        engine=engine)])
                assert engine.stats.n_programs_compiled == 1
                assert engine.stats.n_distributed_ops >= 1
                results[backend] = runs
            finally:
                engine.close()
        for sim, mp in zip(results["simulated"], results["multiprocess"]):
            for a, b in zip(sim, mp):
                assert np.array_equal(a, b)
        arr = arrays[1]
        np.testing.assert_allclose(results["simulated"][1][0],
                                   (arr * arr * 2.0).sum(), rtol=1e-12)


class TestBuildOnceLRU:
    def test_lru_bound_holds(self):
        cache = BuildOnceLRU(3, "test")
        for key in range(5):
            cache.get_or_build(key, lambda k=key: k * 10)
        assert len(cache) == 3
        assert cache.get_or_build(4, lambda: -1) == (40, True)
        cache.get_or_build(2, lambda: -1)  # refresh 2; 3 is now coldest
        cache.get_or_build(5, lambda: 50)
        assert cache.get_or_build(3, lambda: 33) == (33, False)
        assert cache.get_or_build(2, lambda: -1) == (20, True)

    def test_engine_cache_is_bounded(self, monkeypatch):
        from repro.compiler import execution

        monkeypatch.setattr(execution, "MAX_CACHED_PROGRAMS", 2)
        engine = make_engine("base")
        for lit in (1.0, 2.0, 3.0, 4.0):
            api.eval(_build(lit=lit)[0], engine=engine)
        assert len(engine._programs) == 2
        api.eval(_build(lit=1.0)[0], engine=engine)  # evicted: recompiles
        assert engine.stats.n_programs_compiled == 5

    def test_concurrent_misses_build_once(self):
        cache = BuildOnceLRU(4, "test")
        calls = []
        gate = threading.Event()

        def build():
            calls.append(1)
            gate.wait(5)
            return "value"

        results = []
        threads = [threading.Thread(
            target=lambda: results.append(cache.get_or_build("k", build)))
            for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the other threads reach the in-flight wait
        gate.set()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert sorted(hit for _, hit in results) == [False, True, True, True]

    def test_failed_build_hands_over(self):
        cache = BuildOnceLRU(4, "test")

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", fail)
        assert cache.get_or_build("k", lambda: 7) == (7, False)
