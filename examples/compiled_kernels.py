"""Two execution tiers: interpreted skeletons vs compiled kernels.

Every fused operator carries interpreted tile-loop code (`genexec`).
With ``vectorized_kernels=True`` (the default) the runtime also
compiles a whole-value vectorized variant (`genkernel`) at the
operator's first execution; both tiers share the semantic-hash plan
cache, so one compile serves every matching operator regardless of
input shape.  ``vectorized_kernels=False`` pins the interpreted tier.

The script shows three things:

1. the tier counters of each engine via ``engine.stats.kernel_summary()``
   (one kernel compile, then compiled runs only),
2. the speedup of the compiled tier on the paper's Fig 8 cell workload
   sum(X * Y * Z), which the kernel backend contracts into a single
   ``np.einsum`` call,
3. tolerance parity between the tiers.

Run:  python examples/compiled_kernels.py
"""

import time

import numpy as np

from repro import api
from repro.compiler.execution import Engine
from repro.config import CodegenConfig
from repro.runtime.matrix import MatrixBlock
from repro.runtime.skeletons import KERNEL_COMPARE_RTOL


def build(blocks):
    x, y, z = (api.matrix(b, n) for b, n in zip(blocks, "XYZ"))
    return [(x * y * z).sum()]


def time_eval(engine, blocks, repeats=5):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = api.eval_all(build(blocks), engine=engine)[0]
        best = min(best, time.perf_counter() - start)
    return best, float(value)


def main():
    blocks = tuple(MatrixBlock.rand(2000, 1000, seed=s) for s in (1, 2, 3))
    print("workload: sum(X * Y * Z), three dense 2000x1000 inputs\n")

    interp = Engine(mode="gen",
                    config=CodegenConfig(vectorized_kernels=False))
    comp = Engine(mode="gen", config=CodegenConfig())
    time_eval(interp, blocks, repeats=1)  # warmup: codegen + plan cache
    time_eval(comp, blocks, repeats=1)
    t_interp, v_interp = time_eval(interp, blocks)
    t_comp, v_comp = time_eval(comp, blocks)

    for name, engine in (("interpreted", interp), ("compiled", comp)):
        summary = engine.stats.kernel_summary()
        print(f"{name:<12} engine: "
              f"kernel compiles={summary['n_kernel_compiles']} "
              f"interpreted runs={summary['n_interpreted_runs']} "
              f"compiled runs={summary['n_compiled_runs']}")
    assert interp.stats.kernel_summary()["n_compiled_runs"] == 0
    assert comp.stats.kernel_summary()["n_kernel_compiles"] == 1
    assert comp.stats.kernel_summary()["n_interpreted_runs"] == 0

    print(f"\ninterpreted tile loops : {t_interp * 1e3:8.2f} ms")
    print(f"compiled einsum kernel : {t_comp * 1e3:8.2f} ms")
    print(f"speedup                : {t_interp / t_comp:8.2f}x")

    assert np.isclose(v_interp, v_comp, rtol=KERNEL_COMPARE_RTOL), \
        (v_interp, v_comp)
    print(f"results agree within rtol={KERNEL_COMPARE_RTOL:g}: "
          f"{v_interp:.6f} vs {v_comp:.6f}")


if __name__ == "__main__":
    main()
