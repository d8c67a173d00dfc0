"""Seeded input generators owned by the benchmark.

Every workload input is drawn here from the run's ``--seed`` with NumPy
and SciPy, never through ``repro.data``, so a change to the program
cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, input stream)."""
    return np.random.default_rng([seed, stream])


def dense(rng, rows: int, cols: int, low: float = 0.0,
          high: float = 1.0) -> np.ndarray:
    return rng.uniform(low, high, (rows, cols))


def sparse(rng, rows: int, cols: int, density: float, low: float = 1.0,
           high: float = 2.0) -> sp.csr_matrix:
    """CSR with about ``density * rows * cols`` non-zeros in [low, high).

    Positions are drawn with replacement and duplicates summed, which is
    far cheaper than ``scipy.sparse.random`` at large shapes; ``low > 0``
    keeps every stored value non-zero.
    """
    nnz = int(density * rows * cols)
    coo = sp.coo_matrix(
        (rng.uniform(low, high, nnz),
         (rng.integers(0, rows, nnz), rng.integers(0, cols, nnz))),
        shape=(rows, cols),
    )
    csr = coo.tocsr()
    csr.sum_duplicates()
    return csr


def low_cardinality(rng, rows: int, cols: int, distinct: int) -> np.ndarray:
    """Dense integer-valued matrix with ``distinct`` values per column."""
    return rng.integers(0, distinct, (rows, cols)).astype(np.float64)


def classification(rng, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Features and {-1, +1} labels from a noisy linear separator."""
    x = rng.standard_normal((rows, cols))
    w = rng.standard_normal((cols, 1))
    noise = 0.5 * rng.standard_normal((rows, 1))
    y = np.where(x @ w + noise > 0.0, 1.0, -1.0)
    return x, y


def blobs(rng, rows: int, cols: int, centers: int) -> np.ndarray:
    """Gaussian clusters around uniformly drawn centers."""
    means = rng.uniform(-5.0, 5.0, (centers, cols))
    labels = rng.integers(0, centers, rows)
    return means[labels] + rng.standard_normal((rows, cols))
