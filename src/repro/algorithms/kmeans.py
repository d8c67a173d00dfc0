"""K-Means clustering (Lloyd's algorithm), following SystemML's script.

Per iteration: squared Euclidean distances via

    D = -2 * X %*% t(C) + rowSums(C^2)  (+ rowSums(X^2), constant)

assignments via ``P = (D <= rowMins(D))`` with tie normalization, and
the centroid update ``C = (t(P) %*% X) / t(colSums(P))``.  The distance
and assignment expressions are large fused Cell/Row chains; the
objective is a fused multi-aggregate.
"""

from __future__ import annotations

import numpy as np

from repro import api
from repro.algorithms.common import FitResult, as_block, default_engine, evaluate, leaf
from repro.runtime.matrix import MatrixBlock


def kmeans(x, n_centroids: int = 5, engine=None, tol: float = 1e-12,
           max_iter: int = 20, seed: int = 0) -> FitResult:
    """Cluster rows of x into ``n_centroids`` groups (one run).

    Returns centroids plus the within-cluster sum of squares per
    iteration.
    """
    engine = engine or default_engine()
    x_block = as_block(x)
    n, m = x_block.shape
    rng = np.random.default_rng(seed)
    centroid_block = MatrixBlock(
        x_block.to_dense()[rng.choice(n, size=n_centroids, replace=False)]
    )

    # rowSums(X^2) is loop-invariant (matches the SystemML script).
    X = leaf(x_block, "X")
    (x_sq_block,) = evaluate(engine, (X * X).row_sums())

    losses: list[float] = []
    iteration = 0
    prev_loss = np.inf
    while iteration < max_iter:
        X, C = leaf(x_block, "X"), leaf(centroid_block, "C")
        x_sq = leaf(x_sq_block, "Xsq")
        # Distances without the constant rowSums(X^2) term; the
        # objective adds it back (fused row/cell chains).
        d_part = -2.0 * (X @ C.T) + (C * C).row_sums().T
        p_raw = d_part <= d_part.row_mins()
        # Normalize ties so each row sums to one.
        p_norm = p_raw / p_raw.row_sums()
        (p_block, wcss) = evaluate(
            engine,
            p_norm,
            (x_sq + (p_raw * d_part).row_mins()).sum(),
        )
        losses.append(wcss)

        # Centroid update (t(P) %*% X row template, fused divide).
        X, P = leaf(x_block, "X"), leaf(p_block, "P")
        (centroid_block,) = evaluate(
            engine, (P.T @ X) / api.maximum(P.col_sums().T, 1e-30)
        )
        iteration += 1
        # No convergence test against the initial inf: inf - wcss is
        # inf, which ``tol * inf`` would always accept.
        if np.isfinite(prev_loss) and \
                abs(prev_loss - wcss) <= tol * max(abs(prev_loss), 1.0):
            break
        prev_loss = wcss

    return FitResult(
        model={"centroids": centroid_block},
        losses=losses,
        n_outer_iterations=iteration,
    )
