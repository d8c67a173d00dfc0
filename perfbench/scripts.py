"""The workloads' programs, written against the public ``repro.api``.

The algorithm scripts live here rather than in ``repro.algorithms`` so
that a change to the program cannot change the workload.  Each one
follows its SystemML script statement block by statement block: every
``ev(engine, ...)`` call is one ``api.eval_all`` over a multi-root DAG
(one unit of the ``train`` and ``hybrid`` workloads), and loop-carried
values come back as blocks that the next block binds as fresh inputs.
Iteration counts are fixed, so the engine and the NumPy references in
``reference.py`` take the same control path.
"""

from __future__ import annotations

import numpy as np

from repro import api


def bind(value, name: str):
    # Looked up on the module at each call, so the traced run's wrapper
    # around api.matrix sees every binding.
    return api.matrix(value, name)


def l2svm(ev, engine, x, y, lam: float, outer: int, inner: int) -> dict:
    """L2-regularized squared-hinge SVM: nonlinear CG, Newton line search."""
    n, m = x.shape
    (g,) = ev(engine, bind(x, "X").T @ bind(y, "Y"))
    (g_norm,) = ev(engine, (bind(g, "g") * bind(g, "g")).sum())
    s = g
    w, xw = np.zeros((m, 1)), np.zeros((n, 1))
    loss = None
    for _ in range(outer):
        X, S, W = bind(x, "X"), bind(s, "s"), bind(w, "w")
        xd, wd, dd = ev(engine, X @ S, lam * (W * S).sum(), lam * (S * S).sum())
        step = 0.0
        for _ in range(inner):
            XD, XW, Y = bind(xd, "Xd"), bind(xw, "Xw"), bind(y, "Y")
            out = api.maximum(1.0 - Y * (XW + step * XD), 0.0)
            g_val, h_val = ev(
                engine,
                wd + step * dd - (out * Y * XD).sum(),
                dd + ((XD * XD) * (out > 0.0)).sum(),
            )
            step -= g_val / h_val
        X, Y = bind(x, "X"), bind(y, "Y")
        W, S = bind(w, "w"), bind(s, "s")
        XD, XW = bind(xd, "Xd"), bind(xw, "Xw")
        new_w = W + step * S
        new_xw = XW + step * XD
        out = api.maximum(1.0 - Y * new_xw, 0.0)
        g_new = X.T @ (out * Y) - lam * new_w
        w, xw, g, g_new_norm, loss = ev(
            engine, new_w, new_xw, g_new, (g_new * g_new).sum(),
            (out * out).sum() + lam * (new_w * new_w).sum(),
        )
        (s,) = ev(engine, (g_new_norm / g_norm) * bind(s, "s") + bind(g, "g"))
        g_norm = g_new_norm
    return {"w": w, "loss": loss}


def _cg_update(ev, engine, x, fixed, target, lam: float, inner: int):
    """One CG solve for a factor with Expression (1) as the matvec."""
    X, T, F = bind(x, "X"), bind(target, "T"), bind(fixed, "F")
    grad = ((X != 0.0) * (T @ F.T)) @ F - X @ F + lam * T
    r, d = ev(engine, grad, -grad)
    (rr,) = ev(engine, (bind(r, "r") * bind(r, "r")).sum())
    delta = np.zeros(target.shape)
    for _ in range(inner):
        X, D, F = bind(x, "X"), bind(d, "D"), bind(fixed, "F")
        (hd,) = ev(engine, ((X != 0.0) * (D @ F.T)) @ F + lam * D)
        (dhd,) = ev(engine, (bind(d, "D") * bind(hd, "HD")).sum())
        alpha = rr / dhd
        DT, D = bind(delta, "dT"), bind(d, "D")
        R, HD = bind(r, "r"), bind(hd, "HD")
        delta, r, rr_new = ev(
            engine, DT + alpha * D, R + alpha * HD,
            ((R + alpha * HD) * (R + alpha * HD)).sum(),
        )
        (d,) = ev(engine, -bind(r, "r") + (rr_new / rr) * bind(d, "D"))
        rr = rr_new
    (updated,) = ev(engine, bind(target, "T") + bind(delta, "dT"))
    return updated


def als_cg(ev, engine, x, u0, v0, lam: float, outer: int, inner: int) -> dict:
    """Rank-r factorization X ~ U t(V) by alternating CG solves."""
    (xt,) = ev(engine, bind(x, "X").T)
    u, v = u0, v0
    loss = None
    for _ in range(outer):
        u = _cg_update(ev, engine, x, v, u, lam, inner)
        v = _cg_update(ev, engine, xt, u, v, lam, inner)
        X, U, V = bind(x, "X"), bind(u, "U"), bind(v, "V")
        (loss,) = ev(
            engine,
            (((X - U @ V.T) ** 2.0) * (X != 0.0)).sum()
            + lam * ((U * U).sum() + (V * V).sum()),
        )
    return {"U": u, "V": v, "loss": loss}


def autoencoder(ev, engine, x, init: dict, order, batch: int,
                lr: float) -> dict:
    """Two-layer sigmoid autoencoder, one epoch of mini-batch SGD."""
    p = dict(init)
    loss = None
    for start in range(0, len(order) - batch + 1, batch):
        xb = x[order[start:start + batch]]
        X = bind(xb, "X")
        W1, W2, W3, W4 = (bind(p[k], k) for k in ("W1", "W2", "W3", "W4"))
        B1, B2, B3, B4 = (bind(p[k], k) for k in ("b1", "b2", "b3", "b4"))
        h1 = api.sigmoid(X @ W1 + B1)
        h2 = api.sigmoid(h1 @ W2 + B2)
        h3 = api.sigmoid(h2 @ W3 + B3)
        xh = api.sigmoid(h3 @ W4 + B4)
        h1_b, h2_b, h3_b, xh_b, loss = ev(
            engine, h1, h2, h3, xh, ((xh - X) * (xh - X)).sum())

        X = bind(xb, "X")
        H1, H2, H3 = bind(h1_b, "H1"), bind(h2_b, "H2"), bind(h3_b, "H3")
        XH = bind(xh_b, "Xh")
        W2, W3, W4 = bind(p["W2"], "W2"), bind(p["W3"], "W3"), bind(p["W4"], "W4")
        d4 = (XH - X) * api.sprop(XH)
        d3 = (d4 @ W4.T) * api.sprop(H3)
        d2 = (d3 @ W3.T) * api.sprop(H2)
        d1 = (d2 @ W2.T) * api.sprop(H1)
        d4_b, d3_b, d2_b, d1_b = ev(engine, d4, d3, d2, d1)

        scale = lr / float(batch)
        X = bind(xb, "X")
        H1, H2, H3 = bind(h1_b, "H1"), bind(h2_b, "H2"), bind(h3_b, "H3")
        D1, D2 = bind(d1_b, "D1"), bind(d2_b, "D2")
        D3, D4 = bind(d3_b, "D3"), bind(d4_b, "D4")
        W1, W2, W3, W4 = (bind(p[k], k) for k in ("W1", "W2", "W3", "W4"))
        B1, B2, B3, B4 = (bind(p[k], k) for k in ("b1", "b2", "b3", "b4"))
        values = ev(
            engine,
            W1 - scale * (X.T @ D1), W2 - scale * (H1.T @ D2),
            W3 - scale * (H2.T @ D3), W4 - scale * (H3.T @ D4),
            B1 - scale * D1.col_sums(), B2 - scale * D2.col_sums(),
            B3 - scale * D3.col_sums(), B4 - scale * D4.col_sums(),
        )
        p = dict(zip(("W1", "W2", "W3", "W4", "b1", "b2", "b3", "b4"), values))
    p["loss"] = loss
    return p


def kmeans(ev, engine, x, c0, iters: int) -> dict:
    """Lloyd's algorithm with the SystemML distance and update blocks."""
    (x_sq,) = ev(engine, (bind(x, "X") * bind(x, "X")).row_sums())
    c = c0
    wcss = None
    for _ in range(iters):
        X, C, XSQ = bind(x, "X"), bind(c, "C"), bind(x_sq, "Xsq")
        d_part = -2.0 * (X @ C.T) + (C * C).row_sums().T
        p_raw = d_part <= d_part.row_mins()
        p, wcss = ev(engine, p_raw / p_raw.row_sums(),
                     (XSQ + d_part.row_mins()).sum())
        X, P = bind(x, "X"), bind(p, "P")
        (c,) = ev(engine, (P.T @ X) / api.maximum(P.col_sums().T, 1e-30))
    return {"centroids": c, "wcss": wcss}


#: The Fig 8 template expressions of the ``kernels`` workload: each
#: function binds its inputs afresh (as a caller evaluating one
#: expression would) and returns the roots of one ``eval_all``.
KERNELS = {
    "cell_dense": lambda d: [
        (bind(d["X"], "X") * bind(d["Y"], "Y") * bind(d["Z"], "Z")).sum()],
    "cell_sparse": lambda d: [
        (bind(d["Xs"], "X") * bind(d["Y"], "Y") * bind(d["Z"], "Z")).sum()],
    "magg": lambda d: [
        (bind(d["X"], "X") * bind(d["Y"], "Y")).sum(),
        (bind(d["X"], "X") * bind(d["Z"], "Z")).sum()],
    "row_dense": lambda d: [
        bind(d["Xr"], "X").T @ (bind(d["Xr"], "X") @ bind(d["v"], "v"))],
    "row_sparse": lambda d: [
        bind(d["Xrs"], "X").T @ (bind(d["Xrs"], "X") @ bind(d["v"], "v"))],
    "outer": lambda d: [
        (bind(d["Xo"], "X")
         * api.log(bind(d["U"], "U") @ bind(d["V"], "V").T + 1e-15)).sum()],
    "cla_cell": lambda d: [(bind(d["Xc"], "X") ** 2.0).sum()],
}

#: The scoring script of the ``serve`` workload.
SCORING_SCRIPT = """
input X, w
margin = X %*% w
prob = 1 / (1 + exp(0 - margin))
hinge = max(1 - margin, 0)
"""
