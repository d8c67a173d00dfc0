"""Independent NumPy/SciPy references for every workload program.

Each function computes the same math as its counterpart in
``scripts.py`` directly with NumPy, from the same seeded initial values,
and never through another engine mode.  The kernel references avoid
large temporaries (``einsum``, gathers over non-zeros), so the
process's peak memory reflects the engine's intermediates.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def l2svm(x, y, lam: float, outer: int, inner: int) -> dict:
    n, m = x.shape
    g = x.T @ y
    g_norm = float(np.sum(g * g))
    s = g
    w, xw = np.zeros((m, 1)), np.zeros((n, 1))
    loss = None
    for _ in range(outer):
        xd = x @ s
        wd, dd = lam * float(np.sum(w * s)), lam * float(np.sum(s * s))
        step = 0.0
        for _ in range(inner):
            out = np.maximum(1.0 - y * (xw + step * xd), 0.0)
            g_val = wd + step * dd - float(np.sum(out * y * xd))
            h_val = dd + float(np.sum(xd * xd * (out > 0.0)))
            step -= g_val / h_val
        w = w + step * s
        xw = xw + step * xd
        out = np.maximum(1.0 - y * xw, 0.0)
        g = x.T @ (out * y) - lam * w
        g_new_norm = float(np.sum(g * g))
        loss = float(np.sum(out * out) + lam * np.sum(w * w))
        s = (g_new_norm / g_norm) * s + g
        g_norm = g_new_norm
    return {"w": w, "loss": loss}


def _observed_product(x, a, b):
    """(X != 0) * (A t(B)) for sparse X, evaluated at X's non-zeros."""
    coo = x.tocoo()
    vals = np.einsum("ij,ij->i", a[coo.row], b[coo.col])
    return sp.csr_matrix((vals, (coo.row, coo.col)), shape=x.shape)


def _cg_update(x, fixed, target, lam: float, inner: int):
    grad = _observed_product(x, target, fixed) @ fixed - x @ fixed + lam * target
    r, d = grad, -grad
    rr = float(np.sum(r * r))
    delta = np.zeros(target.shape)
    for _ in range(inner):
        hd = _observed_product(x, d, fixed) @ fixed + lam * d
        alpha = rr / float(np.sum(d * hd))
        delta = delta + alpha * d
        r = r + alpha * hd
        rr_new = float(np.sum(r * r))
        d = -r + (rr_new / rr) * d
        rr = rr_new
    return target + delta


def als_cg(x, u0, v0, lam: float, outer: int, inner: int) -> dict:
    xt = x.T.tocsr()
    u, v = u0, v0
    loss = None
    for _ in range(outer):
        u = _cg_update(x, v, u, lam, inner)
        v = _cg_update(xt, u, v, lam, inner)
        coo = x.tocoo()
        pred = np.einsum("ij,ij->i", u[coo.row], v[coo.col])
        loss = float(np.sum((coo.data - pred) ** 2)
                     + lam * (np.sum(u * u) + np.sum(v * v)))
    return {"U": u, "V": v, "loss": loss}


def autoencoder(x, init: dict, order, batch: int, lr: float) -> dict:
    p = dict(init)
    loss = None
    for start in range(0, len(order) - batch + 1, batch):
        xb = x[order[start:start + batch]]
        h1 = sigmoid(xb @ p["W1"] + p["b1"])
        h2 = sigmoid(h1 @ p["W2"] + p["b2"])
        h3 = sigmoid(h2 @ p["W3"] + p["b3"])
        xh = sigmoid(h3 @ p["W4"] + p["b4"])
        loss = float(np.sum((xh - xb) ** 2))
        d4 = (xh - xb) * xh * (1.0 - xh)
        d3 = (d4 @ p["W4"].T) * h3 * (1.0 - h3)
        d2 = (d3 @ p["W3"].T) * h2 * (1.0 - h2)
        d1 = (d2 @ p["W2"].T) * h1 * (1.0 - h1)
        scale = lr / float(batch)
        p = {
            "W1": p["W1"] - scale * (xb.T @ d1),
            "W2": p["W2"] - scale * (h1.T @ d2),
            "W3": p["W3"] - scale * (h2.T @ d3),
            "W4": p["W4"] - scale * (h3.T @ d4),
            "b1": p["b1"] - scale * d1.sum(axis=0, keepdims=True),
            "b2": p["b2"] - scale * d2.sum(axis=0, keepdims=True),
            "b3": p["b3"] - scale * d3.sum(axis=0, keepdims=True),
            "b4": p["b4"] - scale * d4.sum(axis=0, keepdims=True),
        }
    p["loss"] = loss
    return p


def kmeans(x, c0, iters: int) -> dict:
    x_sq = np.sum(x * x, axis=1, keepdims=True)
    c = c0
    wcss = None
    for _ in range(iters):
        d_part = -2.0 * (x @ c.T) + np.sum(c * c, axis=1)[None, :]
        d_min = d_part.min(axis=1, keepdims=True)
        p_raw = (d_part <= d_min).astype(np.float64)
        p = p_raw / p_raw.sum(axis=1, keepdims=True)
        wcss = float(np.sum(x_sq + d_min))
        c = (p.T @ x) / np.maximum(p.sum(axis=0)[:, None], 1e-30)
    return {"centroids": c, "wcss": wcss}


def _outer(d):
    coo = d["Xo"].tocoo()
    uv = np.einsum("ij,ij->i", d["U"][coo.row], d["V"][coo.col])
    return [float(np.dot(coo.data, np.log(uv + 1e-15)))]


KERNELS = {
    "cell_dense": lambda d: [np.einsum("ij,ij,ij->", d["X"], d["Y"], d["Z"])],
    "cell_sparse": lambda d: [float(d["Xs"].multiply(d["Y"]).multiply(d["Z"]).sum())],
    "magg": lambda d: [np.einsum("ij,ij->", d["X"], d["Y"]),
                       np.einsum("ij,ij->", d["X"], d["Z"])],
    "row_dense": lambda d: [d["Xr"].T @ (d["Xr"] @ d["v"])],
    "row_sparse": lambda d: [np.asarray(d["Xrs"].T @ (d["Xrs"] @ d["v"]))],
    "outer": _outer,
    "cla_cell": lambda d: [float(np.dot(d["Xc_raw"].ravel(), d["Xc_raw"].ravel()))],
}


def scoring(x, w) -> dict:
    margin = x @ w
    return {"margin": margin, "prob": sigmoid(margin),
            "hinge": np.maximum(1.0 - margin, 0.0)}


def agrees(actual, expected, rtol: float) -> bool:
    """Max-abs error within ``rtol`` of the reference's max-abs value.

    ``actual`` may hold engine blocks (anything with ``to_dense``),
    floats, or nested dicts/lists of them; a dict is checked on the
    reference's keys.  NaN never agrees.
    """
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and expected.keys() <= actual.keys()
                and all(agrees(actual[k], expected[k], rtol) for k in expected))
    if isinstance(expected, (list, tuple)):
        return (len(actual) == len(expected)
                and all(agrees(a, e, rtol) for a, e in zip(actual, expected)))
    if hasattr(actual, "to_dense"):
        actual = actual.to_dense()
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    if a.size == 1 and e.size == 1:
        a, e = a.reshape(()), e.reshape(())
    if a.shape != e.shape or not np.all(np.isfinite(a)):
        return False
    scale = float(np.max(np.abs(e))) if e.size else 0.0
    return bool(np.max(np.abs(a - e), initial=0.0) <= rtol * max(scale, 1e-300))
