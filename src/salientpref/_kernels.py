"""Hot numeric kernels.

The likelihood folds are vectorized numpy.  The eigenvalue, deflation and
triple scans exist twice: a loop implementation compiled with ``numba.njit``
and a vectorized numpy fallback.  The active path is chosen once at import
time: numba is used when it imports cleanly and the environment variable
``SALIENTPREF_NO_NUMBA`` is unset (any of ``1/true/yes`` disables it).

The two paths agree to floating-point roundoff (different summation orders),
never bit-for-bit; callers that promise byte-stable output get it because the
path is fixed for the lifetime of the process.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

_ENV_FLAG = os.environ.get("SALIENTPREF_NO_NUMBA", "").strip().lower()
_DISABLED = _ENV_FLAG in {"1", "true", "yes", "on"}

try:
    if _DISABLED:
        raise ImportError("numba disabled via SALIENTPREF_NO_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:  # pragma: no cover - depends on environment
    NUMBA_ENABLED = False

# Jacobi sweep limit and relative off-diagonal tolerance.
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 64


def sigmoid(u):
    """Overflow-safe logistic function, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(u):
    """log(1 + exp(u)) without overflow, elementwise."""
    return np.logaddexp(0.0, np.asarray(u, dtype=np.float64))


def logistic_curvature(u):
    """h(u) = e^u / (1 + e^u)^2, the logistic second derivative (symmetric)."""
    e = np.exp(-np.abs(np.asarray(u, dtype=np.float64)))
    return e / (1.0 + e) ** 2


# ---------------------------------------------------------------------------
# negative log-likelihood fold over distinct pairs: value / gradient / Hessian
#
# Row p of X is a pair's masked difference; the pair was compared total[p]
# times and its first item won wins[p] of them (the binomial form of the
# logistic loss).  These folds are numpy only.
# ---------------------------------------------------------------------------


def nll_value(X, total, wins, w, mu):
    u = X @ w
    with np.errstate(invalid="ignore", over="ignore"):
        # non-finite values propagate; the caller checks and reports them
        return float(total @ np.logaddexp(0.0, u) - wins @ u + mu * (w @ w))


def nll_grad(X, total, wins, w, mu):
    return X.T @ (total * sigmoid(X @ w) - wins) + 2.0 * mu * w


def nll_hess(X, total, wins, w, mu):
    h = total * logistic_curvature(X @ w)
    H = (X * h[:, None]).T @ X
    H = 0.5 * (H + H.T)
    H[np.diag_indices_from(H)] += 2.0 * mu
    return H


# ---------------------------------------------------------------------------
# symmetric eigenvalues: cyclic Jacobi rotations
# ---------------------------------------------------------------------------


def _jacobi_eigvals_loop(A):
    d = A.shape[0]
    B = A.copy()
    if d == 1:
        return B[0].copy()
    norm_a = 0.0
    for p in range(d):
        for q in range(d):
            norm_a += B[p, q] * B[p, q]
    norm_a = np.sqrt(norm_a)
    tol = _JACOBI_TOL * norm_a
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off += 2.0 * B[p, q] * B[p, q]
        if np.sqrt(off) <= tol:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = B[p, q]
                if abs(apq) <= _JACOBI_TOL * norm_a / (d * d):
                    continue
                theta = (B[q, q] - B[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                for k in range(d):
                    bkp = B[k, p]
                    bkq = B[k, q]
                    B[k, p] = c * bkp - s * bkq
                    B[k, q] = s * bkp + c * bkq
                for k in range(d):
                    bpk = B[p, k]
                    bqk = B[q, k]
                    B[p, k] = c * bpk - s * bqk
                    B[q, k] = s * bpk + c * bqk
    eigs = np.empty(d)
    for p in range(d):
        eigs[p] = B[p, p]
    return np.sort(eigs)


# The Jacobi routine is the single eigensolver for the d x d certificate
# matrices on both paths; only bulk per-pair scans fall back to LAPACK.
_jacobi_impl = _jacobi_eigvals_loop


def sym_eigvals(A):
    """Ascending eigenvalues of a small dense symmetric matrix."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square 2-d array")
    return _jacobi_impl(A)


# ---------------------------------------------------------------------------
# max-eigenvalue scan over rank-one deflations: max_p lambda_max(EZ - x_p x_p^T)
# ---------------------------------------------------------------------------


def _zeta_scan_np(EZ, X):
    npairs, d = X.shape
    best = -np.inf
    step = max(1, 2_000_000 // max(1, d * d))
    for lo in range(0, npairs, step):
        blk = X[lo : lo + step]
        A = EZ[None, :, :] - blk[:, :, None] * blk[:, None, :]
        ev = np.linalg.eigvalsh(A)
        top = float(ev[:, -1].max())
        if top > best:
            best = top
    return best


def _zeta_scan_loop(EZ, X):
    npairs, d = X.shape
    best = -np.inf
    A = np.empty((d, d))
    for p in range(npairs):
        for a in range(d):
            for b in range(d):
                A[a, b] = EZ[a, b] - X[p, a] * X[p, b]
        ev = _jacobi_impl(A)
        if ev[d - 1] > best:
            best = ev[d - 1]
    return best


# ---------------------------------------------------------------------------
# stochastic-transitivity triple scan
#
# For each unordered triple {a < b < c} whose three pairwise probabilities are
# all present, the six orientations (x, y, z) are tried in lexicographic order
# and the first with P[x, y] > 1/2 and P[y, z] > 1/2 is classified:
#   strong violation    P[x, z] < max(P[x, y], P[y, z])
#   moderate violation  P[x, z] < min(P[x, y], P[y, z])
#   weak violation      P[x, z] < 1/2
# Violating rows are (x, y, z, moderate, weak); a listed row is always a
# strong violation since weak implies moderate implies strong here.
# ---------------------------------------------------------------------------


def _pick_orientation(P, present, a, b, c):
    if present[a, b] and present[b, c] and present[a, c]:
        if P[a, b] > 0.5 and P[b, c] > 0.5:
            return a, b, c, True
        if P[a, c] > 0.5 and P[c, b] > 0.5:
            return a, c, b, True
        if P[b, a] > 0.5 and P[a, c] > 0.5:
            return b, a, c, True
        if P[b, c] > 0.5 and P[c, a] > 0.5:
            return b, c, a, True
        if P[c, a] > 0.5 and P[a, b] > 0.5:
            return c, a, b, True
        if P[c, b] > 0.5 and P[b, a] > 0.5:
            return c, b, a, True
    return 0, 0, 0, False


def _transitivity_scan_loop(P, present):
    n = P.shape[0]
    checked = 0
    nviol = 0
    for a in range(n - 2):
        for b in range(a + 1, n - 1):
            for c in range(b + 1, n):
                x, y, z, found = _pick_orientation(P, present, a, b, c)
                if not found:
                    continue
                checked += 1
                if P[x, z] < max(P[x, y], P[y, z]):
                    nviol += 1
    viol = np.empty((nviol, 5), dtype=np.int64)
    k = 0
    for a in range(n - 2):
        for b in range(a + 1, n - 1):
            for c in range(b + 1, n):
                x, y, z, found = _pick_orientation(P, present, a, b, c)
                if not found:
                    continue
                pxy = P[x, y]
                pyz = P[y, z]
                pxz = P[x, z]
                if pxz < max(pxy, pyz):
                    viol[k, 0] = x
                    viol[k, 1] = y
                    viol[k, 2] = z
                    viol[k, 3] = 1 if pxz < min(pxy, pyz) else 0
                    viol[k, 4] = 1 if pxz < 0.5 else 0
                    k += 1
    return checked, viol


def _transitivity_scan_np(P, present):
    n = P.shape[0]
    if n < 3:
        return 0, np.empty((0, 5), dtype=np.int64)
    idx = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64)
    a, b, c = idx[:, 0], idx[:, 1], idx[:, 2]
    orients = ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))
    tri_present = present[a, b] & present[b, c] & present[a, c]
    valid = np.zeros((6, len(idx)), dtype=bool)
    for o, (x, y, z) in enumerate(orients):
        valid[o] = tri_present & (P[x, y] > 0.5) & (P[y, z] > 0.5)
    any_valid = valid.any(axis=0)
    rows = np.nonzero(any_valid)[0]
    if rows.size == 0:
        return 0, np.empty((0, 5), dtype=np.int64)
    first = valid[:, rows].argmax(axis=0)
    xs = np.stack([o[0] for o in orients])[first, rows]
    ys = np.stack([o[1] for o in orients])[first, rows]
    zs = np.stack([o[2] for o in orients])[first, rows]
    pxy = P[xs, ys]
    pyz = P[ys, zs]
    pxz = P[xs, zs]
    strong = pxz < np.maximum(pxy, pyz)
    moderate = pxz < np.minimum(pxy, pyz)
    weak = pxz < 0.5
    sel = np.nonzero(strong)[0]
    viol = np.empty((sel.size, 5), dtype=np.int64)
    viol[:, 0] = xs[sel]
    viol[:, 1] = ys[sel]
    viol[:, 2] = zs[sel]
    viol[:, 3] = moderate[sel]
    viol[:, 4] = weak[sel]
    return int(rows.size), viol


# ---------------------------------------------------------------------------
# path selection
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    _jacobi_jit = njit(cache=True)(_jacobi_eigvals_loop)
    _jacobi_impl = _jacobi_jit
    _zeta_scan_jit = njit(cache=True)(_zeta_scan_loop)
    _pick_orientation = njit(cache=True)(_pick_orientation)
    _transitivity_scan_jit = njit(cache=True)(_transitivity_scan_loop)

    zeta_scan = _zeta_scan_jit
    transitivity_scan = _transitivity_scan_jit
else:
    zeta_scan = _zeta_scan_np
    transitivity_scan = _transitivity_scan_np


def implementations(name):
    """Available (label, callable) pairs for one kernel, for benchmarks/tests."""
    table = {
        "zeta_scan": [("numpy", _zeta_scan_np)],
        "transitivity_scan": [("numpy", _transitivity_scan_np)],
    }
    if NUMBA_ENABLED:
        table["zeta_scan"].append(("numba", _zeta_scan_jit))
        table["transitivity_scan"].append(("numba", _transitivity_scan_jit))
    return table[name]
