"""Hot numeric kernels, all vectorized numpy.

The likelihood folds run over one row per distinct pair.  Certificate
eigenvalues come from LAPACK (``np.linalg.eigvalsh``); the zeta scan takes
the caller's eigendecomposition of E[Z] and solves one secular equation per
pair; the transitivity scan enumerates chains x -> y -> z through one middle
item at a time and keeps only the violating rows.
"""

from __future__ import annotations

import numpy as np


def sigmoid(u):
    """Overflow-safe logistic function, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


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
# symmetric eigenvalues
# ---------------------------------------------------------------------------


def sym_eigvals(A):
    """Ascending eigenvalues of a small dense symmetric matrix (LAPACK)."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square 2-d array")
    return np.linalg.eigvalsh(A)


# ---------------------------------------------------------------------------
# max-eigenvalue scan over rank-one downdates: max_p lambda_max(EZ - x_p x_p^T)
#
# With EZ = Q diag(lam) Q^T (lam ascending), z = Q^T x and gaps
# g_k = lam[-1] - lam[k], the top eigenvalue of EZ - x x^T is lam[-1] - t,
# where t is the root in [0, min(z_d^2, g_{d-1})] of the secular equation
# (Golub 1973; Bunch, Nielsen & Sorensen 1978)
#     phi(t) = t (1 + sum_{k<d} z_k^2 / (g_k - t)) - z_d^2 = 0.
# A zero bracket (z_d = 0, a repeated top eigenvalue, a zero row) gives t = 0.
# phi is increasing and convex on the bracket, so a Newton step taken right of
# the root stays right of it; a step that leaves the sign bracket of phi falls
# back to bisection.
# ---------------------------------------------------------------------------

_ZETA_BLOCK = 1_000_000  # entries of the per-block z table
_SECULAR_MAX_STEPS = 200
_SECULAR_RTOL = 4.0 * np.finfo(np.float64).eps


def _secular_roots(zk2, zd2, gaps, hi):
    """Per row, the root t in [0, hi] of phi (see above); O(d) per step."""
    t = np.zeros_like(zd2)
    rows = np.nonzero(hi > 0.0)[0]
    zk2, zd2, hi = zk2[rows], zd2[rows], hi[rows]
    lo = np.zeros(rows.size)
    # phi(z_d^2) >= 0, so start there unless it is the pole g_{d-1}
    cur = np.where(hi < gaps[-1], hi, 0.5 * hi)
    for _ in range(_SECULAR_MAX_STEPS):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # next to the pole phi may overflow; bisection takes over there
            inv = 1.0 / (gaps - cur[:, None])
            terms = zk2 * inv
            s = terms.sum(axis=1)
            phi = cur * (1.0 + s) - zd2
            step = cur - phi / (1.0 + s + cur * (terms * inv).sum(axis=1))
        right = phi >= 0.0
        hi = np.where(right, cur, hi)
        lo = np.where(right, lo, cur)
        # at the root the step may land on a bracket end by roundoff: stop there
        settled = np.abs(step - cur) <= _SECULAR_RTOL * cur
        nxt = np.where(settled | ((step > lo) & (step < hi)), step, 0.5 * (lo + hi))
        done = settled | (hi - lo <= _SECULAR_RTOL * hi)
        t[rows[done]] = nxt[done]
        keep = ~done
        if not keep.any():
            break
        rows, zk2, zd2, lo, hi, cur = (
            rows[keep], zk2[keep], zd2[keep], lo[keep], hi[keep], nxt[keep]
        )
    else:
        t[rows] = cur
    return t


def zeta_scan(spectrum, X):
    """max over rows x_p of X of the largest eigenvalue of EZ - x_p x_p^T.

    ``spectrum`` is ``np.linalg.eigh(EZ)``: ascending eigenvalues, eigenvectors.
    """
    lam, Q = spectrum
    top = lam[-1]
    gaps = top - lam[:-1]
    npairs, d = X.shape
    step = max(1, _ZETA_BLOCK // d)
    t_min = np.inf
    for lo in range(0, npairs, step):
        z2 = (X[lo : lo + step] @ Q) ** 2
        zd2 = z2[:, -1]
        if d == 1:  # no other eigenvalue: the root is z_1^2 itself
            t = zd2
        else:
            t = _secular_roots(z2[:, :-1], zd2, gaps, np.minimum(zd2, gaps[-1]))
        t_min = min(t_min, float(t.min()))
    return float(top - t_min)


# ---------------------------------------------------------------------------
# stochastic-transitivity triple scan
#
# An unordered triple whose three pairwise probabilities are all present is
# checked through its first chain orientation (x, y, z) in lexicographic order,
# a chain being P[x, y] > 1/2 and P[y, z] > 1/2, and classified:
#   strong violation    P[x, z] < max(P[x, y], P[y, z])
#   moderate violation  P[x, z] < min(P[x, y], P[y, z])
#   weak violation      P[x, z] < 1/2
# The scan enumerates chains through each middle item y: x over the items that
# beat y, z over those y beats.  A triple has at most one chain unless it is a
# cycle x -> y -> z -> x, which has three; the one starting at the triple's
# smallest item is the first in lexicographic order, so it alone is kept.
# Only violating rows (x, y, z, moderate, weak) outlive their block, sorted at
# the end into lexicographic order of the sorted triple, so memory is
# O(n^2 + violations).  A listed row is always a strong violation since weak
# implies moderate implies strong here.
# ---------------------------------------------------------------------------


def transitivity_scan(P, present):
    link = present & (P > 0.5)
    checked = 0
    blocks = [np.empty((0, 5), dtype=np.int64)]
    for y in range(P.shape[0]):
        xs, zs = np.flatnonzero(link[:, y]), np.flatnonzero(link[y])
        xc = xs[:, None]
        xi, zi = np.nonzero(present[xc, zs] & (~link[zs, xc] | ((xc < y) & (xc < zs))))
        x, z = xs[xi], zs[zi]
        checked += x.size
        pxy, pyz, pxz = P[x, y], P[y, z], P[x, z]
        rows = np.column_stack(
            (x, np.full_like(x, y), z, pxz < np.minimum(pxy, pyz), pxz < 0.5)
        )
        blocks.append(rows[pxz < np.maximum(pxy, pyz)].astype(np.int64, copy=False))
    viol = np.concatenate(blocks)
    key = np.sort(viol[:, :3], axis=1)
    return checked, viol[np.lexsort(key.T[::-1])]
