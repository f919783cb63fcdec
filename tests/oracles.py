"""Independent oracles the tests check the library against.

Everything here is written from the definitions with the dumbest correct
algorithm available (finite differences, explicit enumeration, dense
restacking) and deliberately shares no code with the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def fd_gradient(f, w, rel_step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    w = np.asarray(w, dtype=np.float64)
    g = np.zeros_like(w)
    for k in range(w.size):
        h = rel_step * (1.0 + abs(w[k]))
        up = w.copy()
        dn = w.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (f(up) - f(dn)) / (2.0 * h)
    return g


def fd_hessian(grad, w, rel_step=1e-6):
    """Central finite differences of a gradient function."""
    w = np.asarray(w, dtype=np.float64)
    d = w.size
    H = np.zeros((d, d))
    for k in range(d):
        h = rel_step * (1.0 + abs(w[k]))
        up = w.copy()
        dn = w.copy()
        up[k] += h
        dn[k] -= h
        H[:, k] = (grad(up) - grad(dn)) / (2.0 * h)
    return 0.5 * (H + H.T)


def logistic_nll(rows, y, w, mu):
    """Ridge logistic loss with one row per sample, summed term by term."""
    total = 0.0
    for x, label in zip(rows, y):
        u = float(x @ w)
        total += max(u, 0.0) + math.log1p(math.exp(-abs(u))) - label * u
    return total + mu * float(w @ w)


def logistic_gradient(rows, y, w, mu):
    """Per-sample gradient: sum of (sigma(u) - y) x, plus 2 mu w."""
    g = 2.0 * mu * np.asarray(w, dtype=np.float64)
    for x, label in zip(rows, y):
        g = g + (1.0 / (1.0 + math.exp(-float(x @ w))) - label) * x
    return g


def logistic_hessian(rows, y, w, mu):
    """Per-sample Hessian: sum of s (1 - s) x x^T, plus 2 mu I."""
    H = 2.0 * mu * np.eye(len(w))
    for x in rows:
        s = 1.0 / (1.0 + math.exp(-float(x @ w)))
        H = H + s * (1.0 - s) * np.outer(x, x)
    return H


def logistic_newton(rows, y, iters=50):
    """Unregularized per-sample logistic MLE by plain Newton from zero."""
    w = np.zeros(rows.shape[1])
    for _ in range(iters):
        g = logistic_gradient(rows, y, w, 0.0)
        if np.linalg.norm(g) <= 1e-11:
            break
        w = w - np.linalg.solve(logistic_hessian(rows, y, w, 0.0), g)
    return w


def kendall_distance_enum(pos_a, pos_b):
    """Discordant-pair count by explicit enumeration."""
    n = len(pos_a)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (pos_a[i] - pos_a[j]) * (pos_b[i] - pos_b[j]) < 0:
                count += 1
    return count


def expected_outer(diffs):
    """E[x x^T] as an explicit sum of per-pair outer products."""
    d = diffs.shape[1]
    acc = np.zeros((d, d))
    for row in diffs:
        acc += np.outer(row, row)
    return acc / diffs.shape[0]


def certificate_quantities(diffs):
    """lambda, eta, zeta, beta by direct dense linear algebra (numpy only)."""
    npairs, _ = diffs.shape
    EZ = expected_outer(diffs)
    lam = float(np.linalg.eigvalsh(EZ)[0])
    acc = np.zeros_like(EZ)
    for row in diffs:
        Z = np.outer(row, row)
        D = Z - EZ
        acc += D @ D
    eta = float(np.linalg.eigvalsh(acc / npairs)[-1])
    zeta = -math.inf
    for row in diffs:
        zeta = max(zeta, float(np.linalg.eigvalsh(EZ - np.outer(row, row))[-1]))
    beta = float(np.abs(diffs).max())
    return lam, eta, zeta, beta


def char_poly_eigvals_2x2(A):
    """Eigenvalues of a symmetric 2x2 from the quadratic formula."""
    a, b, c = A[0, 0], A[0, 1], A[1, 1]
    mean = (a + c) / 2.0
    disc = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
    return np.array([mean - disc, mean + disc])


def char_poly_eigvals_3x3(A):
    """Eigenvalues of a symmetric 3x3 as roots of the characteristic polynomial."""
    coeffs = np.poly(A)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def transitivity_counts(probs):
    """Triple classification by direct enumeration over a pair->prob dict.

    probs maps canonical (i, j), i < j, to P(i beats j).  Returns
    (checked, strong, moderate, weak) counting each unordered triple at most
    once via the first qualifying orientation in lexicographic order.
    """
    items = sorted({x for pair in probs for x in pair})

    def p(x, y):
        return probs[(x, y)] if x < y else 1.0 - probs[(y, x)]

    def present(x, y):
        return ((x, y) in probs) if x < y else ((y, x) in probs)

    checked = strong = moderate = weak = 0
    for a, b, c in itertools.combinations(items, 3):
        if not (present(a, b) and present(b, c) and present(a, c)):
            continue
        chosen = None
        for x, y, z in itertools.permutations((a, b, c)):
            if p(x, y) > 0.5 and p(y, z) > 0.5:
                chosen = (x, y, z)
                break
        if chosen is None:
            continue
        checked += 1
        x, y, z = chosen
        if p(x, z) < max(p(x, y), p(y, z)):
            strong += 1
        if p(x, z) < min(p(x, y), p(y, z)):
            moderate += 1
        if p(x, z) < 0.5:
            weak += 1
    return checked, strong, moderate, weak


def two_point_variance(a, b):
    """Sample variance of two scalars around their mean."""
    mu = (a + b) / 2.0
    return ((a - mu) ** 2 + (b - mu) ** 2) / 2.0
