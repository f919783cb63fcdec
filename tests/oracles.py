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


def logistic_newton_on_span(rows, y, iters=50):
    """Minimum-norm per-sample logistic MLE when the rows span only part of
    R^d: plain Newton in an orthonormal basis of their span (right singular
    vectors above numpy's ``matrix_rank`` cutoff), mapped back."""
    _, sv, Vt = np.linalg.svd(rows, full_matrices=False)
    basis = Vt[sv > sv[0] * max(rows.shape) * np.finfo(np.float64).eps].T
    return basis @ logistic_newton(rows @ basis, y, iters)


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


def _m1(beta, d, delta):
    log4 = math.log(4.0 * d / delta)
    return (3.0 * beta**2 * log4 * d + 4.0 * math.sqrt(d) * beta * log4) / 6.0


def _sqrt_m_error(b_star, inv_lambda, m1):
    """4 (1 + e^b*)^2 / (e^b* lambda) * sqrt(m1): the error bound times sqrt(m)."""
    eb = math.exp(b_star)
    return 4.0 * (1.0 + eb) ** 2 / eb * inv_lambda * math.sqrt(m1)


def full_selection_constants(M, w_star):
    """(nu, beta, b*) of the full selection, pair by pair.

    The columns of M are centered first; then over every pair i < j,
    nu = max(max ||U_i - U_j||^2, 1), beta = max ||U_i - U_j||_inf and
    b* = max |<w*, U_i - U_j>|.
    """
    U = np.asarray(M, dtype=np.float64)
    U = U - U.mean(axis=1, keepdims=True)
    nu, beta, b_star = 1.0, 0.0, 0.0
    for i, j in itertools.combinations(range(U.shape[1]), 2):
        x = U[:, i] - U[:, j]
        nu = max(nu, float(x @ x))
        beta = max(beta, float(np.abs(x).max()))
        b_star = max(b_star, abs(float(x @ w_star)))
    return nu, beta, b_star


def full_selection_thresholds(U, delta, w_star):
    """(m1, m_lower, error coefficient) of the full-selection bounds.

    Written out term by term: with the centered Gram eigenvalues lmin, lmax,
    m_lower is max(m1, variance + drift) and 1/lambda is C(n,2) / (n lmin);
    lmin at or below 1e-10 of trace / d makes m_lower and the coefficient
    infinite.
    """
    U = np.asarray(U, dtype=np.float64)
    d, n = U.shape
    nu, beta, b_star = full_selection_constants(U, w_star)
    U = U - U.mean(axis=1, keepdims=True)
    npairs = n * (n - 1) // 2
    eigs = np.linalg.eigvalsh(U @ U.T)
    lmin, lmax = max(float(eigs[0]), 0.0), float(eigs[-1])
    log2 = math.log(2.0 * d / delta)
    m1 = _m1(beta, d, delta)
    if lmin <= 1e-10 * float(eigs.sum()) / d:
        return m1, math.inf, math.inf
    variance = (
        48.0 * log2 * npairs**2 / (3.0 * n**2 * lmin**2)
        * (nu * n * lmax / npairs + (n * lmax / npairs) ** 2)
    )
    drift = 8.0 * log2 * npairs / (3.0 * n * lmin) * (nu + n * lmax / npairs)
    return m1, max(m1, variance + drift), _sqrt_m_error(b_star, npairs / (n * lmin), m1)


def single_coordinate_thresholds(U, delta, w_star):
    """(m1, m3, m_lower, error coefficient) of the top_t(1) bounds.

    Written out term by term from the partition sizes s_k, the smallest and
    largest row maximum epsilon, beta, and 1/lambda = C(n,2) / (eps^2 min s_k);
    epsilon = 0 or an empty part makes m3 and the coefficient infinite.
    """
    U = np.asarray(U, dtype=np.float64)
    d = U.shape[0]
    subsets, table = masked_diff_table(U, {"kind": "top_t", "t": 1})
    npairs = len(subsets)
    sizes = [sum(1 for s in subsets if s == (k,)) for k in range(d)]
    row_max = [max(abs(v) for v in row) for row in table]
    eps, beta = min(row_max), max(row_max)
    b_star = max(abs(float(row @ w_star)) for row in table)
    log2 = math.log(2.0 * d / delta)
    m1 = _m1(beta, d, delta)
    min_pk, max_pk = min(sizes), max(sizes)
    if eps == 0.0 or min_pk == 0:
        return m1, math.inf, math.inf, math.inf
    m3 = 48.0 * log2 * beta**4 * max(npairs * s + s**2 for s in sizes) / (
        3.0 * eps**4 * min_pk**2
    ) + 8.0 * log2 * beta**2 * (npairs + max_pk) / (3.0 * eps**2 * min_pk)
    return m1, m3, max(m1, m3), _sqrt_m_error(b_star, npairs / (eps**2 * min_pk), m1)


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


def transitivity_rows(probs):
    """Violating rows by direct enumeration over a pair->prob dict.

    probs maps canonical (i, j), i < j, to P(i beats j).  Each unordered
    triple {a < b < c} with all three pairs present is oriented by the first
    permutation (x, y, z) of (a, b, c) with P(x>y) > 1/2 and P(y>z) > 1/2.
    Returns the strong violations as (x, y, z, moderate, weak) tuples, in
    lexicographic order of (a, b, c).
    """

    def p(x, y):
        return probs[(x, y)] if x < y else 1.0 - probs[(y, x)]

    rows = []
    items = sorted({x for pair in probs for x in pair})
    for triple in itertools.combinations(items, 3):
        if not all(pair in probs for pair in itertools.combinations(triple, 2)):
            continue
        for x, y, z in itertools.permutations(triple):
            if p(x, y) > 0.5 and p(y, z) > 0.5:
                if p(x, z) < max(p(x, y), p(y, z)):
                    rows.append((x, y, z, p(x, z) < min(p(x, y), p(y, z)), p(x, z) < 0.5))
                break
    return rows


def inconsistent_pairs(p_map, q_map):
    """Disagreement between two partial pair->prob dicts, from the definition.

    Over the pairs both dicts hold, a pair disagrees when one source puts
    P(i beats j) strictly above 1/2 and the other strictly below.  Returns
    (pairs compared, disagreeing, rate, disagreeing pairs in sorted order).
    """
    common = sorted(pair for pair in p_map if pair in q_map)
    bad = [
        pair
        for pair in common
        if (p_map[pair] > 0.5 and q_map[pair] < 0.5)
        or (p_map[pair] < 0.5 and q_map[pair] > 0.5)
    ]
    return len(common), len(bad), len(bad) / len(common), tuple(bad)


def two_point_variance(a, b):
    """Sample variance of two scalars around their mean."""
    mu = (a + b) / 2.0
    return ((a - mu) ** 2 + (b - mu) ** 2) / 2.0


def masked_diff_table(U, spec):
    """Each canonical pair's subset and masked difference, pair by pair.

    ``spec`` is a selection spec in dict form.  Returns ``(subsets, table)``:
    for the pairs i < j in lexicographic order, the sorted coordinate tuple
    the pair selects and the row U_i - U_j with every other coordinate zeroed.
    ``top_t`` keeps the t coordinates of largest |difference|, ties to the
    lower index; the random kinds draw from a stream seeded by (seed, i, j):
    the first k entries of a permutation, or a Bernoulli(p) draw per
    coordinate, redrawn until nonempty.
    """
    U = np.asarray(U, dtype=np.float64)
    d, n = U.shape
    kind = spec["kind"]
    subsets, rows = [], []
    for i in range(n):
        for j in range(i + 1, n):
            diff = [U[k, i] - U[k, j] for k in range(d)]
            if kind == "full":
                subset = set(range(d))
            elif kind == "top_t":
                subset = set(sorted(range(d), key=lambda k: (-abs(diff[k]), k))[: spec["t"]])
            else:
                rng = np.random.default_rng(np.random.SeedSequence([spec["seed"], i, j]))
                if kind == "random_exactly_k":
                    subset = {int(k) for k in rng.permutation(d)[: spec["k"]]}
                else:
                    subset = set()
                    while not subset:
                        draw = rng.random(d)
                        subset = {k for k in range(d) if draw[k] < spec["p"]}
            subsets.append(tuple(sorted(subset)))
            rows.append([diff[k] if k in subset else 0.0 for k in range(d)])
    return subsets, np.array(rows, dtype=np.float64)
