"""Independent oracles the tests check the library against.

Everything here is written from the definitions with the dumbest correct
algorithm available (finite differences, explicit enumeration, dense
restacking) and deliberately shares no code with the package.  The CSV
readers and writers raise the package's error types, so that a test can
compare the errors too.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from salientpref.errors import ParseError, UnknownItemError


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


def moment_rank(diffs):
    """Eigenvalues of E[x x^T] above 1e-10 of its trace / d, counted."""
    EZ = expected_outer(diffs)
    return int(np.sum(np.linalg.eigvalsh(EZ) > 1e-10 * np.trace(EZ) / diffs.shape[1]))


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

    probs maps canonical (i, j), i < j, to P(i beats j), and P(j beats i) is
    ``1 - P(i beats j)``, exact when the probabilities are ``Fraction``s.
    Returns (checked, strong, moderate, weak) counting each unordered triple
    at most once via the first qualifying orientation in lexicographic order.
    """
    items = sorted({x for pair in probs for x in pair})

    def p(x, y):
        return probs[(x, y)] if x < y else 1 - probs[(y, x)]

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
        return probs[(x, y)] if x < y else 1 - probs[(y, x)]

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


def utility_gaps(U, w_star):
    """Sorted |<w*, U_i - U_j>| over all pairs i < j, one pair at a time,
    and M = max_i ||U_i||_2, for features ``U`` with one column per item."""
    U = np.asarray(U, dtype=np.float64)
    utilities = (U.T @ w_star).tolist()
    gaps = sorted(abs(a - b) for a, b in itertools.combinations(utilities, 2))
    return np.array(gaps), float(np.max(np.linalg.norm(U, axis=0)))


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


def sample_comparisons_counts(win_prob, n, m, seed):
    """The sampler's counts from one scalar draw at a time, written plainly.

    From ``default_rng(SeedSequence(seed))``, over the C(n,2) canonical pairs
    in lexicographic order: the nodes ``(start, size, count)`` begin as
    ``[(0, C(n,2), m)]``; each level, in node order, draws the left count
    Binomial(count, (size // 2) / size) of every node with size > 1 and
    count > 1, replaces the node by its halves and drops the empty ones.
    Each node then left with one comparison among several pairs draws its
    pair's offset, ``integers(0, size)``, in node order; last, each drawn
    pair draws its wins, Binomial(total, win probability), in pair order.
    ``win_prob(ii, jj)`` gives the probabilities of the distinct pairs drawn.
    Returns the lists (pair_i, pair_j, wins, total) over those pairs, in
    lexicographic order.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nodes = [(0, n * (n - 1) // 2, m)]
    while any(size > 1 and count > 1 for _, size, count in nodes):
        children = []
        for start, size, count in nodes:
            if size > 1 and count > 1:
                half = size // 2
                left = int(rng.binomial(count, half / size))
                children += [(start, half, left), (start + half, size - half, count - left)]
            else:
                children.append((start, size, count))
        nodes = [node for node in children if node[2] > 0]
    pair_i, pair_j, total = [], [], []
    for start, size, count in nodes:
        f = start + (int(rng.integers(0, size)) if size > 1 else 0)
        i = 0
        while f >= n - 1 - i:  # skip row i's n - 1 - i pairs
            f -= n - 1 - i
            i += 1
        pair_i.append(i)
        pair_j.append(i + 1 + f)
        total.append(count)
    probs = win_prob(np.array(pair_i), np.array(pair_j))
    wins = [int(rng.binomial(t, float(p))) for t, p in zip(total, probs)]
    return pair_i, pair_j, wins, total


# CSV files, a record at a time: the reference for the chunked readers and
# writers of ``salientpref.dataio``.

MAX_COUNT = 2**53


def csv_records(path):
    """The header and the non-empty records, each with its first physical line
    (a quoted field may span lines)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(str(path), 1, "empty file") from None
        rows = []
        lineno = reader.line_num + 1
        for row in reader:
            if row:
                rows.append((lineno, row))
            lineno = reader.line_num + 1
    return header, rows


def read_features(path):
    """The item ids and the (d, n) float64 values of a features file, each
    record checked in turn."""
    header, rows = csv_records(path)
    if len(header) < 2 or header[0] != "item_id":
        raise ParseError(str(path), 1, "expected header item_id,f1,...,fd")
    d = len(header) - 1
    ids, seen, cols = [], set(), []
    for lineno, row in rows:
        if len(row) != d + 1:
            raise ParseError(str(path), lineno, f"expected {d + 1} cells, got {len(row)}")
        item = row[0]
        if item in seen:
            raise ParseError(str(path), lineno, f"duplicate item id {item!r}")
        seen.add(item)
        try:
            vals = [float(c) for c in row[1:]]
        except ValueError:
            raise ParseError(str(path), lineno, "non-numeric feature cell") from None
        if not all(math.isfinite(v) for v in vals):
            raise ParseError(str(path), lineno, "non-finite feature value")
        ids.append(item)
        cols.append(vals)
    return tuple(ids), np.array(cols, dtype=np.float64).reshape(len(cols), d).T


def _comparison_error(path, lineno, row, index):
    if len(row) != 3:
        return ParseError(str(path), lineno, f"expected 3 cells, got {len(row)}")
    winner, loser, count_text = row
    try:
        count = int(count_text)
    except ValueError:
        return ParseError(str(path), lineno, f"bad count {count_text!r}")
    if count < 1:
        return ParseError(str(path), lineno, f"count must be >= 1, got {count}")
    if count > MAX_COUNT:
        return ParseError(str(path), lineno, f"count {count} exceeds 2**53")
    if winner == loser:
        return ParseError(str(path), lineno, f"item {winner!r} compared with itself")
    for item in (winner, loser):
        if item not in index:
            return UnknownItemError(f"{path}:{lineno}: unknown item id {item!r}")
    return None


def read_comparisons(path, item_ids, min_count=0):
    """The (pair_i, pair_j, wins, total) int64 arrays of a comparisons file.

    Every record is checked first, in file order.  Then each record's count
    is added to its canonical pair in Python ints; the first record at which
    a pair's running total passes 2**53 is the error.
    """
    header, rows = csv_records(path)
    if header != ["winner_id", "loser_id", "count"]:
        raise ParseError(str(path), 1, "expected header winner_id,loser_id,count")
    index = {item: k for k, item in enumerate(item_ids)}
    for lineno, row in rows:
        error = _comparison_error(path, lineno, row, index)
        if error is not None:
            raise error
    totals, wins = {}, {}
    for lineno, (winner, loser, count_text) in rows:
        a, b = index[winner], index[loser]
        pair = (min(a, b), max(a, b))
        totals[pair] = totals.get(pair, 0) + int(count_text)
        wins[pair] = wins.get(pair, 0) + (int(count_text) if a < b else 0)
        if totals[pair] > MAX_COUNT:
            raise ParseError(str(path), lineno, "pair total exceeds 2**53")
    kept = sorted(p for p in totals if totals[p] >= min_count)
    columns = ([p[0] for p in kept], [p[1] for p in kept], [wins[p] for p in kept],
               [totals[p] for p in kept])
    return tuple(np.array(c, dtype=np.int64) for c in columns)


def write_features(path, matrix, item_ids):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id"] + [f"f{k + 1}" for k in range(matrix.shape[0])])
        for j, item in enumerate(item_ids):
            writer.writerow([item] + [repr(float(v)) for v in matrix[:, j]])


def write_comparisons(path, pair_i, pair_j, wins, total, item_ids):
    """One ``winner_id,loser_id,count`` row per pair and winner with a nonzero
    count, sorted as tuples of Python strings."""
    rows = []
    for a, b, w, t in zip(pair_i.tolist(), pair_j.tolist(), wins.tolist(), total.tolist()):
        if w:
            rows.append((item_ids[a], item_ids[b], w))
        if t - w:
            rows.append((item_ids[b], item_ids[a], t - w))
    rows.sort()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["winner_id", "loser_id", "count"])
        for winner, loser, count in rows:
            writer.writerow([winner, loser, str(count)])


def write_ranking(path, item_ids, order, utilities):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "item_id", "utility"])
        for r, item_idx in enumerate(order, start=1):
            writer.writerow([str(r), item_ids[item_idx], repr(float(utilities[item_idx]))])


# JSON reports: the reference for ``salientpref.dataio.write_json``.


class Rows(list):
    """A list that ``json_text`` writes as a listing: one row a line."""


def json_text(plain):
    """``plain`` as a report file: ``json.dumps(plain, indent=2,
    sort_keys=True)`` and a newline, except that each ``Rows`` in it has one
    row a line, ``json.dumps(row, sort_keys=True)``, indented as ``indent=2``
    indents an element of that list.

    Each ``Rows`` is dumped as a marker string found nowhere else in the
    text, and the marker is then replaced by the rows, indented from the
    marker's own line."""
    stem = "rows@"
    while stem in json.dumps(plain):
        stem += "@"
    blocks = {}

    def mark(obj):
        if isinstance(obj, Rows):
            marker = f"{stem}{len(blocks)}"
            blocks[json.dumps(marker)] = obj
            return marker
        if isinstance(obj, dict):
            return {key: mark(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [mark(value) for value in obj]
        return obj

    text = json.dumps(mark(plain), indent=2, sort_keys=True)
    for marker, rows in blocks.items():
        at = text.index(marker)
        head = text[text.rfind("\n", 0, at) + 1 : at]  # the marker's line, up to it
        pad = " " * (len(head) - len(head.lstrip(" ")))
        lines = [pad + "  " + json.dumps(row, sort_keys=True) for row in rows]
        block = "[\n" + ",\n".join(lines) + "\n" + pad + "]" if rows else "[]"
        text = text[:at] + block + text[at + len(marker) :]
    return text + "\n"
