"""Hot numeric kernels, all vectorized numpy.

The likelihood folds run over one row per distinct pair.  Certificate
eigenvalues come from LAPACK (``np.linalg.eigvalsh``), and one zero rule
(``zero_tol``) gives the rank of a design's second moment to both the
certificates and the fit; the zeta scan takes the caller's eigendecomposition
of E[Z], brackets every pair's secular root in two O(d) passes and solves only
the pairs whose bracket can hold the smallest root, taking the pairs a block
at a time (``ZetaScan``); the transitivity scan
enumerates the triples with all three pairs present in lexicographic order,
orients each by a table lookup and keeps one int64 key per violating row;
``PairStreams`` runs numpy's seeded PCG64 generator for many seeds at once.
"""

from __future__ import annotations

import itertools

import numpy as np


def sigmoid(u):
    """Overflow-safe logistic function, elementwise."""
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def largest_margin(X, w):
    """max_p |<w, X_p>| over the rows of X (0 for none): b* for the true w."""
    return float(np.max(np.abs(X @ w))) if X.shape[0] else 0.0


def zero_off(table, keep):
    """Zero ``table`` wherever the bool array ``keep`` is False, in place,
    bit for bit as ``np.copyto(table, 0.0, where=~keep)`` but without its
    branch per entry: each float64's bits are ANDed with 0 or all ones."""
    mask = np.negative(keep.view(np.int8), dtype=np.int64)
    bits = table.view(np.int64)
    np.bitwise_and(bits, mask, out=bits)
    return table


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


# An eigenvalue of a PSD second-moment matrix counts as zero at or below
# LAMBDA_REL_TOL of its mean eigenvalue, trace / dim.  The certificates and
# the fit's ``data_rank`` share this one rule.
LAMBDA_REL_TOL = 1e-10


def zero_tol(M):
    """The zero tolerance of the PSD matrix M: LAMBDA_REL_TOL * trace(M) / dim."""
    return LAMBDA_REL_TOL * float(np.trace(M)) / M.shape[0]


# Entries (pairs x d) of one float block: every pass over many pairs forms
# their masked differences, and its float temporaries, this many at a time.
FLOAT_BLOCK = 65_536


def block_rows(d):
    """Pairs per float block at dimension ``d``: at least one."""
    return max(1, FLOAT_BLOCK // d)


def second_moment(X):
    """E[Z] = X^T X / P over the P rows of X."""
    return X.T @ X / X.shape[0]


def psd_spectrum(M):
    """The ascending ``(eigenvalues, eigenvectors)`` of the PSD matrix M and
    its rank: the number of eigenvalues above ``zero_tol``.  M must be
    finite; callers check it first, since LAPACK may fail on inf or nan."""
    spectrum = np.linalg.eigh(M)
    return spectrum, int(np.count_nonzero(spectrum[0] > zero_tol(M)))


# ---------------------------------------------------------------------------
# max-eigenvalue scan over rank-one downdates: max_p lambda_max(EZ - x_p x_p^T)
#
# With EZ = Q diag(lam) Q^T (lam ascending), z = Q^T x and gaps
# g_k = lam[-1] - lam[k], the top eigenvalue of EZ - x x^T is lam[-1] - t,
# where t is the root in [0, min(z_d^2, g_{d-1})] of the secular equation
# (Golub 1973; Bunch, Nielsen & Sorensen 1978)
#     phi(t) = t (1 + S(t)) - z_d^2 = 0,   S(t) = sum_{k<d} z_k^2 / (g_k - t).
# A zero bracket (z_d = 0, a repeated top eigenvalue, a zero row) gives t = 0,
# the smallest root of all, so the scan stops there and zeta is lam[-1].  With
# one coordinate per pair E[Z] is diagonal: z_d = 0 off its top coordinate.
# phi is increasing and convex on the bracket, so a Newton step taken right of
# the root stays right of it; a step that leaves the sign bracket of phi falls
# back to bisection.
#
# Only the smallest root counts, so only the rows that can hold it are solved.
# S increases on [0, g_{d-1}) and t = z_d^2 / (1 + S(t)), so every root lies
# in [L, U]:
#     U = min(z_d^2 / (1 + S(0)), g_{d-1}),
#     L = z_d^2 / (1 + S(U')) with U' = U (1 + s), or L = 0 if U' >= g_{d-1}.
# A row is solved when L <= B (1 + s).  The bound B is the smallest U or
# solved root seen so far, earlier blocks included; s is _ZETA_SLACK.  The
# caller hands the rows over in blocks (at most FLOAT_BLOCK entries each), so
# B carries across them.  A row whose L passes B when its block comes is held.
# The held rows whose L still passes B are solved once they fill a float block,
# and at once while no root is known, so that B soon falls to a root: a scan
# that prunes little makes few solver calls, each over many rows.  A NaN
# anywhere in a row's z makes its U NaN and its L 0: the row is solved, and
# its root is 0 as before.
# Why the slack suffices.  L, U and the solver's root come from the same z and
# g, and each has a relative error e of at most about 2 (d + 4) 2^-53, barring
# underflow: S sums d - 1 nonnegative terms of two roundings each, and the
# solver stops within 4 ulps at a root where phi' >= 1 + S while phi's own
# error is about 2 e z_d^2.  So U' lies above the exact U, hence above the
# exact root, S(U') >= S(t), and L is at most the root times (1 + e).  A
# pruned row's computed root thus exceeds B (1 + s)(1 - e)^2, while some
# row's computed root is at most B (1 + e)^2, since B is a solved root or the
# U of a row whose root lies below it.  s = 1e-9 exceeds 4 e for d up to
# about 10^6, so the row with the smallest computed root is never pruned and
# zeta is bit for bit the one a solve of every row gives.  The bound pass is
# two O(d) sweeps over the block's z table through one scratch table.
# ---------------------------------------------------------------------------

_ZETA_SLACK = 1e-9
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


def _root_brackets(zk2, zd2, gaps):
    """Per row, the bracket ``(L, U)`` of the root (see above); all gaps > 0."""
    scratch = np.divide(zk2, gaps)
    upper = np.minimum(zd2 / (1.0 + scratch.sum(axis=1)), gaps[-1])
    shift = upper * (1.0 + _ZETA_SLACK)
    inside = shift < gaps[-1]
    np.subtract(gaps, np.where(inside, shift, 0.0)[:, None], out=scratch)
    np.divide(zk2, scratch, out=scratch)
    return np.where(inside, zd2 / (1.0 + scratch.sum(axis=1)), 0.0), upper


class ZetaScan:
    """max over rows x_p of the largest eigenvalue of EZ - x_p x_p^T, for
    rows handed over a block at a time by ``add``; ``zeta()`` reads the result.

    ``spectrum`` is ``np.linalg.eigh(EZ)``: ascending eigenvalues, eigenvectors.
    """

    def __init__(self, spectrum):
        lam, self.Q = spectrum
        self.top = lam[-1]
        self.gaps = self.top - lam[:-1]
        self.t_min = self.u_min = np.inf
        self.held, self.held_entries = [], 0  # (zk2, zd2, L) of unsolved rows

    def add(self, X):
        """Bracket the roots of the rows of ``X``, one block, and hold the
        rows that may hold the smallest one; solve them once they fill a
        float block, or while no root is known; nothing once a root is 0."""
        # _candidates' frame ends first, so the block's z table is freed before a solve
        if self.t_min > 0.0 and (held := self._candidates(X)) is not None:
            self.held.append(held)
            self.held_entries += held[0].size
            if self.held_entries >= FLOAT_BLOCK or self.t_min == np.inf:
                self._solve()

    def _candidates(self, X):
        """``(z_k^2, z_d^2, L)`` of the rows of ``X`` whose L passes the bound,
        or None when the block settles its roots itself (d = 1, or a root 0)."""
        z2 = X @ self.Q
        z2 *= z2
        if not self.gaps.size:  # d = 1, no other eigenvalue: the root is z_1^2 itself
            self.t_min = min(self.t_min, float(np.min(z2[:, 0], initial=np.inf)))
            return None
        zk2, zd2 = z2[:, :-1], z2[:, -1]
        if self.gaps[-1] == 0.0 or not zd2.all():  # a zero bracket: the root is 0
            self.t_min = 0.0
            self.held, self.held_entries = [], 0
            return None
        lower, upper = _root_brackets(zk2, zd2, self.gaps)
        self.u_min = min(self.u_min, float(upper.min(initial=np.inf)))
        keep = lower <= min(self.u_min, self.t_min) * (1.0 + _ZETA_SLACK)
        return zk2[keep], zd2[keep], lower[keep]

    def _solve(self):
        """Solve the held rows whose L still passes the bound."""
        zk2, zd2, lower = (p[0] if len(p) == 1 else np.concatenate(p) for p in zip(*self.held))
        self.held, self.held_entries = [], 0
        keep = lower <= min(self.u_min, self.t_min) * (1.0 + _ZETA_SLACK)
        if not keep.all():
            zk2, zd2 = zk2[keep], zd2[keep]
        t = _secular_roots(zk2, zd2, self.gaps, np.minimum(zd2, self.gaps[-1]))
        self.t_min = min(self.t_min, float(np.min(t, initial=np.inf)))

    def zeta(self) -> float:
        """zeta over every row added so far."""
        if self.held_entries:
            self._solve()
        return float(self.top - self.t_min)


# ---------------------------------------------------------------------------
# stochastic-transitivity triple scan
#
# An unordered triple a < b < c whose three pairwise probabilities are all
# present is checked through its first chain orientation (x, y, z) among the
# six permutations of (a, b, c) in lexicographic order, a chain being
# P[x, y] > 1/2 and P[y, z] > 1/2, and classified:
#   strong violation    P[x, z] < max(P[x, y], P[y, z])
#   moderate violation  P[x, z] < min(P[x, y], P[y, z])
#   weak violation      P[x, z] < 1/2
# The scan walks the present pairs u < v in lexicographic order.  Pair (a, b)
# is followed in that list by the pairs (a, c), c > b, of the same row; each
# such wedge is a candidate triple (a, b, c), so triples come out in
# lexicographic order with no sort.  A pair's link code is
# (P[u, v] > 1/2) + 2 (P[v, u] > 1/2): 0 no link, 1 u -> v, 2 v -> u, and
# _ABSENT for a pair that is not present.  P must never put both directions
# above 1/2; P[v, u] = 1 - P[u, v], as the diagnostics build it, never does.
# The codes of (a, b), (b, c) and (a, c), as base-4 digits, index
# _ORIENTATION, which holds the first chain orientation, or -1 when there is
# none or (b, c) is absent.  Wedges are expanded _TRIPLE_BLOCK at a time and
# only the violating rows outlive their block, each packed into one int64 key
#     key = ((x n + y) n + z) 4 + 2 moderate + weak
# over the scan's n item indices: 8 bytes per listed row, so memory is
# O(n^2) plus 8 bytes per violation.  The caller keeps 4 n^3 below 2^63.
# ``unpack`` is the one decoder, into the scan's item indices; callers decode
# a chunk of keys at a time.
# A listed row is always a strong violation since weak implies moderate
# implies strong here.
# ---------------------------------------------------------------------------

_TRIPLE_BLOCK = 1 << 13  # wedges expanded per block
_ABSENT = 3
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))), dtype=np.intp)


def _orientation_table():
    table = np.full(64, -1, dtype=np.intp)
    for ab, bc, ac in itertools.product(range(_ABSENT), repeat=3):
        links = {(0, 1): ab == 1, (1, 0): ab == 2, (1, 2): bc == 1,
                 (2, 1): bc == 2, (0, 2): ac == 1, (2, 0): ac == 2}
        for k, (x, y, z) in enumerate(_PERMUTATIONS.tolist()):
            if links[x, y] and links[y, z]:
                table[16 * ab + 4 * bc + ac] = k
                break
    return table


_ORIENTATION = _orientation_table()


def _oriented_triples(start, stop, n, ui, uj, pair_code, code, wedge_start, wedge_end):
    """The chained triples among wedges ``[start, stop)``, in listing order,
    each as its first chain orientation ``(x, y, z)``: a ``(k, 3)`` array."""
    first, last = np.searchsorted(wedge_end, (start, stop - 1), side="right")
    ks = np.arange(first, last + 1)
    runs = np.minimum(wedge_end[ks], stop) - np.maximum(wedge_start[ks], start)
    k = np.repeat(ks, runs)
    kc = k + 1 + (np.arange(start, stop) - wedge_start[k])
    b, c = uj[k], uj[kc]
    orient = _ORIENTATION[16 * pair_code[k] + 4 * code[b * n + c] + pair_code[kc]]
    chained = np.flatnonzero(orient >= 0)
    abc = np.empty((chained.size, 3), dtype=np.int64)
    abc[:, 0], abc[:, 1], abc[:, 2] = ui[k[chained]], b[chained], c[chained]
    # one flat gather orients every row (np.take_along_axis took 1.4x as long)
    flat = _PERMUTATIONS[orient[chained]]
    flat += np.arange(0, abc.size, 3)[:, None]
    return abc.ravel()[flat]


def _violation_keys(xyz, prob, n):
    """The keys of the strong violations among the oriented triples ``xyz``."""
    x, y, z = xyz.T
    xn, yn = x * n, y * n
    pxy, pyz, pxz = prob[xn + y], prob[yn + z], prob[xn + z]
    strong = np.flatnonzero(pxz < np.maximum(pxy, pyz))
    pxy, pyz, pxz = pxy[strong], pyz[strong], pxz[strong]
    keys = ((xn[strong] + y[strong]) * n + z[strong]) * 4
    keys += 2 * (pxz < np.minimum(pxy, pyz)) + (pxz < 0.5)
    return keys


def transitivity_scan(P, present):
    n = P.shape[0]
    prob = np.ravel(P)
    ui, uj = np.nonzero(np.triu(present, 1))
    pair_code = (prob[ui * n + uj] > 0.5) + 2 * (prob[uj * n + ui] > 0.5)
    code = np.full(n * n, _ABSENT, dtype=np.int8)
    code[ui * n + uj] = pair_code
    # pair k = (a, b) opens the wedges (a, b, uj[k']) for k < k' < its row's end
    row_end = np.cumsum(np.bincount(ui, minlength=n))[ui]
    wedges = row_end - np.arange(ui.size) - 1
    wedge_end = np.cumsum(wedges)
    wedge_start = wedge_end - wedges
    total = int(wedge_end[-1]) if ui.size else 0
    checked = 0
    blocks = [np.empty(0, dtype=np.int64)]
    for start in range(0, total, _TRIPLE_BLOCK):
        stop = min(start + _TRIPLE_BLOCK, total)
        xyz = _oriented_triples(start, stop, n, ui, uj, pair_code, code, wedge_start, wedge_end)
        checked += len(xyz)
        blocks.append(_violation_keys(xyz, prob, n))
        del xyz  # only the keys outlive their block
    return checked, np.concatenate(blocks)


def unpack(keys, m):
    """The ``(k, 5)`` int64 rows ``(x, y, z, moderate, weak)`` of the keys of
    ``transitivity_scan`` over ``m`` items, ``x, y, z`` as the scan's indices."""
    rows = np.empty((keys.size, 5), dtype=np.int64)
    rows[:, 3], rows[:, 4] = keys >> 1 & 1, keys & 1
    index = keys >> 2
    for col in (2, 1):
        index, rows[:, col] = np.divmod(index, m)
    rows[:, 0] = index
    return rows


# ---------------------------------------------------------------------------
# per-pair random streams: numpy's SeedSequence -> PCG64, for many pairs at once
#
# Row r reproduces np.random.default_rng(np.random.SeedSequence([seed, i, j]))
# for the pair (i, j) = (ii[r], jj[r]), bit for bit, with every pair's stream
# advanced in lockstep by vectorized integer arithmetic:
#   seeding   SeedSequence hashes the entropy words (seed as 1 or 2 little-endian
#             uint32 words, one word for 0; then i and j) into a pool of four
#             uint32 words and expands it to four uint64 words; PCG64's set_seed
#             takes the first two as the initial state and the last two as the
#             stream selector, inc = (selector << 1) | 1, and runs two steps of
#             the 128-bit LCG state = state * MULT + inc from state 0.
#   outputs   each draw steps the LCG, then emits the XSL-RR output
#             rotr64(hi ^ lo, hi >> 58) of the new state.  A 32-bit draw takes
#             the low half of an output and buffers the high half for the next.
# The 128-bit state is kept as (hi, lo) uint64 arrays; the high half of the
# 64 x 64 product lo * MULT_lo comes from 32-bit limbs.  numpy's unsigned
# array arithmetic wraps, which is exactly the modular arithmetic wanted.
# ---------------------------------------------------------------------------

_M32 = 0xFFFFFFFF
_SEED_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _M32, _PCG_MULT_LO >> 32


def _uint32_words(value):
    """A nonnegative int as little-endian uint32 words; [0] for 0."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """(hi, lo) * MULT + (inc_hi, inc_lo) mod 2**128."""
    a0, a1 = lo & _M32, lo >> 32
    p00, p01, p10 = a0 * _PCG_MULT_LO0, a0 * _PCG_MULT_LO1, a1 * _PCG_MULT_LO0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry_hi = a1 * _PCG_MULT_LO1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    hi = carry_hi + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + inc_hi
    lo = lo * _PCG_MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _xsl_rr(hi, lo):
    value = hi ^ lo
    rot = hi >> 58
    return value >> rot | value << (-rot & 63)


class PairStreams:
    """Seeded PCG64 streams, one per pair, drawn from in lockstep (see above).

    ``random`` matches successive ``Generator.random`` calls; ``permutation``
    matches ``Generator.permutation`` on freshly seeded streams only, since
    it does not advance them.
    """

    def __init__(self, hi, lo, inc_hi, inc_lo):
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo

    @classmethod
    def seeded(cls, seed, ii, jj):
        """Streams of ``SeedSequence([seed, ii[r], jj[r]])``; 0 <= seed < 2**64."""
        rows = ii.size
        entropy = [np.full(rows, word, dtype=np.uint32) for word in _uint32_words(seed)]
        entropy += [ii.astype(np.uint32), jj.astype(np.uint32)]
        entropy += [np.zeros(rows, dtype=np.uint32)] * (_SEED_POOL_SIZE - len(entropy))
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _MULT_A & _M32
            value = value * hash_const
            return value ^ value >> 16

        pool = [hashmix(word) for word in entropy]
        for src in range(_SEED_POOL_SIZE):
            for dst in range(_SEED_POOL_SIZE):
                if src != dst:
                    mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                    pool[dst] = mixed ^ mixed >> 16
        hash_const = _INIT_B
        state = []
        for k in range(2 * _SEED_POOL_SIZE):
            value = pool[k % _SEED_POOL_SIZE] ^ hash_const
            hash_const = hash_const * _MULT_B & _M32
            value = value * hash_const
            state.append((value ^ value >> 16).astype(np.uint64))
        s_hi, s_lo, q_hi, q_lo = (state[2 * k] | state[2 * k + 1] << 32 for k in range(4))
        inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
        lo = inc_lo + s_lo
        hi, lo = _lcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
        return cls(hi, lo, inc_hi, inc_lo)

    def take(self, rows):
        """The streams at ``rows`` (an index or boolean mask), as a new object."""
        return PairStreams(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])

    def random(self, count):
        """(rows, count) float64 uniforms on [0, 1), as ``Generator.random(count)``."""
        out = np.empty((self.hi.size, count))
        hi, lo = self.hi, self.lo
        for t in range(count):
            hi, lo = _lcg_step(hi, lo, self.inc_hi, self.inc_lo)
            out[:, t] = _xsl_rr(hi, lo) >> 11
        self.hi, self.lo = hi, lo
        out *= 2.0**-53
        return out

    def permutation(self, d, stop):
        """(rows, d), each row as ``Generator.permutation(d)`` from position
        ``stop`` on (``stop`` = 1: the whole row), in the smallest integer
        type that holds d - 1.

        numpy's Fisher-Yates swaps position i = d-1, ..., 1 with a draw j in
        [0, i]: 32-bit draws masked to the smallest all-ones mask >= i until
        one is <= i.  Rows advance independently, one 32-bit draw per pass,
        and leave the pass loop when their last swap is done.  The swaps end at
        position ``stop``: positions from ``stop`` on hold what the whole
        shuffle puts there, so the first ``stop`` positions hold the rest of
        the values, as a set.
        """
        rows = self.hi.size
        perm = np.tile(np.arange(d, dtype=np.min_scalar_type(d - 1)), (rows, 1))
        flat = perm.reshape(-1)
        masks = np.array([(1 << i.bit_length()) - 1 for i in range(d)], dtype=np.uint64)
        steps = np.full(rows if d > stop else 0, d - 1)  # next position to swap
        base = np.arange(steps.size) * d
        hi, lo, inc_hi, inc_lo = self.hi, self.lo, self.inc_hi, self.inc_lo
        high = None  # the buffered high halves, after a low-half draw
        while base.size:
            if high is None:
                hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
                out = _xsl_rr(hi, lo)
                word, high = out & _M32, out >> 32
            else:
                word, high = high, None
            j = (word & masks[steps]).astype(np.intp)
            accept = j <= steps
            at = base + steps
            other = np.where(accept, base + j, at)
            top = flat[at]
            flat[at] = flat[other]
            flat[other] = top
            steps -= accept
            going = steps >= stop
            if not going.all():
                base, steps, hi, lo, inc_hi, inc_lo = (
                    a[going] for a in (base, steps, hi, lo, inc_hi, inc_lo)
                )
                high = None if high is None else high[going]
        return perm
