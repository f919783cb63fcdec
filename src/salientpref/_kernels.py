"""Hot numeric kernels, all vectorized numpy.

The likelihood folds run over one row per distinct pair.  Certificate
eigenvalues come from LAPACK (``np.linalg.eigvalsh``), and one zero rule
(``zero_tol``) gives the rank of a design's second moment to both the
certificates and the fit; the zeta scan takes
the caller's eigendecomposition of E[Z] and solves one secular equation per
pair; the transitivity scan enumerates chains x -> y -> z through one middle
item at a time and keeps only the violating rows; ``PairStreams`` runs
numpy's seeded PCG64 generator for many seeds at once.
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


# An eigenvalue of a PSD second-moment matrix counts as zero at or below
# LAMBDA_REL_TOL of its mean eigenvalue, trace / dim.  The certificates and
# the fit's ``data_rank`` share this one rule.
LAMBDA_REL_TOL = 1e-10


def zero_tol(M):
    """The zero tolerance of the PSD matrix M: LAMBDA_REL_TOL * trace(M) / dim."""
    return LAMBDA_REL_TOL * float(np.trace(M)) / M.shape[0]


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

    def permutation(self, d):
        """(rows, d) intp, each row as ``Generator.permutation(d)``.

        numpy's Fisher-Yates swaps position i = d-1, ..., 1 with a draw j in
        [0, i]: 32-bit draws masked to the smallest all-ones mask >= i until
        one is <= i.  Rows advance independently, one 32-bit draw per pass,
        and leave the pass loop when their last swap is done.
        """
        rows = self.hi.size
        perm = np.tile(np.arange(d), (rows, 1))
        flat = perm.reshape(-1)
        masks = np.array([(1 << i.bit_length()) - 1 for i in range(d)], dtype=np.uint64)
        steps = np.full(rows if d > 1 else 0, d - 1)  # next position to swap
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
            going = steps > 0
            if not going.all():
                base, steps, hi, lo, inc_hi, inc_lo = (
                    a[going] for a in (base, steps, hi, lo, inc_hi, inc_lo)
                )
                high = None if high is None else high[going]
        return perm
