"""Identifiability and sample-complexity certificates.

All quantities are exact uniform averages over the C(n, 2) pairs (never
Monte Carlo).  The general certificate runs the selection rule once per pair
and keeps its masks as packed bits (``RealizedSelection.keep_bits``), then
passes twice over float blocks rebuilt from them
(``RealizedSelection.blocks``): its memory is d/8 bytes a pair plus a few
blocks, never a C(n, 2) x d table, and its sums over blocks differ from
sums over one table at roundoff.  With ``x_ij`` the masked feature
difference of a pair and ``Z_ij = x_ij x_ij^T``:

    lambda = smallest eigenvalue of E[Z]
    eta    = largest singular value of E[(Z - E[Z])^2]
    zeta   = max over pairs of the largest eigenvalue of E[Z] - Z_pair
    beta   = max over pairs of ||x_ij||_inf
    b_star = max over pairs of |<w*, x_ij>|   (needs the true weights)

One eigendecomposition of E[Z] gives both the certificate's identifiability
verdict (``identifiable`` and ``rank``) and lambda.  An eigenvalue counts
as zero at or below 1e-10 of trace(E[Z])/d; the rank is the number of the
others, and the model is identifiable exactly when the rank is d, that is
when lambda clears the same tolerance.  The
sample thresholds, with log terms L4 = log(4d/delta), L2 = log(2d/delta), are

    m1 = (3 beta^2 L4 d + 4 sqrt(d) beta L4) / 6
    m2 = 8 L2 (6 eta + lambda zeta) / (3 lambda^2)

and for m >= max(m1, m2), with probability at least 1 - delta,

    ||w* - w_hat||_2 <= 4 (1 + e^b*)^2 / (e^b* lambda)
                        * sqrt((3 beta^2 L4 d + 4 sqrt(d) beta L4) / (6 m)).

Two specializations put closed forms or bounds for lambda, eta and zeta into
these same formulas: full selection on column-centered features (lambda is
n * eigmin(U U^T) / C(n,2), and nu, beta and b* are closed forms in the
centered features, so no pair table is built), and single-coordinate
selection (bounds in terms of the coordinate partition sizes, read from the
general certificate and its keep bits).  A threshold term too large for a
float (b* past about 355) is infinite, like the terms of a non-identifiable
instance: the bound then promises nothing.  Features are finite, so a
non-finite lambda, eta, zeta, beta, nu or m1 can only come from a feature scale that overflows float64 in squares or fourth powers;
such a certificate raises ``PreconditionError`` instead, as does one whose
certified lambda**2 leaves the normal float64 range (features of about
1e-77 and below), where m2 would divide by zero or by digits already lost,
and one whose E[Z] (U U^T for full selection) is exactly zero although some
difference is not: every square underflowed, and a zero spectrum would
misreport the instance as unidentifiable.  Identical features, whose
differences are all zero, are reported as not identifiable.
Ranking recovery turns the weight error into a Kendall-distance guarantee via
the k-th sorted utility gap; it takes only the certificate, which holds its
selection and true weights.  Eigenvalues of the small d x d certificate
matrices come from LAPACK; zeta takes the eigendecomposition of E[Z] and
solves a secular equation per pair (see ``_kernels.ZetaScan``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .errors import NotSingleCoordinateError, PreconditionError
from .features import FeatureMatrix, center_columns, check_int, check_real, check_weights
from .selection import RealizedSelection, pair_blocks

_SCALE_OVERFLOW = "feature scale overflows float64 in the certificate terms; rescale the features"
_SCALE_UNDERFLOW = "feature scale underflows float64 in the certificate terms; rescale the features"
_NO_TRUE_WEIGHTS = "certificate was made without the true weights w_star"


class _Report:
    """``to_dict`` over the dataclass fields that ``==`` compares, in order: a
    trailing ``_`` is dropped from a field name and a tuple becomes a list;
    ``_extra()`` adds derived keys."""

    def to_dict(self) -> dict:
        out = {}
        for f in filter(lambda f: f.compare, fields(self)):
            value = getattr(self, f.name)
            out[f.name.removesuffix("_")] = list(value) if isinstance(value, tuple) else value
        return out | self._extra()

    def _extra(self) -> dict:
        return {}


def _check_finite(*terms) -> None:
    """Raise when a certificate term is inf or nan: finite features make one
    only by overflowing float64."""
    if not all(np.isfinite(term).all() for term in terms):
        raise PreconditionError(_SCALE_OVERFLOW)


def _finite_scale(certificate):
    """Report a float power that overflows inside ``certificate`` (Python's
    ``**`` raises ``OverflowError``) as the same ``PreconditionError``."""

    @functools.wraps(certificate)
    def checked(*args, **kwargs):
        try:
            return certificate(*args, **kwargs)
        except OverflowError:
            raise PreconditionError(_SCALE_OVERFLOW) from None

    return checked


def _check_underflow(moment: np.ndarray, nonzero: bool) -> None:
    """Raise when the second moment of values of which some are ``nonzero``
    is exactly zero: every square underflowed, so a zero spectrum would
    misreport the scale as unidentifiable.  Values that are all zero leave
    it zero rightly."""
    if np.trace(moment) == 0.0 and nonzero:
        raise PreconditionError(_SCALE_UNDERFLOW)


def _plus(total, term):
    """``total + term``, or ``term`` itself when there is no total yet: one
    block's sum is then exactly the sum over one table."""
    return term if total is None else total + term


def _larger(a: float, b: float) -> float:
    """The larger of ``a`` and ``b``, NaN when either is, as ``np.max`` over
    one table gives; Python's ``max`` would drop a NaN that comes second."""
    return b if math.isnan(b) or b > a else a


def _pair_sums(sel: RealizedSelection, bits, w_star):
    """Pass 1 over the pair blocks: ``(X^T X, sum_p ||x_p||^2 x_p x_p^T,
    beta, b*, any x_p nonzero)``; b* is None without ``w_star``.  A sum that
    overflows is left inf or nan, for the caller's finiteness checks."""
    XtX = fourth = None
    beta, b_star, nonzero = 0.0, None if w_star is None else 0.0, False
    for X in sel.blocks(bits):
        with np.errstate(over="ignore", invalid="ignore"):
            XtX = _plus(XtX, X.T @ X)
            sq = (X**2).sum(axis=1)
            fourth = _plus(fourth, (X * sq[:, None]).T @ X)
            if w_star is not None:
                b_star = _larger(b_star, _kernels.largest_margin(X, w_star))
        beta = _larger(beta, float(np.abs(X).max()))
        nonzero = nonzero or bool(X.any())
    return XtX, fourth, beta, b_star, nonzero


def _check_delta(delta: float) -> float:
    delta = check_real("delta", delta)
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    return delta


def _thresholds(lam, eta, zeta, beta, b_star, d, delta, positive):
    """``(m1, m2, error_bound_coefficient)`` from the module docstring.

    ``positive`` says lambda is certified nonzero; otherwise m2 and the
    coefficient are infinite.  The coefficient (the error bound times
    sqrt(m)) is None when b* is, and infinite when b* or the coefficient
    overflows a float.  Raises when lambda, eta, zeta, m1 or a certified m2
    is not finite, and when a certified lambda**2 falls below the normal
    float64 range (eta, of the same order, has then lost its digits too).
    """
    log4 = math.log(4.0 * d / delta)
    log2 = math.log(2.0 * d / delta)
    m1 = (3.0 * beta**2 * log4 * d + 4.0 * math.sqrt(d) * beta * log4) / 6.0
    _check_finite(lam, eta, zeta, m1)
    if not positive:
        return m1, math.inf, None if b_star is None else math.inf
    lam_sq = lam**2
    if lam_sq < sys.float_info.min:
        raise PreconditionError(_SCALE_UNDERFLOW)
    m2 = 8.0 * log2 * (6.0 * eta + lam * zeta) / (3.0 * lam_sq)
    _check_finite(m2)
    if b_star is None:
        return m1, m2, None
    if not math.isfinite(b_star):
        return m1, m2, math.inf
    try:
        eb = math.exp(b_star)
        return m1, m2, 4.0 * (1.0 + eb) ** 2 / eb * (1.0 / lam) * math.sqrt(m1)
    except OverflowError:
        return m1, m2, math.inf


class _ErrorBound(_Report):
    """``error_bound(m)`` for a certificate with an ``error_bound_coefficient``."""

    error_bound_coefficient: float | None

    def error_bound(self, m: float) -> float:
        """Estimation-error bound at sample size ``m``; scales as 1/sqrt(m)."""
        if self.error_bound_coefficient is None:
            raise PreconditionError("error bound needs true weights (b_star unknown)")
        if not m > 0:  # also refuses nan
            raise PreconditionError(f"sample size must be positive, got {m}")
        return self.error_bound_coefficient / math.sqrt(m)


@dataclass(frozen=True)
class SampleComplexityReport(_ErrorBound):
    """Certificate for an arbitrary selection function.  ``sel``, the
    read-only ``w_star`` it certifies and the packed keep masks ``bits``
    (``sel.keep_bits()``, None for ``full``) are not in to_dict, == or repr."""

    lambda_: float
    eta: float
    zeta: float
    beta: float
    b_star: float | None
    identifiable: bool
    rank: int
    delta: float
    m1: float
    m2: float
    d: int
    n: int
    error_bound_coefficient: float | None
    sel: RealizedSelection = field(compare=False, repr=False)
    w_star: np.ndarray | None = field(compare=False, repr=False)
    bits: np.ndarray | None = field(compare=False, repr=False)


@_finite_scale
def sample_complexity_report(
    sel: RealizedSelection,
    w_star=None,
    delta: float = 0.05,
) -> SampleComplexityReport:
    """Compute lambda, eta, zeta, beta, b*, m1, m2 and the error bound.

    A non-identifiable instance (lambda at numerical zero) is reported, not
    raised: m2 and the error bound become infinite.  The rule runs once per
    pair (``keep_bits``); two passes over the pair blocks follow, one for the
    moments, beta and b*, one for zeta, so memory is the packed keep bits
    plus a few float blocks.
    """
    delta = _check_delta(delta)
    d, n = sel.features.d, sel.features.n
    if w_star is not None:
        w_star = check_weights(w_star, d).copy()
        w_star.setflags(write=False)
    npairs = n * (n - 1) // 2
    bits = sel.keep_bits()
    XtX, fourth, beta, b_star, nonzero = _pair_sums(sel, bits, w_star)
    EZ = XtX / npairs
    _check_finite(EZ)
    _check_underflow(EZ, nonzero)
    spectrum, rank = _kernels.psd_spectrum(EZ)
    V = fourth / npairs - EZ @ EZ  # E[(Z - E[Z])^2]
    V = 0.5 * (V + V.T)
    _check_finite(V)

    lam = max(float(spectrum[0][0]), 0.0)
    eta = max(float(_kernels.sym_eigvals(V)[-1]), 0.0)
    scan = _kernels.ZetaScan(spectrum)
    for X in sel.blocks(bits):
        scan.add(X)
    zeta = scan.zeta()
    identifiable = rank == d
    m1, m2, coeff = _thresholds(lam, eta, zeta, beta, b_star, d, delta, identifiable)
    return SampleComplexityReport(
        lambda_=lam,
        eta=eta,
        zeta=zeta,
        beta=beta,
        b_star=b_star,
        identifiable=identifiable,
        rank=rank,
        delta=delta,
        m1=m1,
        m2=m2,
        d=d,
        n=n,
        error_bound_coefficient=coeff,
        sel=sel,
        w_star=w_star,
        bits=bits,
    )


@dataclass(frozen=True)
class FullSelectionBounds(_ErrorBound):
    """Closed forms when every pair uses every feature (centered columns)."""

    nu: float
    lambda_closed: float
    zeta_upper: float
    eta_upper: float
    beta: float
    b_star: float | None
    delta: float
    m1: float
    m_lower: float
    d: int
    n: int
    error_bound_coefficient: float | None


_GRAM_BLOCK = 256


def _max_sq_distance(U: np.ndarray) -> float:
    """max over column pairs of ||U_i - U_j||^2, as sq_i + sq_j - 2 G_ij over
    row blocks of the Gram matrix U^T U, so memory is O(n * _GRAM_BLOCK).
    An overflowed block (inf - inf) makes the result nan."""
    sq = np.einsum("ki,ki->i", U, U)
    best = 0.0
    for start in range(0, U.shape[1], _GRAM_BLOCK):
        rows = slice(start, start + _GRAM_BLOCK)
        G = U[:, rows].T @ U
        G *= -2.0
        G += sq[rows, None]
        G += sq
        best = float(np.maximum(best, G.max()))
    return best


@_finite_scale
def full_selection_report(
    features: FeatureMatrix,
    w_star=None,
    delta: float = 0.05,
) -> FullSelectionBounds:
    """Certificate for the all-features selection via the Gram matrix of the
    centered features.

    Requires n > d.  Columns are centered internally (pairwise differences,
    hence probabilities and b*, are unchanged up to rounding); then lambda equals
    n * eigmin(U U^T) / C(n,2) exactly, and zeta, eta admit the closed upper
    bounds reported here.  ``m_lower`` is max(m1, m2) with these three in m2;
    it is infinite when eigmin(U U^T) is at or below 1e-10 of trace(U U^T) / d,
    the general certificate's zero tolerance (E[Z] = n U U^T / C(n,2)).
    No pair table is built: with centered U and u = w* U,

        nu   = max(max_ij ||U_i - U_j||^2, 1)
        beta = max_k (max_i U_ki - min_i U_ki)
        b*   = max_i u_i - min_i u_i.

    Centering bounds every ||U_i||^2 by the largest pair distance, so the
    Gram form of nu cancels only at roundoff.
    """
    delta = _check_delta(delta)
    d, n = features.d, features.n
    if n <= d:
        raise PreconditionError(f"full-selection bounds assume n > d (n={n}, d={d})")
    U = center_columns(features).matrix
    npairs = n * (n - 1) // 2

    gram = U @ U.T
    farthest = _max_sq_distance(U)
    _check_finite(gram, farthest)
    _check_underflow(gram, U.any())
    gram_eigs = _kernels.sym_eigvals(gram)
    lmin = max(float(gram_eigs[0]), 0.0)
    lmax = float(gram_eigs[-1])
    positive = lmin > _kernels.zero_tol(gram)

    nu = max(farthest, 1.0)
    beta = float((U.max(axis=1) - U.min(axis=1)).max())
    b_star = None
    if w_star is not None:
        u = check_weights(w_star, d) @ U
        b_star = float(u.max() - u.min())

    lambda_closed = n * lmin / npairs
    zeta_upper = nu + n * lmax / npairs
    eta_upper = nu * n * lmax / npairs + (n * lmax / npairs) ** 2
    m1, m2, coeff = _thresholds(
        lambda_closed, eta_upper, zeta_upper, beta, b_star, d, delta, positive
    )
    return FullSelectionBounds(
        nu=nu,
        lambda_closed=lambda_closed,
        zeta_upper=zeta_upper,
        eta_upper=eta_upper,
        beta=beta,
        b_star=b_star,
        delta=delta,
        m1=m1,
        m_lower=max(m1, m2),
        d=d,
        n=n,
        error_bound_coefficient=coeff,
    )


@dataclass(frozen=True)
class SingleCoordinateBounds(_ErrorBound):
    """Bounds when every pair is compared on exactly one coordinate."""

    partition_sizes: tuple[int, ...]
    epsilon: float
    lambda_lower: float
    zeta_upper: float
    eta_upper: float
    beta: float
    b_star: float | None
    delta: float
    m1: float
    m3: float
    m_lower: float
    d: int
    n: int
    error_bound_coefficient: float | None


@_finite_scale
def single_coordinate_report(certificate: SampleComplexityReport) -> SingleCoordinateBounds:
    """Certificate when |subset| = 1 for every pair.

    ``certificate`` is ``sample_complexity_report(sel, w_star, delta)``.  A
    pair whose subset is {c} has ||x||_inf = |x_c| and <w*, x> = w*_c x_c, so
    delta, beta and b* are the certificate's; each pair's c comes from its
    keep bits, a pair block at a time.  The pairs partition by c; an empty
    part means the corresponding weight coordinate is never observed, so the
    lower bound on lambda degenerates to 0 and the thresholds to infinity
    (reported, not raised).  ``m3`` is m2 with the bounds on lambda, eta and
    zeta in it.  Raises if any realized subset is not a singleton, from the
    spec alone when the kind fixes a subset size other than 1.
    """
    sel, d, n, bits = certificate.sel, certificate.d, certificate.n, certificate.bits
    spec, U = sel.spec, sel.features.matrix
    size = {"full": d, "top_t": spec.t, "random_exactly_k": spec.k}.get(spec.kind)
    if size not in (None, 1):
        raise NotSingleCoordinateError(f"pair (0, 1) selects {size} coordinates, need 1")
    counts, epsilon, lo = np.zeros(d, dtype=np.int64), math.inf, 0
    for ii, jj in pair_blocks(n, _kernels.block_rows(d)):
        coords = np.zeros(ii.size, dtype=np.intp)  # full keeps no bits: d = 1
        if bits is not None:
            keep = np.unpackbits(bits[lo : lo + ii.size], axis=1, count=d)
            ones = keep.sum(axis=1)
            if (bad := np.flatnonzero(ones != 1)).size:
                r = bad[0]
                raise NotSingleCoordinateError(
                    f"pair ({ii[r]}, {jj[r]}) selects {ones[r]} coordinates, need 1"
                )
            coords = keep.argmax(axis=1)
        counts += np.bincount(coords, minlength=d)
        epsilon = min(epsilon, float(np.abs(U[coords, ii] - U[coords, jj]).min()))
        lo += ii.size
    sizes = tuple(counts.tolist())
    beta, b_star, delta = certificate.beta, certificate.b_star, certificate.delta
    npairs = n * (n - 1) // 2

    min_pk = min(sizes)
    max_pk = max(sizes)
    lambda_lower = epsilon**2 * min_pk / npairs
    zeta_upper = beta**2 + beta**2 * max_pk / npairs
    eta_upper = beta**4 / npairs * max(s + s**2 / npairs for s in sizes)
    m1, m3, coeff = _thresholds(
        lambda_lower, eta_upper, zeta_upper, beta, b_star, d, delta,
        epsilon > 0.0 and min_pk > 0,
    )
    return SingleCoordinateBounds(
        partition_sizes=sizes,
        epsilon=epsilon,
        lambda_lower=lambda_lower,
        zeta_upper=zeta_upper,
        eta_upper=eta_upper,
        beta=beta,
        b_star=b_star,
        delta=delta,
        m1=m1,
        m3=m3,
        m_lower=max(m1, m3),
        d=d,
        n=n,
        error_bound_coefficient=coeff,
    )


# The leading constant of the ranking-recovery threshold's third term.  The
# paper leaves c5 unspecified, so 1.0 is a convention, not a derived value;
# it is reported with the bound so a reader can rescale that term.
_C5 = 1.0


@dataclass(frozen=True)
class RankingRecoveryBounds(_Report):
    """Sample threshold for Kendall distance at most k - 1 to the true ranking."""

    M: float
    k: int
    alpha_k: float
    m_terms: tuple[float, float, float]
    m_lower: float
    delta: float
    c5: float = field(default=_C5, init=False)
    b_star: float
    lambda_: float

    @property
    def predicted(self) -> int:
        """Certified ceiling on the Kendall distance to the true ranking."""
        return self.k - 1

    def _extra(self) -> dict:
        return {
            "predicted": self.predicted,
            "guarantee": (
                f"with probability at least {1.0 - self.delta}, a fit on at least "
                f"m_lower samples puts the estimated ranking within Kendall "
                f"distance {self.k - 1} of the true ranking"
            ),
        }


def ranking_recovery_report(certificate: SampleComplexityReport, k: int) -> RankingRecoveryBounds:
    """How many samples before the learned ranking is within distance k - 1.

    ``certificate`` is ``sample_complexity_report(sel, w_star, delta)``, made
    with w*; the features, w*, delta, beta, lambda, m1, m2 and b* are read
    from it.  ``k`` is an integer in [1, C(n,2)].  The third threshold term
    has the leading constant ``_C5``, reported as ``c5``; a zero utility gap
    alpha_k makes that term infinite: ties in true utilities void the
    guarantee at that k.
    """
    d, n = certificate.d, certificate.n
    npairs = n * (n - 1) // 2
    k = check_int("k", k, 1)
    if k > npairs:
        raise PreconditionError(f"k must lie in [1, C(n,2)] = [1, {npairs}], got {k}")
    if certificate.w_star is None:
        raise PreconditionError(_NO_TRUE_WEIGHTS)

    # alpha_k = utility_gaps(...)[0][k - 1], from the k smallest gaps kept over pair blocks
    U = certificate.sel.features.matrix
    utilities, smallest = U.T @ certificate.w_star, np.empty(0)
    for ii, jj in pair_blocks(n, _kernels.FLOAT_BLOCK):
        smallest = np.concatenate([smallest, np.abs(utilities[ii] - utilities[jj])])
        if smallest.size > k:
            smallest = np.partition(smallest, k - 1)[:k]
    alpha_k = float(smallest.max())
    M = float(np.max(np.linalg.norm(U, axis=0)))
    log4 = math.log(4.0 * d / certificate.delta)
    term3 = math.inf
    if alpha_k > 0.0 and certificate.identifiable:
        try:
            term3 = (
                _C5
                * M**2
                * math.exp(2.0 * certificate.b_star)
                * (certificate.beta**2 * d + certificate.beta * math.sqrt(d))
                * log4
                / (alpha_k**2 * certificate.lambda_**2)
            )
        except OverflowError:  # b* past about 355: the term stays infinite
            pass
    terms = (certificate.m1, certificate.m2, term3)
    return RankingRecoveryBounds(
        M=M,
        k=k,
        alpha_k=alpha_k,
        m_terms=terms,
        m_lower=max(terms),
        delta=certificate.delta,
        b_star=certificate.b_star,
        lambda_=certificate.lambda_,
    )
