"""Identifiability and sample-complexity certificates.

All quantities are exact uniform averages over the C(n, 2) pairs (never
Monte Carlo).  With ``x_ij`` the masked feature difference of a pair and
``Z_ij = x_ij x_ij^T``:

    lambda = smallest eigenvalue of E[Z]
    eta    = largest singular value of E[(Z - E[Z])^2]
    zeta   = max over pairs of the largest eigenvalue of E[Z] - Z_pair
    beta   = max over pairs of ||x_ij||_inf
    b_star = max over pairs of |<w*, x_ij>|   (needs the true weights)

One eigendecomposition of E[Z] serves both identifiability and the
certificate.  An eigenvalue counts as zero at or below 1e-10 of trace(E[Z])/d;
the rank is the number of the others, and the model is identifiable exactly
when the rank is d, that is when lambda clears the same tolerance.  The
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
selection (bounds in terms of the coordinate partition sizes).  A threshold
term too large for a float (b* past about 355) is infinite, like the terms
of a non-identifiable instance: the bound then promises nothing.  Features
are finite, so a non-finite lambda, eta, zeta, beta, nu or m1 can only come
from a feature scale that overflows float64 in squares or fourth powers;
such a certificate raises ``PreconditionError`` instead, as does one whose
certified lambda**2 leaves the normal float64 range (features of about
1e-77 and below), where m2 would divide by zero or by digits already lost,
and one whose E[Z] (U U^T for full selection) is exactly zero although some
difference is not: every square underflowed, and a zero spectrum would
misreport the instance as unidentifiable.  Identical features, whose
differences are all zero, are reported as not identifiable.
Ranking recovery turns the weight error into a Kendall-distance guarantee
via the k-th sorted utility gap, and the empirical guarantee check fits
sampled data against the error bound; both read the
``SampleComplexityReport`` rather than recompute it.  Eigenvalues of the
small d x d certificate matrices come from LAPACK; zeta takes the
eigendecomposition of E[Z] and solves a secular equation per pair (see
``_kernels.zeta_scan``).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .errors import PreconditionError
from .estimator import FitConfig, fit, max_abs_margin
from .features import FeatureMatrix, center_columns, check_weights
from .model import sample_comparisons
from .ranking import utility_gaps
from .selection import RealizedSelection

_SCALE_OVERFLOW = "feature scale overflows float64 in the certificate terms; rescale the features"
_SCALE_UNDERFLOW = "feature scale underflows float64 in the certificate terms; rescale the features"


class _Report:
    """``to_dict`` over the dataclass fields, in order: a trailing ``_`` is
    dropped from a field name and a tuple becomes a list; ``_extra()`` adds
    derived keys."""

    def to_dict(self) -> dict:
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            out[field.name.removesuffix("_")] = list(value) if isinstance(value, tuple) else value
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


def _check_underflow(moment: np.ndarray, values: np.ndarray) -> None:
    """Raise when a second moment of nonzero values is exactly zero: every
    square underflowed, so a zero spectrum would misreport the scale as
    unidentifiable.  Values that are all zero leave it zero rightly."""
    if np.trace(moment) == 0.0 and values.any():
        raise PreconditionError(_SCALE_UNDERFLOW)


def _spectrum(X: np.ndarray):
    """E[Z] = X^T X / P, its ascending ``(eigenvalues, eigenvectors)`` and its
    rank, refused before the eigendecomposition when E[Z] overflows or
    underflows."""
    EZ = _kernels.second_moment(X)
    _check_finite(EZ)
    _check_underflow(EZ, X)
    spectrum, rank = _kernels.psd_spectrum(EZ)
    return EZ, spectrum, rank


@dataclass(frozen=True)
class IdentifiabilityResult(_Report):
    identifiable: bool
    rank: int
    d: int


def identifiability_check(
    features: FeatureMatrix, sel: RealizedSelection
) -> IdentifiabilityResult:
    """Numerical rank of E[Z], the span of the masked differences.

    Eigenvalues at or below 1e-10 of trace(E[Z]) / d count as zero.  This is
    the rank ``sample_complexity_report`` records, so the two verdicts always
    agree; a caller holding the certificate reads it from there instead.
    """
    _, _, rank = _spectrum(sel.diff_table())
    return IdentifiabilityResult(rank == features.d, rank, features.d)


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    return delta


def _b_star(features: FeatureMatrix, sel: RealizedSelection, w_star) -> float | None:
    """max over pairs of |<w*, x_ij>|; None without true weights."""
    return None if w_star is None else max_abs_margin(features, sel, w_star)


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
        if m <= 0:
            raise PreconditionError("sample size must be positive")
        return self.error_bound_coefficient / math.sqrt(m)


@dataclass(frozen=True)
class SampleComplexityReport(_ErrorBound):
    """Certificate for an arbitrary selection function."""

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


@_finite_scale
def sample_complexity_report(
    features: FeatureMatrix,
    sel: RealizedSelection,
    w_star=None,
    delta: float = 0.05,
) -> SampleComplexityReport:
    """Compute lambda, eta, zeta, beta, b*, m1, m2 and the error bound.

    A non-identifiable instance (lambda at numerical zero) is reported, not
    raised: m2 and the error bound become infinite.
    """
    delta = _check_delta(delta)
    d = features.d
    X = sel.diff_table()
    EZ, spectrum, rank = _spectrum(X)
    sq = (X**2).sum(axis=1)
    V = (X * sq[:, None]).T @ X / X.shape[0] - EZ @ EZ  # E[(Z - E[Z])^2]
    V = 0.5 * (V + V.T)
    _check_finite(V)

    lam = max(float(spectrum[0][0]), 0.0)
    eta = max(float(_kernels.sym_eigvals(V)[-1]), 0.0)
    zeta = float(_kernels.zeta_scan(spectrum, X))
    beta = float(np.abs(X).max()) if X.size else 0.0
    b_star = _b_star(features, sel, w_star)
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
        n=features.n,
        error_bound_coefficient=coeff,
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
    delta: float = 0.05,
    w_star=None,
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
    _check_underflow(gram, U)
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
def single_coordinate_report(
    features: FeatureMatrix,
    sel: RealizedSelection,
    delta: float = 0.05,
    w_star=None,
) -> SingleCoordinateBounds:
    """Certificate when |subset| = 1 for every pair.

    The pairs partition by their selected coordinate; an empty part means the
    corresponding weight coordinate is never observed, so the lower bound on
    lambda degenerates to 0 and the thresholds to infinity (reported, not
    raised).  ``m3`` is m2 with the bounds on lambda, eta and zeta in it.
    Raises if any realized subset is not a singleton.
    """
    delta = _check_delta(delta)
    d, n = features.d, features.n
    partition = sel.partition_by_coordinate()
    sizes = tuple(len(g) for g in partition)
    npairs = n * (n - 1) // 2

    X = sel.diff_table()
    row_inf = np.abs(X).max(axis=1)
    epsilon = float(row_inf.min())
    beta = float(row_inf.max())

    min_pk = min(sizes)
    max_pk = max(sizes)
    lambda_lower = epsilon**2 * min_pk / npairs
    zeta_upper = beta**2 + beta**2 * max_pk / npairs
    eta_upper = beta**4 / npairs * max(s + s**2 / npairs for s in sizes)
    b_star = _b_star(features, sel, w_star)
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


def _check_certificate(certificate: SampleComplexityReport, features: FeatureMatrix) -> None:
    if certificate.b_star is None or (certificate.d, certificate.n) != (features.d, features.n):
        raise PreconditionError("certificate must come from the same features and true weights")


@dataclass(frozen=True)
class RankingRecoveryBounds(_Report):
    """Sample threshold for Kendall distance at most k - 1 to the true ranking."""

    M: float
    k: int
    alpha_k: float
    m_terms: tuple[float, float, float]
    m_lower: float
    delta: float
    c5: float
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


def ranking_recovery_report(
    features: FeatureMatrix,
    w_star,
    certificate: SampleComplexityReport,
    k: int,
    c5: float = 1.0,
) -> RankingRecoveryBounds:
    """How many samples before the learned ranking is within distance k - 1.

    ``certificate`` is ``sample_complexity_report(features, sel, w_star,
    delta)``; delta, beta, lambda, m1, m2 and b* are read from it.  The third
    threshold term uses the configurable leading constant ``c5`` (its sharp
    value is not pinned down, so it is a knob, never asserted); a zero utility
    gap alpha_k makes that term infinite: ties in true utilities void the
    guarantee at that k.
    """
    d, n = features.d, features.n
    npairs = n * (n - 1) // 2
    if not 1 <= k <= npairs:
        raise PreconditionError(f"k must lie in [1, C(n,2)] = [1, {npairs}], got {k}")
    if c5 <= 0:
        raise PreconditionError("c5 must be positive")
    _check_certificate(certificate, features)
    w_star = check_weights(w_star, d)

    alpha, M = utility_gaps(features, w_star)
    alpha_k = float(alpha[k - 1])
    log4 = math.log(4.0 * d / certificate.delta)
    term3 = math.inf
    if alpha_k > 0.0 and certificate.identifiable:
        try:
            term3 = (
                c5
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
        c5=float(c5),
        b_star=certificate.b_star,
        lambda_=certificate.lambda_,
    )


@dataclass(frozen=True)
class GuaranteeCheck(_Report):
    """Outcome of sampling-and-fitting trials against the error bound."""

    applicable: bool
    m: int
    m_required: float
    bound: float | None
    trials: int
    pass_rate: float | None
    errors: tuple[float, ...]

    def _extra(self) -> dict:
        return {
            "status": "ok" if self.applicable else "bound not applicable (m below threshold)"
        }


def empirical_guarantee_check(
    features: FeatureMatrix,
    w_star,
    sel: RealizedSelection,
    m: int,
    certificate: SampleComplexityReport,
    trials: int,
    seed: int,
) -> GuaranteeCheck:
    """Fraction of independent fits with error within the certified bound.

    ``certificate`` is ``sample_complexity_report(features, sel, w_star,
    delta)``.  Refuses non-identifiable instances.  When m is below
    max(m1, m2) the bound's precondition fails and the check is skipped
    (applicable=False) rather than run against a bound that promises nothing.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    _check_certificate(certificate, features)
    if not certificate.identifiable:
        raise PreconditionError("instance is not identifiable; the bound never applies")
    m_required = max(certificate.m1, certificate.m2)
    if m < m_required:
        return GuaranteeCheck(
            applicable=False,
            m=m,
            m_required=m_required,
            bound=None,
            trials=trials,
            pass_rate=None,
            errors=(),
        )
    bound = certificate.error_bound(m)
    w_star = check_weights(w_star, features.d)
    errors = []
    for t in range(trials):
        trial_seed = int(np.random.SeedSequence([seed, t]).generate_state(1)[0])
        data = sample_comparisons(features, w_star, sel, m, trial_seed)
        result = fit(features, sel, data, FitConfig(mu=0.0))
        errors.append(float(np.linalg.norm(result.w_hat - w_star)))
    passes = sum(e <= bound for e in errors)
    return GuaranteeCheck(
        applicable=True,
        m=m,
        m_required=m_required,
        bound=bound,
        trials=trials,
        pass_rate=passes / trials,
        errors=tuple(errors),
    )
