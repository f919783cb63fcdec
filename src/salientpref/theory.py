"""Identifiability and sample-complexity certificates.

All quantities are exact uniform averages over the C(n, 2) pairs (never
Monte Carlo).  With ``x_ij`` the masked feature difference of a pair and
``Z_ij = x_ij x_ij^T``:

    lambda = smallest eigenvalue of E[Z]
    eta    = largest singular value of E[(Z - E[Z])^2]
    zeta   = max over pairs of the largest eigenvalue of E[Z] - Z_pair
    beta   = max over pairs of ||x_ij||_inf
    b_star = max over pairs of |<w*, x_ij>|   (needs the true weights)

The model is identifiable exactly when lambda > 0, equivalently when the
masked differences span the whole feature space.  The sample thresholds with
log terms L4 = log(4d/delta), L2 = log(2d/delta) are

    m1 = (3 beta^2 L4 d + 4 sqrt(d) beta L4) / 6
    m2 = 8 L2 (6 eta + lambda zeta) / (3 lambda^2)

and for m >= max(m1, m2), with probability at least 1 - delta,

    ||w* - w_hat||_2 <= 4 (1 + e^b*)^2 / (e^b* lambda)
                        * sqrt((3 beta^2 L4 d + 4 sqrt(d) beta L4) / (6 m)).

Two specializations tighten this: full selection on column-centered features
(lambda has the closed form n * eigmin(U U^T) / C(n,2)), and single-coordinate
selection (bounds in terms of the coordinate partition sizes).  A third turns
the weight error into a Kendall-distance guarantee via the sorted utility
gaps.  Eigenvalues of the small d x d certificate matrices come from LAPACK;
zeta comes from one eigendecomposition of E[Z] and a secular-equation root
per pair (see ``_kernels.zeta_scan``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import PreconditionError
from .estimator import FitConfig, fit
from .features import FeatureMatrix, check_weights
from .model import sample_comparisons
from .ranking import utility_gaps
from .selection import RealizedSelection, all_pairs

LAMBDA_REL_TOL = 1e-10
RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class IdentifiabilityResult:
    identifiable: bool
    rank: int
    d: int

    def to_dict(self) -> dict:
        return {
            "identifiable": self.identifiable,
            "rank": self.rank,
            "d": self.d,
        }


def identifiability_check(
    features: FeatureMatrix, sel: RealizedSelection
) -> IdentifiabilityResult:
    """Numerical rank of the masked-difference span.

    Identifiable exactly when the C(n,2) masked differences span the full
    feature space; singular values below 1e-10 of the largest count as zero.
    """
    X = sel.diff_table()
    sv = np.linalg.svd(X, compute_uv=False)
    top = float(sv[0]) if sv.size else 0.0
    rank = int(np.count_nonzero(sv > RANK_REL_TOL * top)) if top > 0.0 else 0
    return IdentifiabilityResult(rank == features.d, rank, features.d)


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise PreconditionError(f"delta must lie in (0, 1), got {delta}")
    return delta


def _m1_threshold(beta: float, d: int, log4: float) -> float:
    return (3.0 * beta**2 * log4 * d + 4.0 * math.sqrt(d) * beta * log4) / 6.0


def _error_coefficient(b_star: float, inv_lambda_like: float, m1: float) -> float:
    """Error bound times sqrt(m); the m1 threshold is the bound's sqrt argument."""
    eb = math.exp(b_star)
    return 4.0 * (1.0 + eb) ** 2 / eb * inv_lambda_like * math.sqrt(m1)


class _ErrorBound:
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
    delta: float
    m1: float
    m2: float
    d: int
    n: int
    error_bound_coefficient: float | None

    def to_dict(self) -> dict:
        return {
            "lambda": self.lambda_,
            "eta": self.eta,
            "zeta": self.zeta,
            "beta": self.beta,
            "b_star": self.b_star,
            "identifiable": self.identifiable,
            "delta": self.delta,
            "m1": self.m1,
            "m2": self.m2,
            "d": self.d,
            "n": self.n,
            "error_bound_coefficient": self.error_bound_coefficient,
        }


def _pair_moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[Z] and E[(Z - E[Z])^2] from the masked-difference table."""
    npairs = X.shape[0]
    EZ = X.T @ X / npairs
    sq = (X**2).sum(axis=1)
    EZ2 = (X * sq[:, None]).T @ X / npairs
    V = EZ2 - EZ @ EZ
    V = 0.5 * (V + V.T)
    return EZ, V


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
    X = np.ascontiguousarray(sel.diff_table())
    EZ, V = _pair_moments(X)

    lam = max(float(_kernels.sym_eigvals(EZ)[0]), 0.0)
    eta = max(float(_kernels.sym_eigvals(V)[-1]), 0.0)
    zeta = float(_kernels.zeta_scan(EZ, X))
    beta = float(np.abs(X).max()) if X.size else 0.0

    lam_tol = LAMBDA_REL_TOL * float(np.trace(EZ)) / d
    identifiable = lam > lam_tol

    log4 = math.log(4.0 * d / delta)
    log2 = math.log(2.0 * d / delta)
    m1 = _m1_threshold(beta, d, log4)
    if identifiable:
        m2 = 8.0 * log2 * (6.0 * eta + lam * zeta) / (3.0 * lam**2)
    else:
        m2 = math.inf

    b_star = None
    coeff = None
    if w_star is not None:
        w_star = check_weights(w_star, d)
        b_star = float(np.abs(X @ w_star).max()) if X.size else 0.0
        coeff = (
            _error_coefficient(b_star, 1.0 / lam, m1)
            if identifiable
            else math.inf
        )
    return SampleComplexityReport(
        lambda_=lam,
        eta=eta,
        zeta=zeta,
        beta=beta,
        b_star=b_star,
        identifiable=identifiable,
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

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "lambda_closed": self.lambda_closed,
            "zeta_upper": self.zeta_upper,
            "eta_upper": self.eta_upper,
            "beta": self.beta,
            "b_star": self.b_star,
            "delta": self.delta,
            "m1": self.m1,
            "m_lower": self.m_lower,
            "d": self.d,
            "n": self.n,
            "error_bound_coefficient": self.error_bound_coefficient,
        }


def full_selection_report(
    features: FeatureMatrix,
    delta: float = 0.05,
    w_star=None,
) -> FullSelectionBounds:
    """Certificate for the all-features selection via the Gram matrix of the
    centered features.

    Requires n > d.  Columns are centered internally (pairwise differences,
    hence probabilities and b*, are unchanged); then lambda equals
    n * eigmin(U U^T) / C(n,2) exactly, and zeta, eta admit the closed upper
    bounds reported here.
    """
    delta = _check_delta(delta)
    d, n = features.d, features.n
    if n <= d:
        raise PreconditionError(f"full-selection bounds assume n > d (n={n}, d={d})")
    U = features.matrix - features.matrix.mean(axis=1, keepdims=True)
    npairs = n * (n - 1) // 2

    gram_eigs = _kernels.sym_eigvals(U @ U.T)
    lmin = max(float(gram_eigs[0]), 0.0)
    lmax = float(gram_eigs[-1])

    ii, jj = all_pairs(n)
    diffs = U[:, ii].T - U[:, jj].T
    nu = max(float((diffs**2).sum(axis=1).max()), 1.0)
    beta = float(np.abs(diffs).max())

    lambda_closed = n * lmin / npairs
    zeta_upper = nu + n * lmax / npairs
    eta_upper = nu * n * lmax / npairs + (n * lmax / npairs) ** 2

    log4 = math.log(4.0 * d / delta)
    log2 = math.log(2.0 * d / delta)
    m1 = _m1_threshold(beta, d, log4)
    if lmin > 0.0:
        variance_term = (
            48.0
            * log2
            * npairs**2
            / (3.0 * n**2 * lmin**2)
            * (nu * n * lmax / npairs + (n * lmax / npairs) ** 2)
        )
        drift_term = (
            8.0 * log2 * npairs / (3.0 * n * lmin) * (nu + n * lmax / npairs)
        )
        m_lower = max(m1, variance_term + drift_term)
    else:
        m_lower = math.inf

    b_star = None
    coeff = None
    if w_star is not None:
        w_star = check_weights(w_star, d)
        b_star = float(np.abs(diffs @ w_star).max())
        coeff = (
            _error_coefficient(b_star, npairs / (n * lmin), m1)
            if lmin > 0.0
            else math.inf
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
        m_lower=m_lower,
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

    def to_dict(self) -> dict:
        return {
            "partition_sizes": list(self.partition_sizes),
            "epsilon": self.epsilon,
            "lambda_lower": self.lambda_lower,
            "zeta_upper": self.zeta_upper,
            "eta_upper": self.eta_upper,
            "beta": self.beta,
            "b_star": self.b_star,
            "delta": self.delta,
            "m1": self.m1,
            "m3": self.m3,
            "m_lower": self.m_lower,
            "d": self.d,
            "n": self.n,
            "error_bound_coefficient": self.error_bound_coefficient,
        }


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
    raised).  Raises if any realized subset is not a singleton.
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

    log4 = math.log(4.0 * d / delta)
    log2 = math.log(2.0 * d / delta)
    m1 = _m1_threshold(beta, d, log4)
    if epsilon > 0.0 and min_pk > 0:
        m3 = 48.0 * log2 * beta**4 * max(
            npairs * s + s**2 for s in sizes
        ) / (3.0 * epsilon**4 * min_pk**2) + 8.0 * log2 * beta**2 * (
            npairs + max_pk
        ) / (3.0 * epsilon**2 * min_pk)
    else:
        m3 = math.inf
    m_lower = max(m1, m3)

    b_star = None
    coeff = None
    if w_star is not None:
        w_star = check_weights(w_star, d)
        b_star = float(np.abs(X @ w_star).max())
        denom = epsilon**2 * min_pk
        coeff = (
            _error_coefficient(b_star, npairs / denom, m1)
            if denom > 0.0
            else math.inf
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
        m_lower=m_lower,
        d=d,
        n=n,
        error_bound_coefficient=coeff,
    )


@dataclass(frozen=True)
class RankingRecoveryBounds:
    """Sample threshold for Kendall distance at most k - 1 to the true ranking."""

    alpha: tuple[float, ...]
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

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "M": self.M,
            "k": self.k,
            "alpha_k": self.alpha_k,
            "m_terms": list(self.m_terms),
            "m_lower": self.m_lower,
            "delta": self.delta,
            "c5": self.c5,
            "b_star": self.b_star,
            "lambda": self.lambda_,
            "predicted": self.predicted,
            "guarantee": (
                f"with probability at least {1.0 - self.delta}, a fit on at least "
                f"m_lower samples puts the estimated ranking within Kendall "
                f"distance {self.k - 1} of the true ranking"
            ),
        }


def ranking_recovery_report(
    features: FeatureMatrix,
    sel: RealizedSelection,
    w_star,
    k: int,
    delta: float = 0.05,
    c5: float = 1.0,
    certificate: SampleComplexityReport | None = None,
) -> RankingRecoveryBounds:
    """How many samples before the learned ranking is within distance k - 1.

    The third threshold term uses the configurable leading constant ``c5``
    (its sharp value is not pinned down, so it is a knob, never asserted);
    a zero utility gap alpha_k makes that term infinite: ties in true
    utilities void the guarantee at that k.

    ``certificate`` is ``sample_complexity_report(features, sel, w_star,
    delta)`` when the caller already has it; otherwise it is computed here.
    """
    delta = _check_delta(delta)
    d, n = features.d, features.n
    npairs = n * (n - 1) // 2
    if not 1 <= k <= npairs:
        raise PreconditionError(f"k must lie in [1, C(n,2)] = [1, {npairs}], got {k}")
    if c5 <= 0:
        raise PreconditionError("c5 must be positive")
    w_star = check_weights(w_star, d)

    alpha, M = utility_gaps(features, w_star)
    alpha_k = float(alpha[k - 1])
    if certificate is None:
        base = sample_complexity_report(features, sel, w_star=w_star, delta=delta)
    elif (
        certificate.b_star is None
        or certificate.delta != delta
        or (certificate.d, certificate.n) != (d, n)
    ):
        raise PreconditionError(
            "certificate must come from the same features, true weights and delta"
        )
    else:
        base = certificate

    log4 = math.log(4.0 * d / delta)
    if alpha_k > 0.0 and base.identifiable:
        term3 = (
            c5
            * M**2
            * math.exp(2.0 * base.b_star)
            * (base.beta**2 * d + base.beta * math.sqrt(d))
            * log4
            / (alpha_k**2 * base.lambda_**2)
        )
    else:
        term3 = math.inf
    terms = (base.m1, base.m2, term3)
    return RankingRecoveryBounds(
        alpha=tuple(float(a) for a in alpha),
        M=M,
        k=k,
        alpha_k=alpha_k,
        m_terms=terms,
        m_lower=max(terms),
        delta=delta,
        c5=float(c5),
        b_star=base.b_star,
        lambda_=base.lambda_,
    )


@dataclass(frozen=True)
class GuaranteeCheck:
    """Outcome of sampling-and-fitting trials against the error bound."""

    applicable: bool
    m: int
    m_required: float
    bound: float | None
    trials: int
    pass_rate: float | None
    errors: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "m": self.m,
            "m_required": self.m_required,
            "bound": self.bound,
            "trials": self.trials,
            "pass_rate": self.pass_rate,
            "errors": list(self.errors),
            "status": "ok" if self.applicable else "bound not applicable (m below threshold)",
        }


def empirical_guarantee_check(
    features: FeatureMatrix,
    w_star,
    sel: RealizedSelection,
    m: int,
    delta: float,
    trials: int,
    seed: int,
) -> GuaranteeCheck:
    """Fraction of independent fits with error within the certified bound.

    Refuses non-identifiable instances.  When m is below max(m1, m2) the
    bound's precondition fails and the check is skipped (applicable=False)
    rather than run against a bound that promises nothing.
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    report = sample_complexity_report(features, sel, w_star=w_star, delta=delta)
    if not report.identifiable:
        raise PreconditionError("instance is not identifiable; the bound never applies")
    m_required = max(report.m1, report.m2)
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
    bound = report.error_bound(m)
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
