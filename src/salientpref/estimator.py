"""Maximum likelihood estimation of the judgment weights.

The objective ``nll(w) + mu * ||w||^2`` is convex, so any stationary point is
a global minimizer.  It is minimized by damped Newton at every d: the
likelihood folds run over distinct pairs, so the closed-form Hessian costs
O(P d^2) for P pairs and its d x d eigendecomposition is small beside it.
Each step inverts the Hessian on its numerical range only (eigenvalues above
numpy's ``matrix_rank`` cutoff) and leaves the rest of the space alone, so a
design whose rows span only part of R^d needs no second rule.  Armijo
backtracking keeps the objective sequence nonincreasing, and no random
numbers are drawn: fitting the same dataset twice yields the identical
result.  The result says why the iteration stopped: ``converged`` (gradient
norm at most ``tol_grad``), ``max_iters``, ``stalled`` (the gradient left the
Hessian's numerical range, or no step passed the line search) or, without a
ridge, ``separated`` (the fitted direction separates the outcomes, so the
maximum likelihood estimate does not exist).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NumericalFailureError, PreconditionError
from .features import check_real
from .model import ComparisonDataset, check_ridge, design_matrix
from .selection import RealizedSelection

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# Armijo slack: near the optimum the true decrease drops below the floating
# point resolution of the objective; without this the search cannot accept
# the quadratic-phase Newton steps that drive the gradient to tolerance.
_ARMIJO_EPS = 1e-12
_EPS = np.finfo(np.float64).eps
# Separation test: margins within this fraction of max |X| count as zero.
_SEPARATION_REL_TOL = 1e-8
# Newton steps before the fit stops as ``max_iters``.
_MAX_ITERS = 5000


@dataclass(frozen=True)
class FitResult:
    w_hat: np.ndarray
    final_grad_norm: float
    final_objective: float
    iterations: int
    stop_reason: str  # "converged", "max_iters", "stalled" or "separated"
    data_rank: int  # rank of the observed design's second moment X^T X / P
    # one (objective, grad_norm, step, backtracks) record per iterate, the
    # zero start first; ``step`` is the length of the move that reached the
    # iterate and ``backtracks`` the halvings its line search took
    history: tuple[tuple[float, float, float, int], ...] = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def to_dict(self) -> dict:
        return {
            "w_hat": [float(v) for v in self.w_hat],
            "final_grad_norm": float(self.final_grad_norm),
            "final_objective": float(self.final_objective),
            "iterations": int(self.iterations),
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "data_rank": int(self.data_rank),
        }


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise NumericalFailureError(f"{name} became non-finite during fitting")


def _range_newton_step(H, g):
    """-H^+ g over the numerical range of the PSD matrix H: eigenvalues at or
    below ``ev[-1] * d * eps`` (numpy's ``matrix_rank`` cutoff) get zero
    weight."""
    ev, Q = np.linalg.eigh(H)
    keep = ev > ev[-1] * H.shape[0] * _EPS
    inv = np.divide(1.0, ev, out=np.zeros_like(ev), where=keep)
    return -(Q @ (inv * (Q.T @ g)))


def _separates(X, total, wins, w) -> bool:
    """Whether the direction of w separates the outcomes: no pair with
    losses has a margin above tol, no pair with wins one below -tol, and
    some margin exceeds tol in size, with tol = 1e-8 * max |X|."""
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return False
    s = X @ (w / norm)
    tol = _SEPARATION_REL_TOL * float(np.abs(X).max())
    return bool(
        np.all(s[wins < total] <= tol)
        and np.all(s[wins > 0] >= -tol)
        and np.any(np.abs(s) > tol)
    )


def fit(
    sel: RealizedSelection,
    data: ComparisonDataset,
    *,
    mu: float = 0.0,
    tol_grad: float = 1e-8,
) -> FitResult:
    """Minimize ``nll(w) + mu * ||w||^2`` by damped Newton from w = 0.

    ``mu`` is a finite ridge >= 0 and ``tol_grad`` a finite gradient-norm
    tolerance > 0.  Returns a stationary point with gradient norm <=
    ``tol_grad`` when converged; otherwise the last accepted iterate with
    ``converged=False`` (after at most ``_MAX_ITERS`` Newton steps).
    ``history`` records every iterate, the start included.

    ``data_rank`` is the rank of the observed design's second moment
    ``X^T X / P`` under the certificates' zero rule (``_kernels.zero_tol``).  Without a
    ridge the likelihood sees w only on the span of the observed rows, and
    every step stays in the span of the gradient and Hessian, so from the
    zero start the fit converges to the minimum-norm maximiser: when
    ``data_rank < d``, the weights along the unobserved directions are 0 by
    convention.

    Without a ridge the fit also tests whether ``w_hat / ||w_hat||``
    separates the outcomes (Albert & Anderson, Biometrika 1984), in O(P d)
    for P pairs; if it does, the likelihood keeps rising along it, no
    maximum likelihood estimate exists and ``stop_reason`` is
    ``separated``.  A positive answer is exact up to the tolerance; a
    negative one can miss a separating direction that differs from the
    fitted one (finding it for certain needs a linear program).
    """
    mu = check_ridge(mu)
    tol_grad = check_real("tol_grad", tol_grad)
    if not (np.isfinite(tol_grad) and tol_grad > 0):
        raise PreconditionError(f"tol_grad must be finite and > 0, got {tol_grad}")
    if data.total.size == 0:
        raise PreconditionError("cannot fit an empty dataset")
    X = design_matrix(sel, data)
    total = data.total.astype(np.float64)
    wins = data.wins.astype(np.float64)
    w = np.zeros(sel.features.d)
    moment = _kernels.second_moment(X)
    _check_finite("design second moment", moment)
    data_rank = _kernels.psd_spectrum(moment)[1]

    f = float(_kernels.nll_value(X, total, wins, w, mu))
    _check_finite("objective", f)
    history = []
    move, backtracks = 0.0, 0
    iterations = 0

    while True:
        g = _kernels.nll_grad(X, total, wins, w, mu)
        _check_finite("gradient", g)
        grad_norm = float(np.linalg.norm(g))
        history.append((f, grad_norm, move, backtracks))
        if grad_norm <= tol_grad:
            stop_reason = "converged"
            break
        if iterations == _MAX_ITERS:
            stop_reason = "max_iters"
            break
        iterations += 1

        H = _kernels.nll_hess(X, total, wins, w, mu)
        _check_finite("hessian", H)
        step = _range_newton_step(H, g)
        slope = float(g @ step)
        if not slope < 0.0:  # g outside H's numerical range: no descent step
            stop_reason = "stalled"
            break

        slack = _ARMIJO_EPS * (1.0 + abs(f))
        t = 1.0
        for backtracks in range(_MAX_BACKTRACKS):
            w_try = w + t * step
            f_try = float(_kernels.nll_value(X, total, wins, w_try, mu))
            if np.isfinite(f_try) and f_try <= f + _ARMIJO_C * t * slope + slack:
                break
            t *= _BACKTRACK
        else:
            stop_reason = "stalled"
            break
        w, f = w_try, f_try
        move = t * float(np.linalg.norm(step))

    if mu == 0.0 and _separates(X, total, wins, w):
        stop_reason = "separated"
    w.setflags(write=False)
    return FitResult(
        w_hat=w,
        final_grad_norm=grad_norm,
        final_objective=f,
        iterations=iterations,
        stop_reason=stop_reason,
        data_rank=data_rank,
        history=tuple(history),
    )
