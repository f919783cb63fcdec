"""Maximum likelihood estimation of the judgment weights.

The objective ``nll(w) + mu * ||w||^2`` is convex, so any stationary point is
a global minimizer.  It is minimized by damped Newton at every d: the
likelihood folds run over distinct pairs, so the closed-form Hessian costs
O(P d^2) for P pairs and the d x d solve is small beside it.  Where the
Newton step is not a descent direction (a singular Hessian), the iteration
steps along the negative gradient instead.  Armijo backtracking keeps the
objective sequence nonincreasing, and no random numbers are drawn: fitting
the same dataset twice yields the identical result.  The result says why
the iteration stopped: ``converged`` (gradient norm at most ``tol_grad``),
``max_iters``, or ``stalled`` (no step along a descent ray passed the line
search).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalFailureError, PreconditionError
from .features import FeatureMatrix, check_weights
from .model import ComparisonDataset, check_ridge, design_matrix
from .selection import RealizedSelection

_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60
# Armijo slack: near the optimum the true decrease drops below the floating
# point resolution of the objective; without this the search cannot accept
# the quadratic-phase Newton steps that drive the gradient to tolerance.
_ARMIJO_EPS = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings.

    ``init=None`` starts from the zero vector (objective m*log 2, a
    scale-free starting point; by convexity the start does not change the
    answer).  Non-convergence is reported in the result, not raised.
    """

    mu: float = 0.0
    tol_grad: float = 1e-8
    max_iters: int = 5000
    init: np.ndarray | None = None

    def __post_init__(self):
        check_ridge(self.mu)
        if not (np.isfinite(self.tol_grad) and self.tol_grad > 0):
            raise PreconditionError(f"tol_grad must be finite and > 0, got {self.tol_grad}")
        if self.max_iters < 1:
            raise PreconditionError("max_iters must be positive")


@dataclass(frozen=True)
class FitResult:
    w_hat: np.ndarray
    final_grad_norm: float
    final_objective: float
    iterations: int
    stop_reason: str  # "converged", "max_iters" or "stalled"

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
        }


def _check_finite(name, value):
    if not np.all(np.isfinite(value)):
        raise NumericalFailureError(f"{name} became non-finite during fitting")


def fit(
    features: FeatureMatrix,
    sel: RealizedSelection,
    data: ComparisonDataset,
    cfg: FitConfig = FitConfig(),
    trace: list | None = None,
) -> FitResult:
    """Minimize the regularized negative log-likelihood.

    Returns a stationary point with gradient norm <= ``cfg.tol_grad`` when
    converged; otherwise the best iterate found with ``converged=False``.
    When ``trace`` is a list, the objective value after every accepted step
    is appended to it.
    """
    if data.total.size == 0:
        raise PreconditionError("cannot fit an empty dataset")
    d = features.d
    X = design_matrix(sel, data)
    total = data.total.astype(np.float64)
    wins = data.wins.astype(np.float64)
    mu = float(cfg.mu)
    if cfg.init is None:
        w = np.zeros(d)
    else:
        w = check_weights(cfg.init, d).copy()

    f = float(_kernels.nll_value(X, total, wins, w, mu))
    _check_finite("objective", f)
    if trace is not None:
        trace.append(f)
    iterations = 0
    stop_reason = "max_iters"
    grad_norm = np.inf

    for _ in range(cfg.max_iters):
        g = _kernels.nll_grad(X, total, wins, w, mu)
        _check_finite("gradient", g)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.tol_grad:
            stop_reason = "converged"
            break

        H = _kernels.nll_hess(X, total, wins, w, mu)
        _check_finite("hessian", H)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)) or g @ step >= 0:
            step = -g  # singular or non-descent: steepest descent

        slope = float(g @ step)
        slack = _ARMIJO_EPS * (1.0 + abs(f))
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            w_try = w + t * step
            f_try = float(_kernels.nll_value(X, total, wins, w_try, mu))
            if np.isfinite(f_try) and f_try <= f + _ARMIJO_C * t * slope + slack:
                accepted = True
                break
            t *= _BACKTRACK
        iterations += 1
        if not accepted:
            stop_reason = "stalled"
            break
        w, f = w_try, f_try
        if trace is not None:
            trace.append(f)

    else:  # loop exhausted max_iters: the last step may still have converged
        g = _kernels.nll_grad(X, total, wins, w, mu)
        _check_finite("gradient", g)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= cfg.tol_grad:
            stop_reason = "converged"

    w.setflags(write=False)
    return FitResult(
        w_hat=w,
        final_grad_norm=grad_norm,
        final_objective=f,
        iterations=iterations,
        stop_reason=stop_reason,
    )


def max_abs_margin(features: FeatureMatrix, sel: RealizedSelection, w) -> float:
    """Largest |<w, masked difference>| over all pairs.

    This is the widest in-context utility margin the weights produce; the
    estimation-error certificates are exponential in it.
    """
    w = check_weights(w, features.d)
    table = sel.diff_table()
    if table.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(table @ w)))
