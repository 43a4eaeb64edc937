"""Unscented Kalman filter with adaptive process noise and fuzzy supervision.

Generic over user-supplied process/measurement models.  The effective
process-noise covariance each prediction is ``(phi * A) @ Q`` where ``A``
is a diagonal adaptation matrix driven by innovation statistics and
``phi`` a scalar tracking-strength factor from a small fuzzy rule base
(steady dynamics -> smooth estimates, intense dynamics -> fast tracking).

``predict`` and ``update`` take either model kind.  A ``NonlinearModel``
goes through the scaled unscented transform: 2n+1 sigma points from a
Cholesky factor of the covariance, propagated and re-weighted.  An
``AffineModel`` (f affine in the state, h the first m state entries) gets
the transform in closed form.  For such a model the unscented transform
returns exactly the mean f(mean), the covariance ``F P F^T`` and the
cross-covariance ``P H^T`` (Julier & Uhlmann 2004), so the closed form is
the same filter without the two Cholesky factorizations and the sigma-point
sums per step.  Those sums also cost accuracy: with ALPHA = 0.1 the centre
weight is 1 - n/ALPHA^2 (-99 for n = 10), so they cancel terms about 100
times larger than their result.

A FilterState is treated as a value: ``predict`` and ``update`` return new
states instead of mutating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np


class DecompositionFailure(np.linalg.LinAlgError):
    """Covariance not positive semi-definite within jitter tolerance."""


class SingularInnovationCov(np.linalg.LinAlgError):
    """Predicted output covariance cannot be inverted."""


# Fuzzy supervisor: the singleton rule outputs of the steady/moderate/
# intense triangular memberships over the dynamics-intensity signal in
# [0, 1], centered at 0, 0.5 and 1, combined by centroid defuzzification.
FUZZY_OUTPUTS = (0.2, 1.0, 5.0)

# Sigma-point spread of the standard scaled unscented transform.
ALPHA = 0.1
BETA = 2.0
KAPPA = 0.0

# Innovation-matching adaptation of the process-noise scale.
#
# ``ADAPT_WINDOW`` innovations form the sample output covariance; the
# diagonal adaptation entries relax toward the ratio of observed vs.
# modelled innovation spread with relaxation ``ADAPT_GAIN`` per step,
# clamped to [A_MIN, A_MAX].  ``ADAPT_LEAK`` pulls entries toward 1 so
# that a statistically consistent run holds A near identity instead of
# letting the window noise (successive windows share most samples)
# random-walk it away; a sustained mismatch still dominates the leak.
# ``update`` keeps the last ``ADAPT_WINDOW`` innovations, the ones
# ``adapt_q`` reads.
ADAPT_WINDOW = 30
A_MIN = 0.01
A_MAX = 100.0
ADAPT_GAIN = 0.1
ADAPT_LEAK = 0.05


@dataclass(frozen=True)
class NonlinearModel:
    """Discrete-time model x' = f(x, u) + q, y = h(x) + r.

    ``f`` and ``h`` must accept state arrays of shape (n,) or (N, n) and
    map them row-wise (the filter propagates all sigma points in one call);
    the state and output sizes are read from the arrays.
    """

    f: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AffineModel:
    """Discrete-time model x' = f(x, u) + q, y = x[:measured] + r, with f
    affine in x.

    ``f`` maps the mean (n,) once per prediction; ``jacobian(u)`` is the
    (n, n) matrix F with f(x + d, u) = f(x, u) + F d for every d.  The
    filter propagates the covariance as ``F P F^T`` and measures the first
    ``measured`` state entries.
    """

    f: Callable[[np.ndarray, object], np.ndarray]
    jacobian: Callable[[object], np.ndarray]
    measured: int


@dataclass(frozen=True)
class NoiseSpec:
    """Process (Q) and measurement (R) noise covariances."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if not np.allclose(r, r.T, atol=1e-12):
            raise ValueError("R must be symmetric")
        if np.any(np.linalg.eigvalsh(q) < -1e-10):
            raise ValueError("Q must be positive semi-definite")
        if np.any(np.linalg.eigvalsh(r) <= 0.0):
            raise ValueError("R must be positive definite")


@dataclass(frozen=True)
class SigmaSet:
    """2n+1 sigma points with their mean and covariance weights."""

    points: np.ndarray   # (2n+1, n)
    w_mean: np.ndarray   # (2n+1,)
    w_cov: np.ndarray    # (2n+1,)


@dataclass(frozen=True)
class FilterState:
    """The estimator's belief plus adaptation bookkeeping.

    ``residuals`` is the ring buffer of recent innovations (most recent
    last).  ``gain`` and ``innov_cov`` cache the last update's Kalman gain
    and innovation covariance for the adaptation step.  ``predicted``
    tracks the predict/update alternation.
    """

    mean: np.ndarray
    cov: np.ndarray
    a_diag: np.ndarray
    phi: float = 1.0
    residuals: tuple = field(default_factory=tuple)
    gain: np.ndarray | None = None
    innov_cov: np.ndarray | None = None
    predicted: bool = False

    @classmethod
    def initial(cls, mean: np.ndarray, cov: np.ndarray) -> "FilterState":
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return cls(mean=mean, cov=cov, a_diag=np.ones(mean.shape[0]))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter 1e-12 -> 1e-6."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    n = cov.shape[0]
    jitter = 1e-12
    while jitter <= 1e-6:
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise DecompositionFailure(
        "covariance not PSD within jitter tolerance (filter divergence?)")


@lru_cache(maxsize=16)
def _sigma_weights(n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(n + lambda, w_mean, w_cov) for n states; the arrays are read-only
    because every SigmaSet of that size shares them."""
    lam = ALPHA ** 2 * (n + KAPPA) - n
    scale = n + lam
    w_mean = np.full(2 * n + 1, 0.5 / scale)
    w_cov = w_mean.copy()
    w_mean[0] = lam / scale
    w_cov[0] = lam / scale + (1.0 - ALPHA ** 2 + BETA)
    w_mean.flags.writeable = False
    w_cov.flags.writeable = False
    return scale, w_mean, w_cov


def sigma_points(mean: np.ndarray, cov: np.ndarray) -> SigmaSet:
    """Scaled-unscented sigma points for N(mean, cov).

    lambda = alpha^2 (n + kappa) - n; points are mean +/- the columns of
    the Cholesky factor of (n + lambda) cov.  Weighted mean reproduces
    ``mean`` exactly and the weighted covariance reproduces ``cov`` up to
    floating-point error.  The weight vectors are cached per n and
    read-only.
    """
    mean = np.asarray(mean, dtype=float)
    cov = _symmetrize(np.asarray(cov, dtype=float))
    n = mean.shape[0]
    scale, w_mean, w_cov = _sigma_weights(n)
    root = _cholesky_with_jitter(scale * cov)

    points = np.empty((2 * n + 1, n))
    points[0] = mean
    points[1:n + 1] = mean + root.T
    points[n + 1:] = mean - root.T
    return SigmaSet(points=points, w_mean=w_mean, w_cov=w_cov)


def _weighted_moments(points: np.ndarray, w_mean: np.ndarray,
                      w_cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = w_mean @ points
    dev = points - mean
    cov = (dev * w_cov[:, None]).T @ dev
    return mean, _symmetrize(cov)


def predict(fs: FilterState, model: NonlinearModel | AffineModel,
            u: np.ndarray | None, noise: NoiseSpec) -> FilterState:
    """Time update: propagate the belief through f and add (phi*A)Q.

    An ``AffineModel`` maps the mean through f and the covariance through
    its Jacobian; a ``NonlinearModel`` propagates sigma points.
    """
    if isinstance(model, AffineModel):
        mean = np.asarray(model.f(fs.mean, u), dtype=float)
        f_mat = model.jacobian(u)
        cov = f_mat @ fs.cov @ f_mat.T
    else:
        ss = sigma_points(fs.mean, fs.cov)
        propagated = np.asarray(model.f(ss.points, u), dtype=float)
        mean, cov = _weighted_moments(propagated, ss.w_mean, ss.w_cov)
    cov = cov + (fs.phi * fs.a_diag)[:, None] * noise.q
    return FilterState(mean=mean, cov=_symmetrize(cov), a_diag=fs.a_diag,
                       phi=fs.phi, residuals=fs.residuals, gain=fs.gain,
                       innov_cov=fs.innov_cov, predicted=True)


def update(fs: FilterState, model: NonlinearModel | AffineModel,
           y: np.ndarray, noise: NoiseSpec) -> FilterState:
    """Measurement update from the predicted belief.

    An ``AffineModel`` reads the predicted output, its covariance and the
    cross-covariance off the predicted mean and covariance; a
    ``NonlinearModel`` redraws sigma points from them.  The innovation
    y - y_hat is pushed into the residual ring buffer, which keeps the last
    ADAPT_WINDOW innovations.  Raises SingularInnovationCov when the
    innovation covariance is not finite, cannot be inverted or has a
    condition number above 1e14.
    """
    if not fs.predicted:
        raise ValueError("update requires a predicted FilterState")
    y = np.asarray(y, dtype=float)
    if isinstance(model, AffineModel):
        m = model.measured
        y_hat = fs.mean[:m]
        # The predicted covariance is symmetric, and so is S.
        s_cov = fs.cov[:m, :m] + noise.r
        cross = fs.cov[:, :m]
    else:
        ss = sigma_points(fs.mean, fs.cov)
        outputs = np.asarray(model.h(ss.points), dtype=float)
        w_col = ss.w_cov[:, None]
        y_hat = ss.w_mean @ outputs
        dev_y = outputs - y_hat
        s_cov = _symmetrize((dev_y * w_col).T @ dev_y + noise.r)
        dev_x = ss.points - fs.mean
        cross = (dev_x * w_col).T @ dev_y
    if not np.isfinite(s_cov).all():
        raise SingularInnovationCov("innovation covariance is not finite")

    try:
        gain = np.linalg.solve(s_cov, cross.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationCov(str(exc)) from exc
    # The 2-norm condition number, as np.linalg.cond computes it.
    sv = np.linalg.svd(s_cov, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularInnovationCov(f"innovation covariance condition {cond:.2e}")

    innovation = y - y_hat
    mean = fs.mean + gain @ innovation
    cov = _symmetrize(fs.cov - gain @ s_cov @ gain.T)

    residuals = (fs.residuals + (innovation,))[-ADAPT_WINDOW:]
    return FilterState(mean=mean, cov=cov, a_diag=fs.a_diag, phi=fs.phi,
                       residuals=residuals, gain=gain, innov_cov=s_cov,
                       predicted=False)


def adapt_q(fs: FilterState) -> np.ndarray:
    """Diagonal adaptation entries from innovation matching.

    The sample output covariance over the window and the covariance the
    filter predicted for the same innovations are both mapped to state
    space through the last Kalman gain; each diagonal adaptation entry
    relaxes toward their ratio.  Innovations larger than modelled
    (process noise understated) grow A, smaller ones shrink it; a
    statistically consistent filter holds A at its fixed point.  Until
    ``update`` has buffered ADAPT_WINDOW innovations, returns ``fs.a_diag``
    itself (the previous adaptation is kept).
    """
    if len(fs.residuals) < ADAPT_WINDOW:
        return fs.a_diag

    # One row per innovation; np.concatenate skips np.asarray's inspection
    # of each item.
    res = np.concatenate(fs.residuals[-ADAPT_WINDOW:]).reshape(
        ADAPT_WINDOW, -1)
    s_bar = res.T @ res / (ADAPT_WINDOW - 1)
    actual = (fs.gain @ s_bar @ fs.gain.T).diagonal()
    expected = (fs.gain @ fs.innov_cov @ fs.gain.T).diagonal()

    a_new = fs.a_diag.copy()
    usable = expected > 1e-300
    ratio = actual[usable] / expected[usable]
    a_new[usable] = (fs.a_diag[usable] ** (1.0 - ADAPT_LEAK)
                     * (1.0 - ADAPT_GAIN + ADAPT_GAIN * ratio))
    return np.clip(a_new, A_MIN, A_MAX)


def fuzzy_factor(dynamics_signal: float) -> float:
    """Tracking-strength multiplier from the dynamics-intensity signal.

    Membership degrees of the (clamped) signal in the steady/moderate/
    intense triangles weight the singleton rule outputs; the centroid of
    those weighted outputs is the factor.  Monotone nondecreasing, equal
    to the steady output at 0 and the intense output from the intense
    center on.
    """
    if dynamics_signal < 0.0:
        raise ValueError("dynamics_signal must be non-negative")
    x = min(dynamics_signal, 1.0)
    if x < 0.5:
        memberships = ((0.5 - x) / 0.5, x / 0.5, 0.0)
    else:
        memberships = (0.0, (1.0 - x) / 0.5, (x - 0.5) / 0.5)
    total = sum(memberships)
    return sum(m * out for m, out in zip(memberships, FUZZY_OUTPUTS)) / total
