"""Unscented Kalman filter with adaptive process noise and fuzzy supervision.

The caller hands ``predict`` the propagated mean f(mean) and the Jacobian
F of a process model f that is affine in the state, so that
f(x + d) = f(x) + F d for every d; ``update`` measures the leading m state
entries, m being the size of R.  The effective process-noise
covariance each prediction is ``(phi * A) @ Q`` where ``A`` is a diagonal
adaptation matrix driven by innovation statistics and ``phi`` a scalar
tracking-strength factor from a small fuzzy rule base (steady dynamics ->
smooth estimates, intense dynamics -> fast tracking).

For such a filter the scaled unscented transform is exact: its sigma points
return the mean f(mean), the covariance ``F P F^T`` and the
cross-covariance ``P H^T`` (Julier & Uhlmann 2004).  So ``predict`` and
``update`` compute these moments in closed form; this is the unscented
filter without the two Cholesky factorizations and the 2n+1 sigma-point
propagations per step.  The closed form is also the more accurate one:
with the standard spread alpha = 0.1 the centre weight is 1 - n/alpha^2
(-99 for n = 10), so the sigma-point sums cancel terms about 100 times
larger than their result.

The measurement noise R is diagonal (``NoiseSpec`` refuses any other), so
one update with m outputs equals m scalar updates in sequence (Bierman
1977; Simon 2006, section 6.1).  ``update`` makes them in index order,
each with one pivot s_i = P[i, i] + r_i and no matrix solve, and refuses
a pivot that is not finite and positive: the innovation covariance S is
then not positive definite.  Every operation of the update is
elementwise or on Python floats, and ``adapt_q`` raises to a power with
the C library's ``pow``, so neither depends on the BLAS kernel or on
numpy's CPU dispatch.  The products of ``predict`` (F P F^T) and of
``adapt_q`` remain BLAS ``@`` products.

The adaptation compares the sample spread of the last ``ADAPT_WINDOW``
innovations with the spread the filter expected, both mapped to state
space through the last gain K.  The expected spread is the diagonal of
K S K^T, the covariance reduction that ``update`` subtracts, so ``update``
keeps that product's diagonal in the state for ``adapt_q``.  It also keeps
the innovation window as one (k, m) array, oldest row first.

A FilterState is treated as a value: ``predict`` and ``update`` return new
states instead of mutating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SingularInnovationCov(np.linalg.LinAlgError):
    """Predicted output covariance is not positive definite."""


# Fuzzy supervisor: the singleton rule outputs of the steady/moderate/
# intense triangular memberships over the dynamics-intensity signal in
# [0, 1], centered at 0, 0.5 and 1, combined by centroid defuzzification.
FUZZY_OUTPUTS = (0.2, 1.0, 5.0)

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
class NoiseSpec:
    """Process (Q) and measurement (R) noise covariances: finite diagonal
    matrices, Q's diagonal non-negative and R's positive.  For a diagonal
    matrix these are exactly symmetry and positive (semi-)definiteness."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        for name, mat in (("Q", q), ("R", r)):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} must be finite")
            if not np.array_equal(mat, np.diag(mat.diagonal())):
                raise ValueError(f"{name} must be a diagonal matrix")
        if not (q.diagonal() >= 0.0).all():
            raise ValueError("Q must be positive semi-definite")
        if not (r.diagonal() > 0.0).all():
            raise ValueError("R must be positive definite")


@dataclass(frozen=True)
class FilterState:
    """The estimator's belief plus adaptation bookkeeping.

    ``residuals`` holds the last ``ADAPT_WINDOW`` innovations as one
    C-contiguous (k, m) array, oldest row first; None before the first
    update.  ``gain`` is the last update's Kalman gain K and ``spread``
    the diagonal of its K S K^T, the spread the adaptation step expects.
    ``predicted`` tracks the predict/update alternation.
    """

    mean: np.ndarray
    cov: np.ndarray
    a_diag: np.ndarray
    phi: float = 1.0
    residuals: np.ndarray | None = None
    gain: np.ndarray | None = None
    spread: np.ndarray | None = None
    predicted: bool = False

    @classmethod
    def initial(cls, mean: np.ndarray, cov: np.ndarray) -> "FilterState":
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return cls(mean=mean, cov=cov, a_diag=np.ones(mean.shape[0]))


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def predict(fs: FilterState, mean: np.ndarray, f_mat: np.ndarray,
            noise: NoiseSpec, phi: float, a_diag: np.ndarray) -> FilterState:
    """Time update to ``mean`` = f(fs.mean), with the covariance through
    f's Jacobian ``f_mat`` as ``F P F^T``, plus (phi*A)Q for the given
    ``phi`` and ``a_diag``, which the predicted state carries."""
    cov = f_mat @ fs.cov @ f_mat.T + (phi * a_diag)[:, None] * noise.q
    return FilterState(mean, _symmetrize(cov), a_diag, phi, fs.residuals,
                       fs.gain, fs.spread, True)


def update(fs: FilterState, y: np.ndarray, noise: NoiseSpec) -> FilterState:
    """Measurement update from the predicted belief.

    ``y`` holds m values, m being the size of R, and the predicted output
    is the first m entries of the mean.  Output i in turn, with pivot
    s_i = P[i, i] + r_i and gain k = P[i] / s_i, does
    mean += k (y_i - mean_i) and P -= P[i] P[i]^T / s_i.  P arrives
    symmetric (``predict`` symmetrizes it exactly) and each reduction is
    formed symmetric, so P stays exactly symmetric and its row i is its
    column i.  The innovation y - y_hat against the predicted mean
    becomes the last row of a new residual window, which keeps the last
    ADAPT_WINDOW innovations.  The state keeps the gain K = P+[:, :m] / r
    of the whole update and, as ``spread``, the diagonal of the
    covariance reduction K S K^T, summed over the m reductions it
    subtracted.  K is read off the posterior, so it loses what P+ loses
    to cancellation, about 2.2e-16 P / r relative: up to about 5e-10 at
    r = 1e-8 with P near 1e-2, up to about 2e-8 with P near 1, and all
    of it once r is below 2.2e-16 P.  Raises ValueError when
    ``y`` has another shape, and SingularInnovationCov when a pivot is
    not finite and positive, that is when S is not positive definite.
    """
    if not fs.predicted:
        raise ValueError("update requires a predicted FilterState")
    y = np.asarray(y, dtype=float)
    r = noise.r.diagonal()
    m = len(r)
    if y.shape != (m,):
        raise ValueError(f"measurement must hold the {m} values R "
                         f"describes, got shape {y.shape}")
    innovation = y - fs.mean[:m]
    mean = fs.mean.copy()
    cov = fs.cov.copy()
    spread = np.zeros(len(mean))
    for i, (y_i, r_i) in enumerate(zip(y.tolist(), r.tolist())):
        row = cov[i]
        pivot = cov.item(i, i) + r_i
        if not 0.0 < pivot < math.inf:
            raise SingularInnovationCov(
                f"innovation variance {pivot!r} of output {i}")
        mean += row * ((y_i - mean.item(i)) / pivot)
        reduction = row[:, None] * row
        reduction /= pivot
        spread += reduction.diagonal()
        cov -= reduction

    # A fresh C-contiguous window, so adapt_q's res.T @ res sees the
    # operand it always has.
    past = fs.residuals
    residuals = (innovation[None] if past is None else
                 np.concatenate((past[1 - ADAPT_WINDOW:], innovation[None])))
    return FilterState(mean, cov, fs.a_diag, fs.phi, residuals,
                       cov[:, :m] / r, spread, False)


def adapt_q(fs: FilterState) -> np.ndarray:
    """Diagonal adaptation entries from innovation matching.

    The sample output covariance over the window and the covariance the
    filter predicted for the same innovations are both mapped to state
    space through the last Kalman gain; each diagonal adaptation entry
    relaxes toward their ratio.  The mapped predicted covariance is the
    K S K^T that ``update`` subtracted, whose diagonal the state keeps.
    Innovations larger than modelled (process noise understated) grow A,
    smaller ones shrink it; a statistically consistent filter holds A at
    its fixed point.  An entry whose expected spread is 1e-300 or less (or
    NaN) keeps its previous value.  Until ``update`` has buffered
    ADAPT_WINDOW innovations, returns ``fs.a_diag`` itself (the previous
    adaptation is kept).
    """
    res = fs.residuals
    if res is None or len(res) < ADAPT_WINDOW:
        return fs.a_diag

    s_bar = res.T @ res / (ADAPT_WINDOW - 1)
    actual = (fs.gain @ s_bar @ fs.gain.T).diagonal()
    # In Python floats: ** is the C library's pow, whatever numpy
    # dispatches its own power loop to on this CPU.
    a_new = []
    for a, got, expected in zip(fs.a_diag.tolist(), actual.tolist(),
                                fs.spread.tolist()):
        if expected > 1e-300:
            a = a ** (1.0 - ADAPT_LEAK) * (1.0 - ADAPT_GAIN
                                           + ADAPT_GAIN * (got / expected))
        a_new.append(A_MIN if a < A_MIN else A_MAX if a > A_MAX else a)
    return np.array(a_new)


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
        m0, m1, m2 = (0.5 - x) / 0.5, x / 0.5, 0.0
    else:
        m0, m1, m2 = 0.0, (1.0 - x) / 0.5, (x - 0.5) / 0.5
    o0, o1, o2 = FUZZY_OUTPUTS
    # Both sums left to right from 0, as sum() adds them; at most two
    # terms are nonzero, so the compensated sum() of Python 3.12 agrees.
    return (0.0 + m0 * o0 + m1 * o1 + m2 * o2) / (0.0 + m0 + m1 + m2)
