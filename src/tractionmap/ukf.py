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

``update`` refuses an innovation covariance S whose condition number
exceeds 1e14.  S is symmetric (``predict`` symmetrizes P exactly and
``NoiseSpec`` holds R symmetric), so that 2-norm condition number is the
ratio of the largest to the smallest eigenvalue magnitude, from one
LAPACK eigenvalue solve of S's lower triangle.  The gain's solve and
that eigenvalue solve call the LAPACK gufuncs of ``np.linalg.solve`` and
``np.linalg.eigvalsh`` (numpy's ``_umath_linalg``) under the error state
``np.linalg.solve`` sets, the same bits and the same "Singular matrix"
refusal without the wrappers' per-call type and shape dispatch, which
took about half of the solve's time.

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
from numpy.linalg import _umath_linalg


class SingularInnovationCov(np.linalg.LinAlgError):
    """Predicted output covariance cannot be inverted."""


def _raise_singular(err, flag):
    """The error-state call of the solve: LAPACK found S singular."""
    raise SingularInnovationCov("Singular matrix")


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
    """Process (Q) and measurement (R) noise covariances: finite and
    symmetric, Q positive semi-definite and R positive definite."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        if not np.isfinite(q).all():
            raise ValueError("Q must be finite")
        if not np.isfinite(r).all():
            raise ValueError("R must be finite")
        if not np.allclose(q, q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        if not np.allclose(r, r.T, atol=1e-12):
            raise ValueError("R must be symmetric")
        if np.any(np.linalg.eigvalsh(q) < -1e-10):
            raise ValueError("Q must be positive semi-definite")
        if np.any(np.linalg.eigvalsh(r) <= 0.0):
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
    is the first m entries of the mean; its covariance S and the
    cross-covariance are the matching blocks of the predicted covariance.
    The innovation y - y_hat becomes the last row of a new residual
    window, which keeps the last ADAPT_WINDOW innovations, and the state
    keeps the diagonal of the K S K^T it subtracts.  Raises ValueError
    when ``y`` has another shape, and SingularInnovationCov when S is not
    finite, cannot be inverted or has a condition number above 1e14.
    """
    if not fs.predicted:
        raise ValueError("update requires a predicted FilterState")
    y = np.asarray(y, dtype=float)
    m = noise.r.shape[0]
    if y.shape != (m,):
        raise ValueError(f"measurement must hold the {m} values R "
                         f"describes, got shape {y.shape}")
    y_hat = fs.mean[:m]
    # The predicted covariance is symmetric, and so is S when R is.
    s_cov = fs.cov[:m, :m] + noise.r
    if not np.isfinite(s_cov).all():
        raise SingularInnovationCov("innovation covariance is not finite")

    # np.linalg.solve's and np.linalg.eigvalsh's LAPACK gufuncs under the
    # solve's error state, without their per-call conversion and dispatch
    # (see the module docstring).
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        gain = _umath_linalg.solve(s_cov, fs.cov[:, :m].T,
                                   signature="dd->d").T
        eig = _umath_linalg.eigvalsh_lo(s_cov, signature="d->d").tolist()
    # The 2-norm condition number of the symmetric S, in Python floats:
    # on a few values, min and max of a list cost less than numpy's
    # reductions.
    low = min(map(abs, eig))
    cond = max(map(abs, eig)) / low if low > 0.0 else math.inf
    if not cond <= 1e14:
        raise SingularInnovationCov(
            f"innovation covariance condition {cond:.2e}")

    innovation = y - y_hat
    mean = fs.mean + gain @ innovation
    reduction = gain @ s_cov @ gain.T
    cov = _symmetrize(fs.cov - reduction)

    # A fresh C-contiguous window, so adapt_q's res.T @ res sees the
    # operand it always has.
    past = fs.residuals
    residuals = (innovation[None] if past is None else
                 np.concatenate((past[1 - ADAPT_WINDOW:], innovation[None])))
    return FilterState(mean, cov, fs.a_diag, fs.phi, residuals, gain,
                       reduction.diagonal(), False)


def adapt_q(fs: FilterState) -> np.ndarray:
    """Diagonal adaptation entries from innovation matching.

    The sample output covariance over the window and the covariance the
    filter predicted for the same innovations are both mapped to state
    space through the last Kalman gain; each diagonal adaptation entry
    relaxes toward their ratio.  The mapped predicted covariance is the
    K S K^T that ``update`` subtracted, whose diagonal the state keeps.
    Innovations larger than modelled (process noise understated) grow A,
    smaller ones shrink it; a statistically consistent filter holds A at
    its fixed point.  Until ``update`` has buffered ADAPT_WINDOW
    innovations, returns ``fs.a_diag`` itself (the previous adaptation is
    kept).
    """
    res = fs.residuals
    if res is None or len(res) < ADAPT_WINDOW:
        return fs.a_diag

    s_bar = res.T @ res / (ADAPT_WINDOW - 1)
    actual = (fs.gain @ s_bar @ fs.gain.T).diagonal()
    expected = fs.spread

    # Entries whose expected spread is 1e-300 or less (or NaN) keep their
    # previous value.
    if expected.min() > 1e-300:
        a_new = (fs.a_diag ** (1.0 - ADAPT_LEAK)
                 * (1.0 - ADAPT_GAIN + ADAPT_GAIN * (actual / expected)))
    else:
        a_new = fs.a_diag.copy()
        usable = expected > 1e-300
        ratio = actual[usable] / expected[usable]
        a_new[usable] = (fs.a_diag[usable] ** (1.0 - ADAPT_LEAK)
                         * (1.0 - ADAPT_GAIN + ADAPT_GAIN * ratio))
    return np.minimum(np.maximum(a_new, A_MIN), A_MAX)


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
