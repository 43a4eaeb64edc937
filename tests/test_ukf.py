import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ALPHA,
    BETA,
    KAPPA,
    DecompositionFailure,
    LinearKalmanFilter,
    NonlinearModel,
    reference_fuzzy_factor,
    reference_predict,
    reference_sigma_points,
    reference_update,
)
from tractionmap import ukf


def predict_linear(fs, f_mat, noise):
    """The time update of x' = F x."""
    return ukf.predict(fs, fs.mean @ f_mat.T, f_mat, noise, fs.phi, fs.a_diag)


def random_psd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + 0.1 * np.eye(n))


# --- the reference sigma points ---------------------------------------------

def test_sigma_points_scalar_reference():
    # n = 1: lambda = alpha^2 (1 + kappa) - 1 = -0.99, n + lambda = 0.01
    assert (ALPHA, BETA, KAPPA) == (0.1, 2.0, 0.0)
    ss = reference_sigma_points(np.zeros(1), np.eye(1))
    assert ss.points[:, 0] == pytest.approx([0.0, 0.1, -0.1], abs=1e-14)
    assert ss.w_mean == pytest.approx([-99.0, 50.0, 50.0], abs=1e-12)
    assert ss.w_cov == pytest.approx([-96.01, 50.0, 50.0], abs=1e-12)


def test_sigma_points_weights_sum_to_one():
    rng = np.random.default_rng(3)
    ss = reference_sigma_points(rng.normal(size=6), random_psd(rng, 6))
    assert ss.w_mean.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_sigma_points_reproduce_moments(seed, n):
    rng = np.random.default_rng(seed)
    mean = rng.normal(size=n)
    cov = random_psd(rng, n)
    ss = reference_sigma_points(mean, cov)
    rebuilt_mean = ss.w_mean @ ss.points
    dev = ss.points - rebuilt_mean
    rebuilt_cov = (dev * ss.w_cov[:, None]).T @ dev
    assert np.allclose(rebuilt_mean, mean, atol=1e-10 * max(1, abs(mean).max()))
    scale = max(1.0, np.abs(cov).max())
    assert np.abs(rebuilt_cov - cov).max() < 1e-10 * scale


def test_sigma_points_failure_on_non_psd():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DecompositionFailure):
        reference_sigma_points(np.zeros(2), bad)


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="R must be positive definite"):
        ukf.NoiseSpec(q=np.eye(2), r=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="Q must be positive semi-definite"):
        ukf.NoiseSpec(q=np.diag([1.0, -1e-300]), r=np.eye(2))
    with pytest.raises(ValueError, match="Q must be a diagonal matrix"):
        ukf.NoiseSpec(q=np.array([[0.0, 1.0], [0.0, 0.0]]), r=np.eye(2))
    # symmetric and positive definite, but update makes one scalar update
    # per output, which holds only for uncorrelated outputs
    with pytest.raises(ValueError, match="R must be a diagonal matrix"):
        ukf.NoiseSpec(q=np.eye(2), r=np.array([[1.0, 0.5], [0.5, 1.0]]))


@pytest.mark.parametrize("q, r, message", [
    (np.eye(2), np.diag([1.0, np.inf]), "R must be finite"),
    (np.eye(2), np.diag([np.nan, 1.0]), "R must be finite"),
    (np.diag([np.inf, 1.0]), np.eye(2), "Q must be finite"),
])
def test_noise_spec_refuses_non_finite_covariances(q, r, message):
    with pytest.raises(ValueError, match=message):
        ukf.NoiseSpec(q=q, r=r)


@pytest.mark.parametrize("q, r, message", [
    # within 1e-12 of its transpose: not diagonal however small the entry
    (np.zeros((2, 2)), np.array([[1e-13, 1e-12], [0.0, 1e-13]]),
     "R must be a diagonal matrix"),
    (np.array([[1.0, 1e-13], [0.0, 1.0]]), np.eye(2),
     "Q must be a diagonal matrix"),
], ids=["r", "q"])
def test_noise_spec_refuses_inexact_symmetry(q, r, message):
    with pytest.raises(ValueError, match=message):
        ukf.NoiseSpec(q=q, r=r)


# --- predict ----------------------------------------------------------------

def test_predict_matches_linear_propagation():
    rng = np.random.default_rng(5)
    f_mat = np.array([[1.0, 0.1, 0.0], [0.0, 0.95, 0.02], [0.0, 0.0, 0.9]])
    noise = ukf.NoiseSpec(q=0.05 * np.eye(3), r=np.eye(3))
    mean = rng.normal(size=3)
    cov = random_psd(rng, 3)
    fs = ukf.FilterState.initial(mean, cov)
    out = predict_linear(fs, f_mat, noise)
    assert np.allclose(out.mean, f_mat @ mean, atol=1e-8)
    assert np.allclose(out.cov, f_mat @ cov @ f_mat.T + noise.q, atol=1e-8)


def test_predict_identity_no_noise():
    f_mat = np.eye(2)
    noise = ukf.NoiseSpec(q=np.zeros((2, 2)), r=np.eye(2))
    fs = ukf.FilterState.initial(np.array([1.0, -2.0]), 0.5 * np.eye(2))
    out = predict_linear(fs, f_mat, noise)
    assert np.allclose(out.mean, fs.mean, atol=1e-12)
    assert np.allclose(out.cov, fs.cov, atol=1e-12)


def test_predict_identity_grows_by_scaled_q():
    f_mat = np.eye(2)
    q = 0.3 * np.eye(2)
    noise = ukf.NoiseSpec(q=q, r=np.eye(2))
    fs = ukf.FilterState.initial(np.zeros(2), np.eye(2))
    fs = replace(fs, a_diag=np.array([2.0, 0.5]), phi=3.0)
    out = predict_linear(fs, f_mat, noise)
    expected = np.eye(2) + 3.0 * np.diag([2.0, 0.5]) @ q
    assert np.allclose(out.cov, expected, atol=1e-10)


# --- update -----------------------------------------------------------------

def test_update_requires_predicted_state():
    noise = ukf.NoiseSpec(q=np.eye(2), r=np.eye(2))
    fs = ukf.FilterState.initial(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        ukf.update(fs, np.zeros(2), noise)


def test_update_matches_linear_kf_gain_and_posterior():
    rng = np.random.default_rng(11)
    f_mat = np.eye(3)
    h_mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    r = 0.2 * np.eye(2)
    mean = rng.normal(size=3)
    cov = random_psd(rng, 3)
    y = rng.normal(size=2)

    # the filter runs on z = T x, whose leading entries are the outputs H x,
    # with a diagonal Q_z; the oracle's Q is T^-1 Q_z T^-T
    t_mat = np.vstack([h_mat, [0.0, 0.0, 1.0]])
    t_inv = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
    q_z = 0.01 * np.eye(3)
    oracle = LinearKalmanFilter(f_mat, h_mat, t_inv @ q_z @ t_inv.T, r,
                                mean, cov)
    oracle.predict()
    oracle.update(y)

    z_mat = t_mat @ f_mat @ t_inv
    noise = ukf.NoiseSpec(q=q_z, r=r)
    fs = ukf.FilterState.initial(t_mat @ mean, t_mat @ cov @ t_mat.T)
    fs = predict_linear(fs, z_mat, noise)
    fs = ukf.update(fs, y, noise)
    assert np.allclose(fs.mean, t_mat @ oracle.x, atol=1e-8)
    assert np.allclose(fs.cov, t_mat @ oracle.p @ t_mat.T, atol=1e-8)


def test_update_perfect_measurement_keeps_mean():
    f_mat = np.eye(2)
    noise = ukf.NoiseSpec(q=0.01 * np.eye(2), r=0.1 * np.eye(2))
    fs = ukf.FilterState.initial(np.array([0.3, -1.2]), np.eye(2))
    fs = predict_linear(fs, f_mat, noise)
    before = fs.mean.copy()
    cov_before = fs.cov.copy()
    out = ukf.update(fs, before, noise)
    assert np.allclose(out.mean, before, atol=1e-12)
    # posterior covariance never exceeds the prior
    assert np.all(np.linalg.eigvalsh(cov_before - out.cov) > -1e-12)


def test_update_uninformative_measurement():
    f_mat = np.eye(2)
    noise = ukf.NoiseSpec(q=0.01 * np.eye(2), r=1e12 * np.eye(2))
    fs = ukf.FilterState.initial(np.array([0.5, 2.0]), np.eye(2))
    fs = predict_linear(fs, f_mat, noise)
    before = fs.mean.copy()
    out = ukf.update(fs, np.array([100.0, -50.0]), noise)
    assert np.allclose(out.mean, before, atol=1e-6)


def test_update_pushes_residual_into_buffer():
    f_mat = np.eye(2)
    noise = ukf.NoiseSpec(q=0.01 * np.eye(2), r=0.1 * np.eye(2))
    fs = ukf.FilterState.initial(np.zeros(2), np.eye(2))
    for k in range(ukf.ADAPT_WINDOW + 10):
        fs = predict_linear(fs, f_mat, noise)
        fs = ukf.update(fs, np.array([1.0, -1.0]), noise)
    assert len(fs.residuals) == ukf.ADAPT_WINDOW


# --- 100-step linear equivalence and covariance health ----------------------

def test_linear_kf_equivalence_over_100_steps():
    rng = np.random.default_rng(42)
    f_mat = np.array([[1.0, 0.1, 0.0, 0.0],
                      [0.0, 0.97, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.1],
                      [0.0, 0.0, 0.0, 0.97]])
    h_mat = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    q = 0.01 * np.eye(4)
    r = 0.1 * np.eye(2)
    # the filter's state is x reordered so that the measured x_0, x_2 lead
    order = [0, 2, 1, 3]
    block = np.ix_(order, order)
    noise = ukf.NoiseSpec(q=q[block], r=r)
    f_perm = f_mat[block]

    oracle = LinearKalmanFilter(f_mat, h_mat, q, r, np.zeros(4), np.eye(4))
    fs = ukf.FilterState.initial(np.zeros(4), np.eye(4))
    x = rng.normal(size=4)
    for _ in range(100):
        x = f_mat @ x + rng.multivariate_normal(np.zeros(4), q)
        y = h_mat @ x + rng.multivariate_normal(np.zeros(2), r)
        oracle.predict()
        oracle.update(y)
        fs = predict_linear(fs, f_perm, noise)
        pred_cov = fs.cov
        fs = ukf.update(fs, y, noise)
        assert np.abs(fs.mean - oracle.x[order]).max() < 1e-8
        assert np.abs(fs.cov - oracle.p[block]).max() < 1e-8
        # symmetry is maintained exactly after each step
        assert np.abs(fs.cov - fs.cov.T).max() < 1e-9
        # informative measurement shrinks the total variance
        assert np.trace(fs.cov) <= np.trace(pred_cov) + 1e-12


# --- closed form for affine models -------------------------------------------

def _random_affine_case(seed):
    """A random affine f with its Jacobian F, the reference filter's
    NonlinearModel of it measuring the first m entries, noise with a
    diagonal Q and a diagonal (m, m) R, the diagonals of random positive
    definite draws, and a belief."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    m = int(rng.integers(1, n + 1))
    f_mat = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    offset = rng.normal(size=n)

    def f(x, u):
        return x @ f_mat.T + offset
    generic = NonlinearModel(f=f, h=lambda x: x[..., :m])
    noise = ukf.NoiseSpec(q=np.diag(random_psd(rng, n, 0.01).diagonal()),
                          r=np.diag(random_psd(rng, m, 0.1).diagonal()))
    fs = replace(ukf.FilterState.initial(rng.normal(size=n),
                                         random_psd(rng, n)),
                 a_diag=rng.uniform(0.5, 2.0, n), phi=float(rng.uniform(0.2, 5)))
    return rng, f, f_mat, generic, noise, fs


def _assert_close_to_sigma_points(out, ref):
    assert np.abs(out.mean - ref.mean).max() <= 1e-12
    assert np.abs(out.cov - ref.cov).max() <= 1e-9 * np.abs(ref.cov).max()


@pytest.mark.parametrize("seed", range(20))
def test_affine_predict_equals_sigma_point_predict(seed):
    _, f, f_mat, generic, noise, fs = _random_affine_case(seed)
    out = ukf.predict(fs, f(fs.mean, None), f_mat, noise, fs.phi, fs.a_diag)
    ref = reference_predict(fs, generic, None, noise)
    _assert_close_to_sigma_points(out, ref)
    assert np.array_equal(out.cov, out.cov.T)
    assert out.predicted and out.phi == fs.phi and out.a_diag is fs.a_diag


@pytest.mark.parametrize("seed", range(20))
def test_affine_update_equals_sigma_point_update(seed):
    rng, f, f_mat, generic, noise, fs = _random_affine_case(seed)
    fs = ukf.predict(fs, f(fs.mean, None), f_mat, noise, fs.phi, fs.a_diag)
    y = rng.normal(size=len(noise.r))
    out = ukf.update(fs, y, noise)
    ref = reference_update(fs, generic, y, noise)
    _assert_close_to_sigma_points(out, ref)
    for name in ("gain", "spread"):
        got, want = getattr(out, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name
    assert len(out.residuals) == 1
    assert np.abs(out.residuals[0] - ref.residuals[0]).max() <= 1e-12
    assert not out.predicted


def _predicted(cov, r):
    n = len(cov)
    fs = replace(ukf.FilterState.initial(np.zeros(n), cov), predicted=True)
    return fs, ukf.NoiseSpec(q=np.zeros((n, n)), r=r)


def test_affine_update_at_the_measurement_noise_floor():
    # R at the noise-free pipeline's floor of 1e-8 beside P around 1e-2
    # (n = 10, m = 7): the gain read off the posterior, P+[:, :m] / r, is
    # least accurate here (see update's docstring), about 3e-10 relative,
    # still within the reference tolerance
    rng, f, f_mat, generic, noise, fs = _random_affine_case(7)
    m = len(noise.r)
    noise = ukf.NoiseSpec(q=1e-2 * noise.q, r=1e-8 * np.eye(m))
    fs = replace(fs, cov=random_psd(rng, len(fs.mean), 1e-3))
    fs = ukf.predict(fs, f(fs.mean, None), f_mat, noise, fs.phi, fs.a_diag)
    y = fs.mean[:m] + 0.1 * rng.normal(size=m)
    out = ukf.update(fs, y, noise)
    ref = reference_update(fs, generic, y, noise)
    _assert_close_to_sigma_points(out, ref)
    for name in ("gain", "spread"):
        got, want = getattr(out, name), getattr(ref, name)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), name


def test_affine_update_rejects_non_finite_innovation_covariance():
    fs, noise = _predicted(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                           0.1 * np.eye(2))
    with pytest.raises(ukf.SingularInnovationCov,
                       match="^innovation variance nan of output 0$"):
        ukf.update(fs, np.zeros(2), noise)


def test_affine_update_rejects_singular_innovation_covariance():
    # S = P + R = [[1, 1], [1, 1]] exactly: the second pivot, 0.5 - 1 + 0.5,
    # is zero
    fs, noise = _predicted(np.array([[0.5, 1.0], [1.0, 0.5]]),
                           0.5 * np.eye(2))
    with pytest.raises(ukf.SingularInnovationCov,
                       match="^innovation variance 0.0 of output 1$"):
        ukf.update(fs, np.zeros(2), noise)


def test_affine_update_rejects_indefinite_innovation_covariance():
    # S = [[0.6, 1], [1, 0.6]] has eigenvalues -0.4 and 1.6, condition 4:
    # invertible and well conditioned, but no covariance.  The second
    # pivot is 0.6 - 1 / 0.6 = -1.0667.
    fs, noise = _predicted(np.array([[0.5, 1.0], [1.0, 0.5]]),
                           0.1 * np.eye(2))
    with pytest.raises(ukf.SingularInnovationCov,
                       match=r"^innovation variance -1\.066\d* of output 1$"):
        ukf.update(fs, np.zeros(2), noise)


def test_update_refuses_exactly_the_indefinite_innovation_covariances():
    # symmetric S = Q diag(lambda) Q^T of sizes 1-6, eigenvalues of either
    # sign and magnitudes 1 to 1e8, scales 1e-100 to 1e100, as the
    # predicted covariance beside an R 1e-30 of the scale (negligible, yet
    # large enough that the gain P+ / r does not overflow): a pivot turns
    # non-positive exactly when some eigenvalue is negative
    rng = np.random.default_rng(28)
    decided = {True: 0, False: 0}
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lam = rng.choice([-1.0, 1.0], n, p=[0.1, 0.9]) * 10.0 ** rng.uniform(
            0.0, 8.0, n)
        s = (q * lam) @ q.T
        scale = 10.0 ** rng.uniform(-100, 100)
        fs, noise = _predicted(0.5 * (s + s.T) * scale,
                               1e-30 * scale * np.eye(n))
        try:
            ukf.update(fs, np.zeros(n), noise)
            refused = False
        except ukf.SingularInnovationCov:
            refused = True
        assert refused == (lam.min() < 0.0), lam
        decided[refused] += 1
    assert min(decided.values()) > 500


@pytest.mark.parametrize("y", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]],
                         ids=["short", "long", "row"])
def test_update_refuses_measurement_of_wrong_shape(y):
    # R describes the first two entries of a three-entry state; one value
    # would broadcast against both predicted outputs
    fs, noise = _predicted(np.eye(3), 0.1 * np.eye(2))
    message = ("measurement must hold the 2 values R describes, "
               f"got shape {np.shape(y)}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ukf.update(fs, y, noise)


# --- adaptation -------------------------------------------------------------

def _mc_adaptation(q_true_scale, seed, steps=600):
    """Random-walk system observed directly; returns A history after warmup."""
    rng = np.random.default_rng(seed)
    q = np.diag([2e-3, 1e-3])
    r = np.diag([0.05, 0.08])
    f_mat = np.eye(2)
    noise = ukf.NoiseSpec(q=q, r=r)
    fs = ukf.FilterState.initial(np.zeros(2), np.eye(2))
    x = np.zeros(2)
    q_true = q * q_true_scale
    history = []
    for k in range(steps):
        x = x + rng.multivariate_normal(np.zeros(2), q_true)
        y = x + rng.multivariate_normal(np.zeros(2), r)
        fs = replace(fs, a_diag=ukf.adapt_q(fs))
        fs = predict_linear(fs, f_mat, noise)
        fs = ukf.update(fs, y, noise)
        if k > 200:
            history.append(fs.a_diag.copy())
    return np.asarray(history)


def test_adapt_q_consistent_run_keeps_a_near_identity():
    for seed in (1, 2, 3):
        hist = _mc_adaptation(1.0, seed)
        mean_a = hist.mean(axis=0)
        assert np.all(mean_a > 0.5) and np.all(mean_a < 2.0)


def test_adapt_q_grows_under_process_noise_mismatch():
    for seed in (1, 2, 3):
        hist = _mc_adaptation(10.0, seed)
        assert np.all(hist.mean(axis=0) > 1.0)


def test_adapt_q_insufficient_samples():
    fs = ukf.FilterState.initial(np.zeros(2), np.eye(2))
    assert ukf.adapt_q(fs) is fs.a_diag


def test_adapt_q_runs_once_update_fills_the_window():
    # update's ring buffer and adapt_q read the one window length
    f_mat = np.eye(2)
    noise = ukf.NoiseSpec(q=0.01 * np.eye(2), r=0.1 * np.eye(2))
    fs = ukf.FilterState.initial(np.zeros(2), np.eye(2))
    ys = np.random.default_rng(2).normal(size=(ukf.ADAPT_WINDOW, 2))
    for y in ys[:-1]:
        fs = ukf.update(predict_linear(fs, f_mat, noise), y, noise)
    assert ukf.adapt_q(fs) is fs.a_diag
    fs = ukf.update(predict_linear(fs, f_mat, noise), ys[-1], noise)
    a_new = ukf.adapt_q(fs)
    assert a_new is not fs.a_diag
    assert not np.array_equal(a_new, fs.a_diag)


def test_adapt_q_respects_clamp():
    rng = np.random.default_rng(0)
    f_mat = np.eye(1)
    noise = ukf.NoiseSpec(q=np.eye(1) * 1e-8, r=np.eye(1) * 1e-4)
    fs = ukf.FilterState.initial(np.zeros(1), np.eye(1))
    reached_max = False
    for _ in range(ukf.ADAPT_WINDOW + 60):
        fs = predict_linear(fs, f_mat, noise)
        fs = ukf.update(fs, rng.normal(size=1) * 10, noise)
        fs = replace(fs, a_diag=ukf.adapt_q(fs))
        assert np.all(fs.a_diag >= ukf.A_MIN)
        assert np.all(fs.a_diag <= ukf.A_MAX)
        reached_max |= bool(np.any(fs.a_diag == ukf.A_MAX))
    assert reached_max


# --- fuzzy supervisor -------------------------------------------------------

def test_fuzzy_factor_endpoints():
    outputs = ukf.FUZZY_OUTPUTS
    assert ukf.fuzzy_factor(0.0) == pytest.approx(outputs[0])
    assert ukf.fuzzy_factor(1.0) == pytest.approx(outputs[2])
    assert ukf.fuzzy_factor(7.5) == pytest.approx(outputs[2])
    assert ukf.fuzzy_factor(0.5) == pytest.approx(1.0)


def test_fuzzy_factor_rejects_negative_signal():
    with pytest.raises(ValueError):
        ukf.fuzzy_factor(-0.1)


@given(st.floats(0.0, 2.0))
def test_fuzzy_factor_within_bounds(signal):
    outputs = ukf.FUZZY_OUTPUTS
    phi = ukf.fuzzy_factor(signal)
    assert outputs[0] - 1e-12 <= phi <= outputs[2] + 1e-12


def test_fuzzy_factor_monotone_on_grid():
    values = [ukf.fuzzy_factor(x) for x in np.linspace(0.0, 1.2, 121)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _same_bits(signal):
    return ukf.fuzzy_factor(signal).hex() == reference_fuzzy_factor(signal).hex()


def test_fuzzy_factor_bit_equal_to_reference_on_grid():
    rng = np.random.default_rng(13)
    # the centers and their float neighbours, the signal being non-negative
    centers = [0.0, np.nextafter(0.0, 1.0), np.nextafter(0.5, 0.0), 0.5,
               np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0), 1.0,
               np.nextafter(1.0, 2.0)]
    signals = [*rng.uniform(0.0, 1.2, 50_000), *np.linspace(0.0, 1.0, 1001),
               *centers]
    assert all(_same_bits(float(x)) for x in signals)


@given(st.floats(0.0, 2.0))
def test_fuzzy_factor_bit_equal_to_reference(signal):
    assert _same_bits(signal)
