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
    with pytest.raises(ValueError):
        ukf.NoiseSpec(q=np.eye(2), r=np.zeros((2, 2)))  # R not PD
    with pytest.raises(ValueError):
        ukf.NoiseSpec(q=np.array([[0.0, 1.0], [0.0, 0.0]]), r=np.eye(2))


@pytest.mark.parametrize("q, r, message", [
    (np.eye(2), np.diag([1.0, np.inf]), "R must be finite"),
    (np.eye(2), np.diag([np.nan, 1.0]), "R must be finite"),
    (np.diag([np.inf, 1.0]), np.eye(2), "Q must be finite"),
])
def test_noise_spec_refuses_non_finite_covariances(q, r, message):
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
    q = 0.01 * np.eye(3)
    r = 0.2 * np.eye(2)
    mean = rng.normal(size=3)
    cov = random_psd(rng, 3)
    y = rng.normal(size=2)

    oracle = LinearKalmanFilter(f_mat, h_mat, q, r, mean, cov)
    oracle.predict()
    oracle.update(y)

    # the filter runs on z = T x, whose leading entries are the outputs H x
    t_mat = np.vstack([h_mat, [0.0, 0.0, 1.0]])
    z_mat = t_mat @ f_mat @ np.linalg.inv(t_mat)
    noise = ukf.NoiseSpec(q=t_mat @ q @ t_mat.T, r=r)
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
    NonlinearModel of it measuring the first m entries, noise with an
    (m, m) R and a belief."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    m = int(rng.integers(1, n + 1))
    f_mat = np.eye(n) + 0.1 * rng.normal(size=(n, n))
    offset = rng.normal(size=n)

    def f(x, u):
        return x @ f_mat.T + offset
    generic = NonlinearModel(f=f, h=lambda x: x[..., :m])
    noise = ukf.NoiseSpec(q=random_psd(rng, n, 0.01),
                          r=random_psd(rng, m, 0.1))
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


def test_affine_update_rejects_non_finite_innovation_covariance():
    fs, noise = _predicted(np.array([[np.nan, 0.0], [0.0, 1.0]]),
                           0.1 * np.eye(2))
    with pytest.raises(ukf.SingularInnovationCov,
                       match="^innovation covariance is not finite$"):
        ukf.update(fs, np.zeros(2), noise)


def test_affine_update_rejects_singular_innovation_covariance():
    # S = P + R = [[1, 1], [1, 1]] exactly: the solve itself fails, and
    # numpy's error state is restored
    before = np.geterr()
    fs, noise = _predicted(np.array([[0.5, 1.0], [1.0, 0.5]]),
                           0.5 * np.eye(2))
    with pytest.raises(ukf.SingularInnovationCov, match="^Singular matrix$"):
        ukf.update(fs, np.zeros(2), noise)
    assert np.geterr() == before


def test_affine_update_rejects_ill_conditioned_innovation_covariance():
    # S = [[1, 1], [1, 1]] + 1e-14 I: solvable, condition about 2e14
    fs, noise = _predicted(np.ones((2, 2)), 1e-14 * np.eye(2))
    with pytest.raises(ukf.SingularInnovationCov,
                       match=r"^innovation covariance condition 2\.00e\+14$"):
        ukf.update(fs, np.zeros(2), noise)


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


def _update_without_guard(fs, y, noise):
    """The closed-form update, written out: the state ``update`` returns
    when its guard does not raise."""
    m = len(y)
    s_cov = fs.cov[:m, :m] + noise.r
    gain = np.linalg.solve(s_cov, fs.cov[:, :m].T).T
    innovation = y - fs.mean[:m]
    cov = fs.cov - gain @ s_cov @ gain.T
    return fs.mean + gain @ innovation, 0.5 * (cov + cov.T), gain


def _assert_update_without_guard(out, fs, y, noise):
    mean, cov, gain = _update_without_guard(fs, y, noise)
    for got, want in ((out.mean, mean), (out.cov, cov), (out.gain, gain)):
        assert got.tobytes() == want.tobytes()


def _wheel_speed_covariance(rho):
    """A (7, 7) covariance whose first four entries (wheel speeds) are
    correlated with coefficient rho."""
    cov = 0.2 * np.eye(7)
    cov[:4, :4] = 0.04 * (rho * np.ones((4, 4)) + (1.0 - rho) * np.eye(4))
    return cov


@pytest.mark.parametrize("fs, noise, y", [
    # wheel speeds from weakly to strongly correlated: at rho 0.9 and 0.999
    # S is far from diagonally dominant, yet well within the 1e14 guard
    *((*_predicted(_wheel_speed_covariance(rho), 1e-4 * np.eye(5)),
       np.linspace(-0.1, 0.1, 5)) for rho in (0.1, 0.9, 0.999)),
    # R symmetric to NoiseSpec's 1e-12, not exactly: S is not symmetric
    (*_predicted(0.01 * np.eye(2), np.array([[1e-4, 1e-13], [0.0, 1e-4]])),
     np.array([0.1, -0.1])),
], ids=["rho0.1", "rho0.9", "rho0.999", "asymmetric_r"])
def test_update_under_the_guard_equals_update_without_it(fs, noise, y):
    out = ukf.update(fs, y, noise)
    _assert_update_without_guard(out, fs, y, noise)


def test_update_solve_equals_numpy_solve():
    # update calls np.linalg.solve's LAPACK gufunc directly: the same bits
    # on random beliefs of every size, the kept K S K^T diagonal included
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, n + 1))
        fs, noise = _predicted(random_psd(rng, n), random_psd(rng, m, 0.1))
        fs = replace(fs, mean=rng.normal(size=n))
        y = rng.normal(size=m)
        out = ukf.update(fs, y, noise)
        _assert_update_without_guard(out, fs, y, noise)
        s_cov = fs.cov[:m, :m] + noise.r
        assert out.spread.tobytes() == (
            out.gain @ s_cov @ out.gain.T).diagonal().tobytes()


def test_update_refuses_exactly_above_the_numpy_condition_number():
    # symmetric S = Q diag(lambda) Q^T of sizes 1-6, conditions 1 to 1e18
    # and scales 1e-200 to 1e200, as the predicted covariance beside a
    # negligible positive definite R; the guard refuses where
    # np.linalg.cond exceeds 1e14, apart from the band within 10 % of 1e14
    # where the two LAPACK routines' rounding may differ
    rng = np.random.default_rng(28)
    decided = {True: 0, False: 0}
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        magnitudes = 10.0 ** rng.uniform(0.0, 18.0, n)
        magnitudes[rng.integers(n)] = 1.0
        lam = rng.choice([-1.0, 1.0], n) * magnitudes
        s = (q * lam) @ q.T
        s = 0.5 * (s + s.T) * 10.0 ** rng.uniform(-200, 200)
        fs, noise = _predicted(s, 1e-300 * np.eye(n))
        cond = np.linalg.cond(s + noise.r)
        if 0.9e14 <= cond <= 1.1e14:
            continue
        try:
            ukf.update(fs, np.zeros(n), noise)
            refused = False
        except ukf.SingularInnovationCov as exc:
            refused = True
            assert str(exc) != "innovation covariance is not finite"
        assert refused == (cond > 1e14), cond
        decided[refused] += 1
    assert min(decided.values()) > 500


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
