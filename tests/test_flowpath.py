import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.errors import ParameterError, ShapeError, SingularityError
from adflow.flowpath import (PathParams, PathState, analytic_state, path_mean,
                             path_sigma, sample_path_state, target_velocity)
from adflow.signal import mix, Waveform


def _pair(seed, n=128):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n)


# ---------------------------------------------------------------------------
# Types

def test_path_params_validation():
    PathParams(0.0, 0.0)
    PathParams(0.01, 0.5)
    with pytest.raises(ParameterError):
        PathParams(-0.1, 0.5)
    with pytest.raises(ParameterError):
        PathParams(0.6, 0.5)


def test_path_state_validation():
    with pytest.raises(ParameterError):
        PathState(x=np.zeros(3), tau=1.5)
    with pytest.raises(ParameterError):
        PathState(x=np.array([np.nan]), tau=0.5)


# ---------------------------------------------------------------------------
# path_mean / path_sigma

def test_path_mean_endpoints():
    b, s1 = _pair(0)
    assert np.array_equal(path_mean(b, s1, 0.0), b)
    assert np.array_equal(path_mean(b, s1, 1.0), s1)


def test_path_mean_arithmetic():
    assert np.array_equal(path_mean([2.0], [4.0], 0.25), [2.5])


def test_path_mean_matches_mix():
    b, s1 = _pair(1)
    for tau in (0.0, 0.3, 0.7, 1.0):
        expect = mix(Waveform(s1), Waveform(b), tau).samples
        assert np.array_equal(path_mean(b, s1, tau), expect)


def test_path_mean_shape_mismatch():
    with pytest.raises(ShapeError):
        path_mean(np.zeros(3), np.zeros(4), 0.5)


def test_path_sigma_values():
    assert path_sigma(PathParams(0.0, 0.0), 0.37) == 0.0
    assert path_sigma(PathParams(0.01, 0.5), 0.0) == 0.5
    assert path_sigma(PathParams(0.01, 0.5), 1.0) == 0.01


@pytest.mark.parametrize("tau", [-0.1, 1.5])
def test_path_sigma_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ParameterError, match="tau must lie"):
        path_sigma(PathParams(0.01, 0.5), tau)


# ---------------------------------------------------------------------------
# sample_path_state

def test_sample_deterministic_path_is_mean():
    b, s1 = _pair(2)
    for tau in (0.0, 0.4, 1.0):
        st_ = sample_path_state(b, s1, tau, PathParams(0.0, 0.0), seed=5)
        assert np.array_equal(st_.x, path_mean(b, s1, tau))


def test_sample_noise_scale_monte_carlo():
    b, s1 = _pair(3, n=100)
    params = PathParams(0.1, 0.1)
    draws = np.stack([sample_path_state(b, s1, 0.5, params, seed=k).x
                      for k in range(10_000)])
    stds = draws.std(axis=0)
    assert np.all(stds > 0.095) and np.all(stds < 0.105)


def test_sample_same_seed_identical():
    b, s1 = _pair(4)
    a = sample_path_state(b, s1, 0.3, PathParams(0.0, 0.2), seed=7)
    c = sample_path_state(b, s1, 0.3, PathParams(0.0, 0.2), seed=7)
    assert np.array_equal(a.x, c.x)


# ---------------------------------------------------------------------------
# target_velocity

def test_velocity_deterministic_params_constant():
    b, s1 = _pair(5)
    params = PathParams(0.0, 0.0)
    rng = np.random.default_rng(0)
    outs = [target_velocity(PathState(rng.standard_normal(b.size),
                                      float(rng.uniform())), b, s1, params)
            for _ in range(10)]
    for out in outs:
        assert np.array_equal(out, s1 - b)


def test_velocity_constant_sigma_on_mean():
    b, s1 = _pair(6)
    params = PathParams(0.1, 0.1)
    st_ = PathState(path_mean(b, s1, 0.4), 0.4)
    assert np.array_equal(target_velocity(st_, b, s1, params), s1 - b)


def test_velocity_hand_case():
    params = PathParams(0.0, 0.5)
    st_ = PathState(np.array([0.6]), 0.5)
    v = target_velocity(st_, np.array([0.0]), np.array([1.0]), params)
    assert np.allclose(v, [0.8], atol=1e-12)


def test_velocity_singularity():
    params = PathParams(0.0, 0.5)  # sigma shrinks to 0 at tau=1
    st_ = PathState(np.array([1.0]), 1.0)
    with pytest.raises(SingularityError):
        target_velocity(st_, np.array([0.0]), np.array([1.0]), params)


# ---------------------------------------------------------------------------
# analytic_state

def test_analytic_state_deterministic_endpoint():
    b, s1 = _pair(7)
    z = np.random.default_rng(1).standard_normal(b.size)
    st_ = analytic_state(b, s1, z, 1.0, PathParams(0.0, 0.5))
    assert np.allclose(st_.x, s1, atol=1e-15)


def test_analytic_state_zero_noise_is_mean():
    b, s1 = _pair(8)
    st_ = analytic_state(b, s1, np.zeros(b.size), 0.3, PathParams(0.01, 0.5))
    assert np.array_equal(st_.x, path_mean(b, s1, 0.3))


def test_analytic_state_rejects_noise_of_other_shape():
    b, s1 = _pair(9)
    with pytest.raises(ShapeError, match="noise shape"):
        analytic_state(b, s1, np.zeros(b.size + 1), 0.3, PathParams(0.01, 0.5))


def _fd_rel_err(b, s1, z, tau, params, h=1e-4):
    hi = analytic_state(b, s1, z, tau + h, params).x
    lo = analytic_state(b, s1, z, tau - h, params).x
    fd = (hi - lo) / (2 * h)
    v = target_velocity(analytic_state(b, s1, z, tau, params), b, s1, params)
    return np.linalg.norm(fd - v) / np.linalg.norm(v)


def test_ode_consistency_finite_difference():
    b, s1 = _pair(9)
    z = np.random.default_rng(2).standard_normal(b.size)
    params = PathParams(0.0, 0.5)
    for tau in np.linspace(0.1, 0.9, 9):
        assert _fd_rel_err(b, s1, z, float(tau), params) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.floats(min_value=0.1, max_value=0.9))
def test_ode_consistency_property(seed, tau):
    rng = np.random.default_rng(seed)
    b, s1 = rng.standard_normal(32), rng.standard_normal(32)
    z = rng.standard_normal(32)
    assert _fd_rel_err(b, s1, z, tau, PathParams(0.01, 0.3)) < 1e-6


def test_euler_integration_lands_on_analytic_endpoint():
    # Mean and scale are both linear in tau, so the closed-form field is
    # affine along each characteristic: Euler lands within C/n of the
    # analytic endpoint (here C = 0 -- the linear dynamics are integrated
    # exactly), and exactly when sigma is constant.
    b, s1 = _pair(10)
    z = np.random.default_rng(3).standard_normal(b.size)
    tau0 = 0.2
    for params in (PathParams(0.1, 0.5), PathParams(0.2, 0.2)):
        target = analytic_state(b, s1, z, 1.0, params).x
        for n in (1, 3, 8, 64):
            taus = np.linspace(tau0, 1.0, n + 1)
            x = analytic_state(b, s1, z, tau0, params).x
            for j in range(n):
                v = target_velocity(PathState(x, float(taus[j])),
                                    b, s1, params)
                x = x + (taus[j + 1] - taus[j]) * v
            assert np.linalg.norm(x - target) < 1e-9
