import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.errors import DivergenceError, ParameterError, ShapeError
from adflow.flowpath import PathParams
from adflow.sampler import (NetField, NfePolicy, OracleField, Schedule,
                            build_schedule, euler_step, extract,
                            extract_adaptive, extract_budgets, fixed_mr,
                            oracle_mr)
from adflow.signal import DatasetConfig, make_dataset, mix
from adflow.velnet import VelocityNet

CFG = DatasetConfig(duration_s=0.125)


def _item(seed=0):
    return make_dataset(1, "uniform", CFG, seed=seed)[0]


# ---------------------------------------------------------------------------
# Schedule / NfePolicy

def test_schedule_validation():
    Schedule(taus=np.zeros(0), nfe=0)
    Schedule(taus=np.array([0.5, 1.0]), nfe=1)
    with pytest.raises(ParameterError):
        Schedule(taus=np.array([0.5, 0.5, 1.0]), nfe=2)
    with pytest.raises(ParameterError):
        Schedule(taus=np.array([0.5, 0.9]), nfe=1)
    with pytest.raises(ParameterError):
        Schedule(taus=np.array([1.0]), nfe=0)
    with pytest.raises(ParameterError, match="nfe \\+ 1 points"):
        Schedule(taus=np.array([0.5, 1.0]), nfe=2)


def test_policy_validation():
    with pytest.raises(ParameterError):
        NfePolicy(max_nfe=0)
    with pytest.raises(ParameterError):
        NfePolicy(epsilon=0.0)
    with pytest.raises(ParameterError):
        NfePolicy(epsilon=0.5)


def test_build_schedule_passthrough_near_one():
    policy = NfePolicy(max_nfe=5)
    for tau_hat in (1.0, 0.9995):
        sched = build_schedule(tau_hat, policy)
        assert sched.empty and sched.nfe == 0


def test_build_schedule_full_grid_at_zero():
    sched = build_schedule(0.0, NfePolicy(max_nfe=5))
    assert sched.nfe == 5
    assert np.allclose(sched.taus, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15)


def test_build_schedule_proportional_rule():
    sched = build_schedule(0.7, NfePolicy(max_nfe=5))
    assert sched.nfe == 2  # ceil(0.3 * 5) = 2
    assert sched.taus[0] == 0.7 and sched.taus[-1] == 1.0


def test_build_schedule_rejects_bad_tau():
    with pytest.raises(ParameterError):
        build_schedule(1.5, NfePolicy())


def test_schedule_law_on_grid():
    policy = NfePolicy(max_nfe=5, epsilon=1e-3)
    prev = None
    for tau_hat in np.linspace(0.0, 1.0, 101):
        n = build_schedule(float(tau_hat), policy).nfe
        if tau_hat >= 1.0 - policy.epsilon:
            assert n == 0
        else:
            assert n == max(1, int(np.ceil((1 - tau_hat) * policy.max_nfe)))
        if prev is not None:
            assert n <= prev  # non-increasing budget
        prev = n


# ---------------------------------------------------------------------------
# euler_step

def test_euler_step_basic():
    x = np.array([0.0])
    assert np.array_equal(euler_step(x, np.zeros(1), 0.3), x)
    assert np.array_equal(euler_step(x, np.array([1.0]), 0.3), [0.3])
    with pytest.raises(ShapeError):
        euler_step(np.zeros(2), np.zeros(3), 0.1)
    with pytest.raises(ParameterError):
        euler_step(x, x, 0.0)


def test_euler_composition_telescopes():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(32)
    v = rng.standard_normal(32)
    tau_hat = 0.25
    taus = np.linspace(tau_hat, 1.0, 8)
    x = x0.copy()
    for j in range(7):
        x = euler_step(x, v, float(taus[j + 1] - taus[j]))
    assert np.allclose(x, x0 + (1 - tau_hat) * v, atol=1e-12)


# ---------------------------------------------------------------------------
# extract with the oracle field

def test_extract_oracle_exact_any_step_count():
    item = _item(1)
    field = OracleField(item.b, item.s1)
    results = []
    for n in (1, 5, 20):
        sched = Schedule(taus=np.linspace(item.tau, 1.0, n + 1), nfe=n)
        est, nfe = extract(item.x, item.e, field, sched)
        assert nfe == n
        assert np.max(np.abs(est.samples - item.s1.samples)) < 1e-6
        results.append(est.samples)
    spread = max(np.max(np.abs(a - results[0])) for a in results)
    assert spread < 1e-9


def test_extract_empty_schedule_passthrough():
    item = _item(2)
    est, nfe = extract(item.x, item.e, OracleField(item.b, item.s1),
                       Schedule(taus=np.zeros(0), nfe=0))
    assert nfe == 0
    assert np.array_equal(est.samples, item.x.samples)


def test_extract_overshoot_when_seeded_too_low():
    # Clean input (true tau = 1) integrated from tau_hat = 0 overshoots to
    # s1 + (s1 - b).
    item = _item(3)
    field = OracleField(item.b, item.s1)
    sched = build_schedule(0.0, NfePolicy(max_nfe=5))
    est, _ = extract(item.s1, item.e, field, sched)
    overshoot = item.s1.samples + (item.s1.samples - item.b.samples)
    assert np.allclose(est.samples, overshoot, atol=1e-9)
    assert np.max(np.abs(est.samples - item.s1.samples)) > 0.1


def test_extract_divergence_detected():
    item = _item(4)
    sched = build_schedule(0.2, NfePolicy(max_nfe=2))
    for step in (0, 1):
        def bad_field(x, tau):  # finite before the grid point of `step`
            return np.full_like(x, np.inf if tau >= sched.taus[step] else 0.0)

        taus = [float(t) for t in sched.taus[step:step + 2]]
        message = f"non-finite state at step {step} (tau {taus[0]!r} -> " \
            f"{taus[1]!r})"
        with pytest.raises(DivergenceError, match=re.escape(message) + "$"):
            extract(item.x, item.e, bad_field, sched)


def test_misseeding_error_is_linear_in_tau_error():
    item = _item(5)
    field = OracleField(item.b, item.s1)
    norm_d = np.linalg.norm(item.s1.samples - item.b.samples)
    for tau_hat in (0.0, 0.2, 0.8):
        sched = build_schedule(tau_hat, NfePolicy(max_nfe=5))
        est, _ = extract(item.x, item.e, field, sched)
        err = np.linalg.norm(est.samples - item.s1.samples)
        assert abs(err - abs(tau_hat - item.tau) * norm_d) < 1e-9


# ---------------------------------------------------------------------------
# One estimate per NFE budget

@pytest.mark.parametrize("field_kind", ["oracle", "net"])
def test_extract_budgets_match_separate_extracts(field_kind):
    item = _item(8)
    # sigma_max > sigma_min makes the oracle velocity depend on x and tau
    field = (OracleField(item.b, item.s1, PathParams(sigma_min=0.0,
                                                     sigma_max=0.5))
             if field_kind == "oracle"
             else NetField(VelocityNet.create(0), item.e))
    calls = []

    def counting(x, tau):
        calls.append(tau)
        return field(x, tau)

    policies = [NfePolicy(max_nfe=n, epsilon=0.09) for n in (1, 2, 5, 10, 20)]
    for tau_hat in (0.0, 0.3, 0.55, 0.9, 0.95, 1.0):
        calls.clear()
        got = extract_budgets(item.x, item.e, tau_hat, counting, policies)
        steps = {build_schedule(tau_hat, p).nfe for p in policies} - {0}
        assert len(calls) == (1 + sum(n - 1 for n in steps) if steps else 0)
        assert len(got) == len(policies)
        for (est, nfe), policy in zip(got, policies):
            want, want_nfe = extract(item.x, item.e, field,
                                     build_schedule(tau_hat, policy))
            assert nfe == want_nfe
            assert est.samples.tobytes() == want.samples.tobytes()
            if nfe == 0:
                assert est.samples is not item.x.samples


# ---------------------------------------------------------------------------
# MR sources and adaptive extraction

def test_fixed_mr_one_is_passthrough():
    item = _item(6)
    est, tau_hat, nfe = extract_adaptive(
        item.x, item.e, fixed_mr(1.0), OracleField(item.b, item.s1),
        NfePolicy(max_nfe=5))
    assert tau_hat == 1.0 and nfe == 0
    assert np.array_equal(est.samples, item.x.samples)


def test_oracle_mr_with_oracle_field_exact():
    item = _item(7)
    est, tau_hat, nfe = extract_adaptive(
        item.x, item.e, oracle_mr(item.s1, item.b),
        OracleField(item.b, item.s1), NfePolicy(max_nfe=5))
    assert abs(tau_hat - item.tau) < 1e-9
    assert np.max(np.abs(est.samples - item.s1.samples)) < 1e-6


def test_fixed_mr_validation():
    with pytest.raises(ParameterError):
        fixed_mr(1.5)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_budget_monotone_property(tau_hat):
    policy = NfePolicy(max_nfe=7)
    n = build_schedule(tau_hat, policy).nfe
    n_later = build_schedule(min(1.0, tau_hat + 0.11), policy).nfe
    assert n_later <= n


@pytest.mark.parametrize("tau", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_one_step_identity_for_learned_field(tau):
    # one Euler step over [tau, 1] from x = mix(s1, b, tau) misses s1 by the
    # field's velocity error times the step: est - s1 = (1 - tau)(v - (s1 - b))
    item = _item(3)
    x = mix(item.s1, item.b, tau)
    field = NetField(VelocityNet.create(0), item.e)
    assert field.net.weights[0].dtype == np.float64
    est, nfe = extract(x, item.e, field,
                       Schedule(taus=np.array([tau, 1.0]), nfe=1))
    v = field(x.samples, tau)
    s1, b = item.s1.samples, item.b.samples
    assert nfe == 1
    err = np.abs((est.samples - s1) - (1.0 - tau) * (v - (s1 - b)))
    assert err.max() <= 1e-12
