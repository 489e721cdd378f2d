"""Adaptive reverse integration over the residual interval [tau_hat, 1].

The schedule allocates Euler steps proportional to 1 - tau_hat; a tau_hat
within epsilon of 1 yields an empty schedule and the input passes through
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import flowpath, mrnet, velnet
from .errors import DivergenceError, ParameterError, ShapeError
from .signal import Waveform


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing tau grid tau_hat = tau_0 < ... < tau_N = 1."""

    taus: np.ndarray
    nfe: int

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=np.float64)
        if self.nfe == 0:
            if taus.size != 0:
                raise ParameterError("empty schedule must have no grid points")
        else:
            if taus.size != self.nfe + 1:
                raise ParameterError("grid must have nfe + 1 points")
            if np.any(np.diff(taus) <= 0):
                raise ParameterError("grid must be strictly increasing")
            if taus[-1] != 1.0:
                raise ParameterError("grid must end at 1")
        object.__setattr__(self, "taus", taus)

    @property
    def empty(self) -> bool:
        return self.nfe == 0


@dataclass(frozen=True)
class NfePolicy:
    max_nfe: int = 5
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.max_nfe < 1:
            raise ParameterError("max_nfe must be >= 1")
        if not 0.0 < self.epsilon < 0.1:
            raise ParameterError("epsilon must lie in (0, 0.1)")


def build_schedule(tau_hat: float, policy: NfePolicy) -> Schedule:
    """N = max(1, ceil((1 - tau_hat) * max_nfe)) uniform steps on [tau_hat, 1].

    The schedule is empty (passthrough) when tau_hat >= 1 - epsilon.
    """
    if not 0.0 <= tau_hat <= 1.0:
        raise ParameterError("tau_hat must lie in [0, 1]")
    if tau_hat >= 1.0 - policy.epsilon:
        return Schedule(taus=np.zeros(0), nfe=0)
    n = max(1, int(np.ceil((1.0 - tau_hat) * policy.max_nfe)))
    return Schedule(taus=np.linspace(tau_hat, 1.0, n + 1), nfe=n)


def euler_step(x: np.ndarray, v: np.ndarray, dtau: float) -> np.ndarray:
    """x + dtau * v."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != v.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {v.shape}")
    if dtau <= 0:
        raise ParameterError("dtau must be positive")
    return x + dtau * v


class OracleField:
    """Closed-form velocity field from the known (b, s1) pair."""

    def __init__(self, b: Waveform, s1: Waveform,
                 params: flowpath.PathParams | None = None):
        self.b = b.samples if isinstance(b, Waveform) else np.asarray(b, float)
        self.s1 = (s1.samples if isinstance(s1, Waveform)
                   else np.asarray(s1, float))
        self.params = params or flowpath.PathParams()

    def __call__(self, x: np.ndarray, tau: float) -> np.ndarray:
        state = flowpath.PathState(x=x, tau=tau)
        return flowpath.target_velocity(state, self.b, self.s1, self.params)


class NetField:
    """Learned velocity field, frame-wise with a fixed enrollment embedding."""

    def __init__(self, net: velnet.VelocityNet, e: Waveform):
        self.net = net
        self.e_embed = velnet.embed_enrollment(e, net)

    def __call__(self, x: np.ndarray, tau: float) -> np.ndarray:
        return velnet.velocity_signal(self.net, x, self.e_embed, tau)


def extract(x: Waveform, e: Waveform, field, schedule: Schedule):
    """Iterate Euler steps over the schedule; returns (s1_hat, nfe_used)."""
    if schedule.empty:
        return Waveform(x.samples.copy(), x.sample_rate_hz), 0
    cur = x.samples.copy()
    for j in range(schedule.nfe):
        v = field(cur, float(schedule.taus[j]))
        cur = euler_step(cur, v, float(schedule.taus[j + 1] - schedule.taus[j]))
        if not np.all(np.isfinite(cur)):
            raise DivergenceError(f"non-finite state at step {j}")
    return Waveform(cur, x.sample_rate_hz), schedule.nfe


# ---------------------------------------------------------------------------
# Mixing-ratio sources for adaptive extraction

def oracle_mr(s1: Waveform, b: Waveform):
    """Exact tau via least-squares inversion of the mixing equation."""
    return lambda x, e: mrnet.mr_oracle_lsq(x, s1, b)


def regressor_mr(reg: mrnet.MrRegressor):
    return lambda x, e: mrnet.mr_predict(reg, x, e)


def fixed_mr(tau: float):
    if not 0.0 <= tau <= 1.0:
        raise ParameterError("fixed tau must lie in [0, 1]")
    return lambda x, e: tau


def extract_adaptive(x: Waveform, e: Waveform, mr_source, field,
                     policy: NfePolicy):
    """Estimate tau_hat, build the schedule, extract.

    Returns (s1_hat, tau_hat, nfe_used).
    """
    tau_hat = float(mr_source(x, e))
    schedule = build_schedule(tau_hat, policy)
    s1_hat, nfe_used = extract(x, e, field, schedule)
    return s1_hat, tau_hat, nfe_used
