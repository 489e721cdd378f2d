import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.errors import DegenerateInputError, ShapeError
from adflow import signal
from adflow.metrics import (SI_SDR_CAP_DB, EvalReport, REPORT_COLUMNS, lsd,
                            scorer, si_sdr, sim)
from adflow.mrnet import MrRegressor, mr_embed
from adflow.sampler import (NfePolicy, OracleField, extract_adaptive,
                            oracle_mr)
from adflow.signal import (DatasetConfig, SpectralRecord, Waveform,
                           make_dataset, spectral_record)


def _noise(seed, n=4000):
    return np.random.default_rng(seed).standard_normal(n)


# ---------------------------------------------------------------------------
# SI-SDR

def test_si_sdr_identical_hits_cap():
    x = _noise(0)
    assert si_sdr(x, x) == SI_SDR_CAP_DB


def test_si_sdr_scale_invariance_at_cap():
    x = _noise(1)
    assert si_sdr(2 * x, x) == SI_SDR_CAP_DB


def test_si_sdr_orthogonal_hits_negative_cap():
    t = np.arange(1600) / 16000
    s = np.sin(2 * np.pi * 100 * t)   # 10 full periods
    c = np.cos(2 * np.pi * 100 * t)
    assert si_sdr(c, s) == -SI_SDR_CAP_DB


def test_si_sdr_exactly_orthogonal_is_negative_cap():
    # the projection is exactly zero: the cap, not a log of zero
    est, ref = np.array([0.0, 1.0, 0.0, 2.0]), np.array([3.0, 0.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert si_sdr(est, ref) == -SI_SDR_CAP_DB


def test_si_sdr_scale_invariance_below_cap():
    ref = _noise(2)
    est = ref + 0.1 * _noise(3)
    base = si_sdr(est, ref)
    for c in (0.1, 2.0, 1000.0):
        assert abs(si_sdr(c * est, ref) - base) < 1e-9


def test_si_sdr_errors():
    with pytest.raises(ShapeError):
        si_sdr(np.zeros(3), np.zeros(4))
    with pytest.raises(DegenerateInputError):
        si_sdr(np.ones(4), np.zeros(4))


def test_si_sdr_monotone_in_tau():
    # For near-orthogonal (s1, b), more target in the mixture means a higher
    # score against the target.
    rng = np.random.default_rng(4)
    s1, b = rng.standard_normal(8000), rng.standard_normal(8000)
    taus = np.linspace(0.05, 0.95, 21)
    scores = [si_sdr(tau * s1 + (1 - tau) * b, s1) for tau in taus]
    assert all(b_ > a_ for a_, b_ in zip(scores, scores[1:]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=10_000))
def test_si_sdr_scale_invariance_property(c, seed):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(256)
    est = ref + 0.3 * rng.standard_normal(256)
    assert abs(si_sdr(c * est, ref) - si_sdr(est, ref)) < 1e-9


# ---------------------------------------------------------------------------
# LSD

def test_lsd_identical_is_zero():
    x = _noise(5)
    assert lsd(x, x) == 0.0


def test_lsd_uniform_gain_offset():
    x = _noise(6)
    assert lsd(2 * x, x) == pytest.approx(10 * np.log10(2), abs=0.05)


def test_lsd_symmetric():
    a, b = _noise(7), _noise(8)
    assert lsd(a, b) == pytest.approx(lsd(b, a), abs=1e-12)


def test_lsd_length_mismatch():
    with pytest.raises(ShapeError):
        lsd(np.zeros(100), np.zeros(200))


# ---------------------------------------------------------------------------
# SIM

def _extractor():
    reg = MrRegressor.create(0)
    return lambda w: mr_embed(reg, w if isinstance(w, (Waveform,
                                                       SpectralRecord))
                              else Waveform(np.asarray(w)))


def test_sim_self_is_one():
    ext = _extractor()
    s = Waveform(_noise(9))
    assert sim(s, s, ext) == pytest.approx(1.0, abs=1e-12)


def test_sim_bounded():
    ext = _extractor()
    for seed in range(5):
        v = sim(Waveform(_noise(seed)), Waveform(_noise(seed + 100)), ext)
        assert -1.0 <= v <= 1.0


def test_sim_zero_embedding_rejected():
    with pytest.raises(DegenerateInputError):
        sim(np.ones(4), np.ones(4), lambda w: np.zeros(3))


def test_sim_improves_after_oracle_extraction():
    ext = _extractor()
    items = make_dataset(50, "uniform", DatasetConfig(duration_s=0.125),
                         seed=12)
    gains = []
    for it in items:
        est, _, _ = extract_adaptive(it.x, it.e, oracle_mr(it.s1, it.b),
                                     OracleField(it.b, it.s1),
                                     NfePolicy(max_nfe=5))
        gains.append(sim(est, it.s1, ext) - sim(it.x, it.s1, ext))
    assert np.mean(gains) > 0


# ---------------------------------------------------------------------------
# EvalReport

def test_report_rejects_nonfinite():
    with pytest.raises(DegenerateInputError):
        EvalReport(si_sdr_db=np.inf, si_sdr_improvement_db=0.0, lsd_db=0.0,
                   sim_cosine=1.0, nfe_used=1, tau_true=0.5, tau_hat=0.5)


def test_report_csv_row_order_and_format():
    rep = EvalReport(si_sdr_db=1.25, si_sdr_improvement_db=-0.5, lsd_db=2.0,
                     sim_cosine=0.75, nfe_used=3, tau_true=0.5, tau_hat=0.25)
    row = rep.csv_row()
    assert len(row) == len(REPORT_COLUMNS)
    assert row == ["0.5", "0.25", "3", "1.25", "-0.5", "2.0", "0.75"]


def test_evaluate_consistent_with_parts(monkeypatch):
    ext = _extractor()
    item = make_dataset(1, "uniform", DatasetConfig(duration_s=0.125),
                        seed=13)[0]
    calls = []
    real_stft = signal.stft

    def counting_stft(*args, **kwargs):
        calls.append(1)
        return real_stft(*args, **kwargs)

    monkeypatch.setattr(signal, "stft", counting_stft)
    score = scorer(item.x, item.s1, ext)
    assert len(calls) == 1  # s1's record, read by SI-SDR, LSD and SIM
    scored = score(item.x)
    assert len(calls) == 2  # the estimate's record, built once
    rec = spectral_record(item.x, keep_db=True)
    calls.clear()
    # a record with its dB matrix at the LSD framing is read as it is
    assert score(rec) == scored and not calls
    rep = EvalReport(**scored, nfe_used=2, tau_true=item.tau, tau_hat=0.5)
    assert rep.si_sdr_db == si_sdr(item.x, item.s1)
    assert rep.si_sdr_improvement_db == 0.0
    assert rep.lsd_db == lsd(item.x, item.s1)
    assert rep.sim_cosine == sim(item.x, item.s1, ext)
    assert rep.nfe_used == 2
