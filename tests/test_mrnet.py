import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.errors import DegenerateInputError
from adflow.mrnet import (MrRegressor, load_mrnet, mr_oracle_lsq, mr_predict,
                          mr_train, save_mrnet, _loss_and_grad, mr_features,
                          _predict_rows, _sigmoid)
from adflow.signal import DatasetConfig, Waveform, make_dataset, mix
from adflow.velnet import TrainConfig, fit

CFG = DatasetConfig(duration_s=0.125)


def _waves(seed, n=2000):
    rng = np.random.default_rng(seed)
    return Waveform(rng.standard_normal(n)), Waveform(rng.standard_normal(n))


# ---------------------------------------------------------------------------
# Prediction

def test_predict_in_open_unit_interval():
    reg = MrRegressor.create(0)
    for seed in range(5):
        x, e = _waves(seed)
        p = mr_predict(reg, x, e)
        assert 0.0 < p < 1.0


def test_predict_asymmetric_in_arguments():
    reg = MrRegressor.create(1)
    x, e = _waves(9)
    assert mr_predict(reg, x, e) != mr_predict(reg, e, x)


def test_predict_never_saturates_on_extreme_inputs():
    reg = MrRegressor.create(2)
    loud = Waveform(1e6 * np.ones(2000) + np.random.default_rng(0).normal(
        size=2000))
    quiet = Waveform(1e-9 * np.random.default_rng(1).standard_normal(2000))
    for w in (loud, quiet):
        p = mr_predict(reg, w, w)
        assert 0.0 < p < 1.0


# ---------------------------------------------------------------------------
# Least-squares oracle

def test_oracle_inverts_mix():
    s1, b = _waves(3)
    x = mix(s1, b, 0.37)
    assert abs(mr_oracle_lsq(x, s1, b) - 0.37) < 1e-9


def test_oracle_endpoints():
    s1, b = _waves(4)
    assert mr_oracle_lsq(s1, s1, b) == 1.0
    assert mr_oracle_lsq(b, s1, b) == 0.0


def test_oracle_ignores_orthogonal_perturbation():
    s1, b = _waves(5)
    d = s1.samples - b.samples
    rng = np.random.default_rng(0)
    p = rng.standard_normal(len(s1))
    p -= d * (np.dot(p, d) / np.dot(d, d))  # project out the mix direction
    x = Waveform(mix(s1, b, 0.37).samples + 1e-3 * p)
    assert abs(mr_oracle_lsq(x, s1, b) - 0.37) < 1e-9


def test_oracle_degenerate_pair_rejected():
    s1, _ = _waves(6)
    with pytest.raises(DegenerateInputError):
        mr_oracle_lsq(s1, s1, s1)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_oracle_identity_property(tau, seed):
    rng = np.random.default_rng(seed)
    s1 = rng.standard_normal(256)
    b = rng.standard_normal(256)
    s1 /= np.sqrt(np.mean(s1 ** 2))
    b /= np.sqrt(np.mean(b ** 2))
    if np.linalg.norm(s1 - b) <= 1e-6:
        return
    x = tau * s1 + (1 - tau) * b
    assert abs(mr_oracle_lsq(x, s1, b) - tau) < 1e-9


# ---------------------------------------------------------------------------
# Gradients

def test_mr_gradient_matches_finite_difference():
    reg = MrRegressor.create(0, embed_dim=6, hidden_dim=5)
    rng = np.random.default_rng(0)
    items = make_dataset(3, "uniform", CFG, seed=0)
    fx = np.stack([mr_features(reg, it.x) for it in items])
    fe = np.stack([mr_features(reg, it.e) for it in items])
    taus = np.array([it.tau for it in items])
    _, grads = _loss_and_grad(reg, fx, fe, taus)
    h = 1e-4
    worst = 0.0
    for p, g in zip(reg.parameters(), grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        # feature dim is large; spot-check a deterministic subset
        idx = rng.choice(flat_p.size, size=min(60, flat_p.size), replace=False)
        for i in idx:
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi, _ = _loss_and_grad(reg, fx, fe, taus)
            flat_p[i] = orig - h
            lo, _ = _loss_and_grad(reg, fx, fe, taus)
            flat_p[i] = orig
            fd = (hi - lo) / (2 * h)
            rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]), abs(fd), 1e-4)
            worst = max(worst, rel)
    assert worst < 1e-3


# ---------------------------------------------------------------------------
# Training

def test_training_on_constant_tau_converges_to_it():
    items = make_dataset(40, 0.5, CFG, seed=8)
    reg = MrRegressor.create(0)
    cfg = TrainConfig(lr_init=1e-2, lr_min=1e-4, epochs=60, batch_size=8,
                      weight_decay=0.0, seed=0)
    reg, _ = mr_train(reg, items, cfg)
    preds = [mr_predict(reg, it.x, it.e) for it in items]
    assert all(abs(p - 0.5) < 0.02 for p in preds)


def test_training_reduces_loss():
    items = make_dataset(60, "uniform", CFG, seed=9)
    reg = MrRegressor.create(0)
    cfg = TrainConfig(lr_init=1e-3, lr_min=1e-4, epochs=30, seed=0)
    _, trace = mr_train(reg, items, cfg)
    assert trace[-1] < trace[0]


def test_training_deterministic():
    items = make_dataset(10, "uniform", CFG, seed=10)
    traces = []
    for _ in range(2):
        reg = MrRegressor.create(5)
        _, trace = mr_train(reg, items, TrainConfig(epochs=4, seed=2))
        traces.append(trace)
    assert traces[0] == traces[1]


def _reference_predict_rows(reg, fx, fe):
    zx = fx @ reg.extract_w.T + reg.extract_b
    ze = fe @ reg.extract_w.T + reg.extract_b
    z = np.hstack([zx, ze])
    h = np.tanh(z @ reg.head_w1.T + reg.head_b1)
    logit = h @ reg.head_w2 + reg.head_b2[0]
    return _sigmoid(logit), (z, h, logit)


def _reference_loss_and_grad(reg, fx, fe, taus):
    """The step's formulas with a fresh array for every temporary."""
    pred, (z, h, logit) = _reference_predict_rows(reg, fx, fe)
    n = taus.size
    resid = pred - taus
    loss = float(np.mean(resid ** 2))
    dlogit = (2.0 / n) * resid * pred * (1.0 - pred)
    d_w2 = dlogit @ h
    d_b2 = np.array([dlogit.sum()])
    dh = np.outer(dlogit, reg.head_w2)
    dz1 = dh * (1.0 - h ** 2)
    d_w1 = dz1.T @ z
    d_b1 = dz1.sum(axis=0)
    dz = dz1 @ reg.head_w1
    embed_dim = reg.extract_b.size
    dzx, dze = dz[:, :embed_dim], dz[:, embed_dim:]
    d_ww = dzx.T @ fx + dze.T @ fe
    d_wb = dzx.sum(axis=0) + dze.sum(axis=0)
    return loss, [d_ww, d_wb, d_w1, d_b1, d_w2, d_b2]


def test_step_matches_fresh_temporaries():
    rng = np.random.default_rng(6)
    n, feat_dim = 80, 3 * 129 + 1
    fx, fe = rng.normal(size=(n, feat_dim)), rng.normal(size=(n, feat_dim))
    taus = rng.uniform(size=n)
    # 5 batches of 16 over 10 epochs: 50 steps
    cfg = TrainConfig(lr_init=1e-2, lr_min=1e-4, warmup_epochs=2,
                      t_max_epochs=8, epochs=10, batch_size=16, seed=1)
    runs = []
    for loss_and_grad in (_loss_and_grad, _reference_loss_and_grad):
        reg = MrRegressor.create(4)
        trace = fit(reg.parameters(), n, cfg, lambda idx, _: loss_and_grad(
            reg, fx[idx], fe[idx], taus[idx]))
        runs.append((reg, np.array(trace)))
    (reg, trace), (ref, ref_trace) = runs
    assert trace.tobytes() == ref_trace.tobytes()
    for got, want in zip(reg.parameters(), ref.parameters()):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    for rows in (1, 7):
        got, acts = _predict_rows(reg, fx[:rows], fe[:rows])
        want, want_acts = _reference_predict_rows(reg, fx[:rows], fe[:rows])
        assert got.tobytes() == want.tobytes()
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(acts, want_acts))


def test_oracle_at_least_as_accurate_as_regressor():
    items = make_dataset(20, "uniform", CFG, seed=11)
    reg = MrRegressor.create(0)
    reg, _ = mr_train(reg, items, TrainConfig(lr_init=1e-3, lr_min=1e-4,
                                              epochs=20, seed=0))
    for it in items:
        oracle_err = abs(mr_oracle_lsq(it.x, it.s1, it.b) - it.tau)
        reg_err = abs(mr_predict(reg, it.x, it.e) - it.tau)
        assert oracle_err <= reg_err + 1e-12


# ---------------------------------------------------------------------------
# Checkpoints

def test_create_takes_settings_by_field_name_only():
    reg = MrRegressor.create(0, embed_dim=6, hidden_dim=5, feat_n_fft=64)
    assert reg.feat_n_fft == 64
    assert [p.shape for p in reg.parameters()] == [
        (6, 100), (6,), (5, 12), (5,), (5,), (1,)]
    with pytest.raises(TypeError):
        MrRegressor.create(0, 6)  # no setting binds by position
    with pytest.raises(TypeError):
        MrRegressor.create(0, n_fft=64)  # not a field


def test_checkpoint_roundtrip(tmp_path):
    reg = MrRegressor.create(3)
    path = tmp_path / "mrnet.ckpt"
    save_mrnet(path, reg)
    back = load_mrnet(path)
    x, e = _waves(0)
    assert mr_predict(back, x, e) == pytest.approx(mr_predict(reg, x, e),
                                                   abs=1e-5)


def test_byte_equal_checkpoints_share_upcast_tensors(tmp_path):
    # the float64 upcast is kept with the parse: a second load of equal
    # bytes gets the same read-only arrays in a new regressor
    reg = MrRegressor.create(41)
    for name in ("a.ckpt", "b.ckpt"):
        save_mrnet(tmp_path / name, reg)
    a, b = load_mrnet(tmp_path / "a.ckpt"), load_mrnet(tmp_path / "b.ckpt")
    assert a is not b
    for p, q in zip(a.parameters(), b.parameters()):
        assert p is q and p.dtype == np.float64
    with pytest.raises(ValueError):
        a.extract_w[0, 0] = 0.0
