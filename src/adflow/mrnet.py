"""Mixing-ratio estimation.

A trainable regressor maps (mixture, enrollment) to tau_hat in (0,1) via a
shared linear extractor over stats-pooled spectral features, concatenation,
and a 2-layer perceptron head with a sigmoid output. A closed-form
least-squares oracle inverts the mixing equation exactly and serves as the
independent reference in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
# stft, stats_features, AdamW and clip_gradients are bound here by name only
# so that perfbench's tracer, which rebinds them in this module, finds them:
# spectra come from spectral_record and training runs in velnet.fit.
from .signal import (DEFAULT_HOP, DEFAULT_N_FFT,  # noqa: F401
                     DEFAULT_SAMPLE_RATE, Waveform, read_checkpoint,
                     samples_of, spectral_record, stft, write_checkpoint)
from .velnet import (AdamW, TrainConfig, clip_gradients,  # noqa: F401
                     fit, stats_features)

# Logit bound keeping sigmoid strictly inside (0,1) in float64.
_LOGIT_CLIP = 30.0

_MR_HEADER = "ADFLOW-MRNET v1"

# header keys, each an MrRegressor field, in header order after the widths
_MR_FIELDS = ("feat_n_fft", "feat_hop", "sample_rate_hz")


@dataclass
class MrRegressor:
    """Shared extractor w(.) plus 2-layer sigmoid head h(.)."""

    extract_w: np.ndarray   # (embed_dim, feat_dim)
    extract_b: np.ndarray
    head_w1: np.ndarray     # (hidden_dim, 2*embed_dim)
    head_b1: np.ndarray
    head_w2: np.ndarray     # (hidden_dim,)
    head_b2: np.ndarray     # scalar, shape (1,)
    feat_n_fft: int = DEFAULT_N_FFT
    feat_hop: int = DEFAULT_HOP
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def parameters(self) -> list:
        return [self.extract_w, self.extract_b, self.head_w1, self.head_b1,
                self.head_w2, self.head_b2]

    @classmethod
    def create(cls, seed: int = 0, *, embed_dim: int = 64,
               hidden_dim: int = 256, **fields) -> "MrRegressor":
        reg = cls(*[None] * 6, **fields)
        rng = np.random.default_rng(seed)
        feat_dim = 3 * (reg.feat_n_fft // 2 + 1) + 1

        def glorot(fan_out, fan_in):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-lim, lim, size=(fan_out, fan_in))

        # near-isometric extractor init keeps inner products between the two
        # embeddings informative; biased, scaled head init gives the tanh
        # units curvature so quadratic (similarity) terms are reachable
        reg.extract_w = rng.normal(size=(embed_dim, feat_dim)) / np.sqrt(
            embed_dim)
        reg.extract_b = np.zeros(embed_dim)
        reg.head_w1 = 2.0 * glorot(hidden_dim, 2 * embed_dim)
        reg.head_b1 = 0.5 * rng.normal(size=hidden_dim)
        reg.head_w2 = glorot(1, hidden_dim)[0]
        reg.head_b2 = np.zeros(1)
        return reg


def _sigmoid(z):
    z = np.clip(z, -_LOGIT_CLIP, _LOGIT_CLIP)
    return 1.0 / (1.0 + np.exp(-z))


def _features(reg: MrRegressor, w) -> np.ndarray:
    rec = spectral_record(w, reg.feat_n_fft, reg.feat_hop)
    lin = rec.profile / (np.linalg.norm(rec.profile) + 1e-12)
    f = rec.stats
    logp = (f - f.mean()) / (f.std() + 1e-8) / np.sqrt(f.size)
    return np.concatenate([lin, logp, [np.log(rec.rms + 1e-8)]])


def mr_features(reg: MrRegressor, w: Waveform) -> np.ndarray:
    """Spectral profile features feeding the shared extractor.

    Unit-normalized linear-magnitude band profile (carries target/background
    similarity), standardized log-magnitude stats (spectral shape and noise
    floor), and the overall log level.
    """
    return _features(reg, w)


def mr_embed(reg: MrRegressor, w) -> np.ndarray:
    """Shared extractor applied to one Waveform or its `SpectralRecord`."""
    return reg.extract_w @ _features(reg, w) + reg.extract_b


def _predict_rows(reg: MrRegressor, fx: np.ndarray, fe: np.ndarray):
    """Batched prediction from precomputed feature rows; keeps activations."""
    zx = fx @ reg.extract_w.T + reg.extract_b
    ze = fe @ reg.extract_w.T + reg.extract_b
    z = np.hstack([zx, ze])
    h = np.tanh(z @ reg.head_w1.T + reg.head_b1)
    logit = h @ reg.head_w2 + reg.head_b2[0]
    return _sigmoid(logit), (z, h, logit)


def mr_predict(reg: MrRegressor, x, e) -> float:
    """tau_hat = sigmoid(h([w(x); w(e)])), strictly inside (0,1).

    x and e are Waveforms or their `SpectralRecord`s.
    """
    pred, _ = _predict_rows(reg, _features(reg, x)[None, :],
                            _features(reg, e)[None, :])
    return float(pred[0])


def _loss_and_grad(reg: MrRegressor, fx, fe, taus):
    pred, (z, h, logit) = _predict_rows(reg, fx, fe)
    n = taus.size
    resid = pred - taus
    loss = float(np.mean(resid ** 2))
    dlogit = (2.0 / n) * resid * pred * (1.0 - pred)
    d_w2 = dlogit @ h
    d_b2 = np.array([dlogit.sum()])
    dz1 = np.outer(dlogit, reg.head_w2) * (1.0 - h ** 2)
    d_w1 = dz1.T @ z
    d_b1 = dz1.sum(axis=0)
    dz = dz1 @ reg.head_w1
    embed_dim = reg.extract_b.size
    dzx, dze = dz[:, :embed_dim], dz[:, embed_dim:]
    d_ww = dzx.T @ fx + dze.T @ fe
    d_wb = dzx.sum(axis=0) + dze.sum(axis=0)
    return loss, [d_ww, d_wb, d_w1, d_b1, d_w2, d_b2]


def mr_train(reg: MrRegressor, dataset, config: TrainConfig):
    """MSE training against ground-truth tau; returns (reg, loss_trace).

    The features of every item are taken in one pass over `dataset`, a
    sequence of MixtureItems, which is not read again, and written into
    arrays of one row per item.
    """
    fx, fe = (np.empty((len(dataset), reg.extract_w.shape[1]))
              for _ in range(2))
    taus = np.empty(len(dataset))
    for k, item in enumerate(dataset):
        fx[k] = mr_features(reg, item.x)
        fe[k] = mr_features(reg, item.e)
        taus[k] = item.tau
    trace = fit(reg.parameters(), len(dataset), config,
                lambda idx, rng: _loss_and_grad(reg, fx[idx], fe[idx],
                                                taus[idx]))
    return reg, trace


def mr_oracle_lsq(x, s1, b) -> float:
    """Least-squares inversion of the mixing equation, clamped to [0,1]."""
    x, s1, b = samples_of(x), samples_of(s1), samples_of(b)
    d = s1 - b
    denom = float(np.dot(d, d))
    if denom <= 0.0:
        raise DegenerateInputError("s1 and b coincide; tau is unidentifiable")
    tau = float(np.dot(x - b, d) / denom)
    return min(1.0, max(0.0, tau))


def save_mrnet(path, reg: MrRegressor) -> None:
    write_checkpoint(path, _MR_HEADER, {
        "embed_dim": reg.extract_b.size, "hidden_dim": reg.head_b1.size,
        **{key: getattr(reg, key) for key in _MR_FIELDS}}, reg.parameters())


def load_mrnet(path) -> MrRegressor:
    """Read a checkpoint; a malformed one raises FileFormatError.

    The float32 tensors are upcast: the regressor computes in float64, which
    costs little next to the velocity field and keeps tau_hat as it was.
    """
    def shapes(m):  # in the order of MrRegressor.parameters
        embed, hidden = m["embed_dim"], m["hidden_dim"]
        if min(embed, hidden) < 1:  # a zero-width layer holds no weights
            raise ValueError(f"embed_dim={embed}, hidden_dim={hidden}")
        return [(embed, 3 * (m["feat_n_fft"] // 2 + 1) + 1), (embed,),
                (hidden, 2 * embed), (hidden,), (hidden,), (1,)]

    meta, tensors = read_checkpoint(path, _MR_HEADER, shapes, np.float64)
    return MrRegressor(*tensors, **{key: meta[key] for key in _MR_FIELDS})
