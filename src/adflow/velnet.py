"""Frame-wise feedforward velocity field with analytic gradients.

The net maps (current frame +- one frame of context, pooled enrollment
embedding, sinusoidal tau embedding) to a velocity frame. Training regresses
it onto the closed-form target velocity with a mean-squared objective,
optimized by adaptive moments with decoupled weight decay under a cosine
annealing schedule with linear warmup.

The net computes in the dtype of its weights: float64 when created, float32
when trained or loaded from a checkpoint, which stores float32.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import flowpath
from .errors import DivergenceError, ParameterError, ShapeError
# stft is bound here by name so that perfbench's tracer, which rebinds it in
# every spectral consumer, finds it; spectra come from spectral_record.
from .signal import (DEFAULT_SAMPLE_RATE, read_checkpoint,  # noqa: F401
                     spectral_record, stft, write_checkpoint)

DEFAULT_FRAME_LEN = 64
DEFAULT_HIDDEN = (128, 128, 128)


# ---------------------------------------------------------------------------
# Embeddings and spectral features

@functools.lru_cache(maxsize=8)
def _tau_freqs(k: int) -> np.ndarray:
    freqs = np.geomspace(1.0, 64.0, k)
    freqs.flags.writeable = False
    return freqs


def embed_tau(tau: float, dim: int = 16) -> np.ndarray:
    """Sinusoidal features [sin(2 pi f_k tau), cos(2 pi f_k tau)].

    Frequencies run geometrically from 1 to 64 with dim/2 values.
    """
    if dim % 2 != 0 or dim < 0:
        raise ParameterError("tau embedding dim must be a non-negative even int")
    if not 0.0 <= tau <= 1.0:
        raise ParameterError("tau must lie in [0, 1]")
    if dim == 0:
        return np.zeros(0)
    ang = 2 * np.pi * _tau_freqs(dim // 2) * tau
    return np.concatenate([np.sin(ang), np.cos(ang)])


def stats_features(w, n_fft: int = 256, hop: int = 64) -> np.ndarray:
    """Stats-pooled log-magnitude spectrum: per-band mean and std over frames.

    `w` is a Waveform or its `SpectralRecord`.
    """
    return spectral_record(w, n_fft, hop).stats


# ---------------------------------------------------------------------------
# Network

@dataclass
class VelocityNet:
    """MLP parameters plus the fixed enrollment projection."""

    weights: list        # (out, in) matrices
    biases: list
    enroll_proj: np.ndarray  # (enroll_dim, feat_dim), fixed at init
    frame_len: int = DEFAULT_FRAME_LEN
    tau_embed_dim: int = 16
    enroll_embed_dim: int = 16
    feat_n_fft: int = 256
    feat_hop: int = 64
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    @property
    def layer_dims(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    @classmethod
    def create(cls, seed: int = 0, frame_len: int = DEFAULT_FRAME_LEN,
               hidden_dims=DEFAULT_HIDDEN, tau_embed_dim: int = 16,
               enroll_embed_dim: int = 16, feat_n_fft: int = 256,
               feat_hop: int = 64,
               sample_rate_hz: int = DEFAULT_SAMPLE_RATE) -> "VelocityNet":
        rng = np.random.default_rng(seed)
        in_dim = 3 * frame_len + enroll_embed_dim + tau_embed_dim
        dims = [in_dim, *hidden_dims, frame_len]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        feat_dim = 2 * (feat_n_fft // 2 + 1)
        proj = rng.normal(size=(enroll_embed_dim, feat_dim)) / np.sqrt(feat_dim)
        return cls(weights=weights, biases=biases, enroll_proj=proj,
                   frame_len=frame_len, tau_embed_dim=tau_embed_dim,
                   enroll_embed_dim=enroll_embed_dim, feat_n_fft=feat_n_fft,
                   feat_hop=feat_hop, sample_rate_hz=sample_rate_hz)


def embed_enrollment(e, net: VelocityNet) -> np.ndarray:
    """Standardized stats-pooled spectrum through the fixed projection.

    `e` is a Waveform or its `SpectralRecord`.
    """
    if net.enroll_embed_dim == 0:
        return np.zeros(0)
    f = stats_features(e, net.feat_n_fft, net.feat_hop)
    return net.enroll_proj @ ((f - f.mean()) / (f.std() + 1e-8))


def _forward(net: VelocityNet, rows: np.ndarray):
    """Forward pass over a (n, input_dim) batch; returns (out, activations)."""
    acts = [rows]
    h = rows
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T
        h += b
        if i != last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def _backward(net: VelocityNet, acts: list, d_out: np.ndarray) -> list:
    """Gradients of a scalar loss wrt parameters, given dLoss/dOutput.

    Consumes `acts`, the list `_forward` returned: each activation is
    popped before its last read and a hidden one becomes its tanh slope in
    place, so it is freed once its step is done.
    """
    grads = [None] * (2 * len(net.weights))
    del acts[-1]  # the output: not read
    dz = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        act = acts.pop()
        grads[2 * i] = dz.T @ act
        grads[2 * i + 1] = dz.sum(axis=0)
        if i > 0:
            dz = dz @ net.weights[i]
            # act = tanh(z_{i-1}) becomes its slope 1 - act^2
            np.square(act, out=act)
            np.subtract(1.0, act, out=act)
            dz *= act
    return grads


# ---------------------------------------------------------------------------
# Framing

def _n_frames(n_samples: int, frame_len: int) -> int:
    return max(1, -(-n_samples // frame_len))


def frame_signal(x: np.ndarray, frame_len: int):
    """Split into non-overlapping frames, zero-padding the tail."""
    x = np.asarray(x, dtype=np.float64)
    nf = _n_frames(x.size, frame_len)
    padded = np.zeros(nf * frame_len)
    padded[:x.size] = x
    return padded.reshape(nf, frame_len)


def _fill_rows(rows: np.ndarray, net: VelocityNet, x: np.ndarray,
               e_embed: np.ndarray, tau: float) -> None:
    """Write the net input into `rows`, one row per frame of
    `frame_signal(x, net.frame_len)`: [previous frame | frame | next frame |
    e_embed | tau embedding], with zero frames past either edge."""
    fl = net.frame_len
    te = embed_tau(tau, net.tau_embed_dim)
    width = 3 * fl + e_embed.size + te.size
    if width != net.input_dim:
        raise ShapeError(
            f"built input dim {width} != net input dim {net.input_dim}")
    frames = frame_signal(x, fl)
    rows[0, :fl] = 0.0
    rows[1:, :fl] = frames[:-1]
    rows[:, fl:2 * fl] = frames
    rows[:-1, 2 * fl:3 * fl] = frames[1:]
    rows[-1, 2 * fl:3 * fl] = 0.0
    rows[:, 3 * fl:3 * fl + e_embed.size] = e_embed
    rows[:, 3 * fl + e_embed.size:] = te


def _build_rows(net: VelocityNet, x: np.ndarray, e_embed: np.ndarray,
                tau: float) -> np.ndarray:
    """The net input for one signal, in one matrix of the weights' dtype."""
    rows = np.empty((_n_frames(np.size(x), net.frame_len), net.input_dim),
                    dtype=net.weights[0].dtype)
    _fill_rows(rows, net, x, e_embed, tau)
    return rows


def velocity_signal(net: VelocityNet, x: np.ndarray, e_embed: np.ndarray,
                    tau: float) -> np.ndarray:
    """Evaluate the field on a whole signal: frame, forward, re-assemble.

    The result has the dtype of the net's weights.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = _build_rows(net, x, e_embed, tau)
    out, _ = _forward(net, rows)
    return out.reshape(-1)[:x.size]


# ---------------------------------------------------------------------------
# Loss and training

def otcfm_loss_and_grad(net: VelocityNet, batch: list):
    """Mean-squared velocity regression over a batch.

    batch items are (x_tau, e_embed, tau, u_target) with x_tau/u_target
    equal-length signals. Returns (loss, grads) with grads ordered like
    net.parameters(). The rows of all items, their framed targets and the
    mask of their unpadded samples are written into one matrix each, in
    the weights' dtype, and the whole batch takes one forward and one
    backward pass; targets and mask are dropped once the residual is formed.
    """
    fl = net.frame_len
    sizes = []
    for x_tau, _, _, u_target in batch:
        if np.shape(x_tau) != np.shape(u_target):
            raise ShapeError("x_tau and u_target must have equal length")
        sizes.append(np.size(x_tau))
    counts = [_n_frames(n, fl) for n in sizes]
    n_rows, dtype = sum(counts), net.weights[0].dtype
    rows = np.empty((n_rows, net.input_dim), dtype=dtype)
    targets = np.zeros((n_rows, fl), dtype=dtype)
    mask = np.zeros((n_rows, fl), dtype=dtype)
    start = 0
    for (x_tau, e_embed, tau, u_target), n, count in zip(batch, sizes,
                                                         counts):
        stop = start + count
        _fill_rows(rows[start:stop], net, x_tau, np.asarray(e_embed), tau)
        targets[start:stop].reshape(-1)[:n] = u_target
        mask[start:stop].reshape(-1)[:n] = 1.0
        start = stop
    total = sum(sizes)
    # the output becomes the residual in place: _backward does not read it
    diff, acts = _forward(net, rows)
    diff -= targets
    diff *= mask
    del targets, mask
    loss = float(np.sum(diff ** 2) / total)
    diff *= 2.0
    diff /= total
    return loss, _backward(net, acts, diff)


@dataclass
class TrainConfig:
    lr_init: float = 1e-4
    lr_min: float = 1e-5
    warmup_epochs: int = 5
    t_max_epochs: int = 50
    weight_decay: float = 0.01
    grad_clip: float = 0.5
    batch_size: int = 16
    epochs: int = 60
    seed: int = 0

    def __post_init__(self):
        if self.lr_init <= 0 or self.lr_min <= 0:
            raise ParameterError("learning rates must be positive")
        if self.lr_min > self.lr_init:
            raise ParameterError("lr_min must not exceed lr_init")
        if self.warmup_epochs < 1 or self.t_max_epochs < 1:
            raise ParameterError("schedule lengths must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ParameterError("batch size and epochs must be positive")
        if self.grad_clip <= 0 or self.weight_decay < 0:
            raise ParameterError("bad grad_clip or weight_decay")


def lr_for_epoch(config: TrainConfig, epoch: int) -> float:
    """Linear warmup, then cosine annealing from lr_init to lr_min."""
    if epoch < config.warmup_epochs:
        return config.lr_init * (epoch + 1) / config.warmup_epochs
    progress = min(epoch - config.warmup_epochs, config.t_max_epochs)
    return float(config.lr_min + 0.5 * (config.lr_init - config.lr_min) * (
        1.0 + np.cos(np.pi * progress / config.t_max_epochs)))


def clip_gradients(grads: list, max_norm: float):
    """Scale all gradients so the global L2 norm is at most max_norm.

    Each gradient keeps its dtype: the scale is a Python float.
    """
    total = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads))
    if total > max_norm:
        scale = float(max_norm / total)
        grads = [g * scale for g in grads]
    return grads, total


ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamW:
    """Adaptive moments with decoupled weight decay (Loshchilov & Hutter).

    Decay is applied only to weight matrices (ndim >= 2), multiplicatively by
    (1 - lr * decay) before the moment update.
    """

    def __init__(self, params: list, weight_decay: float = 0.01):
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list, grads: list, lr: float) -> None:
        """One update; each gradient has its parameter's shape and dtype."""
        self.t += 1
        bc1 = 1.0 - ADAM_B1 ** self.t
        bc2 = 1.0 - ADAM_B2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.ndim >= 2 and self.weight_decay > 0:
                p *= 1.0 - lr * self.weight_decay
            m *= ADAM_B1
            m += (1 - ADAM_B1) * g
            v *= ADAM_B2
            v += (1 - ADAM_B2) * g ** 2
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def fit(params: list, n_items: int, config: TrainConfig, loss_and_grad):
    """The training loop shared by velnet and mrnet; returns the loss trace.

    Each epoch shuffles the items and takes one AdamW step per mini-batch
    at the epoch's learning rate, after global-norm clipping.
    `loss_and_grad(idx, rng)` returns (loss, grads ordered like `params`)
    for the items `idx` and may draw from `rng`. The trace holds the mean
    batch loss per epoch. Fully deterministic under config.seed.
    """
    rng = np.random.default_rng(config.seed)
    opt = AdamW(params, weight_decay=config.weight_decay)
    trace = []
    for epoch in range(config.epochs):
        lr = lr_for_epoch(config, epoch)
        order = rng.permutation(n_items)
        losses = []
        for start in range(0, n_items, config.batch_size):
            loss, grads = loss_and_grad(order[start:start + config.batch_size],
                                        rng)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at epoch {epoch}")
            grads, _ = clip_gradients(grads, config.grad_clip)
            opt.step(params, grads, lr)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    # The loss check runs before each step, so it cannot see the last one;
    # a parameter past float32's range would reach the checkpoint as inf.
    limit = np.finfo(np.float32).max
    if not all(np.all(np.abs(p) <= limit) for p in params):
        raise DivergenceError("parameters non-finite or beyond float32 range "
                              f"after the last step of epoch {epoch}")
    return trace


def train_velocity(net: VelocityNet, dataset, config: TrainConfig,
                   path_params: flowpath.PathParams | None = None):
    """Train the velocity field on a sequence of MixtureItems; returns
    (net, loss_trace). The enrollment embeddings take one pass over the
    items, then each step indexes the items of its batch.

    Per step a fresh tau ~ U[0,1] is drawn per item and the path state is
    re-sampled; the regression target is the closed-form velocity. The
    net's weights and biases are first cast to float32, the dtype its
    checkpoint stores, so training computes in float32 and leaves `net`
    float32; the enrollment projection stays as it is.
    """
    pp = path_params or flowpath.PathParams()
    net.weights = [w.astype(np.float32) for w in net.weights]
    net.biases = [b.astype(np.float32) for b in net.biases]
    e_embeds = [embed_enrollment(item.e, net) for item in dataset]

    def loss_and_grad(idx, rng):
        batch = []
        for j in idx:
            item = dataset[j]
            tau = float(rng.uniform())
            state = flowpath.sample_path_state(
                item.b.samples, item.s1.samples, tau, pp,
                seed=int(rng.integers(0, 2 ** 31)))
            u = flowpath.target_velocity(state, item.b.samples,
                                         item.s1.samples, pp)
            batch.append((state.x, e_embeds[j], tau, u))
            # dropped before the next read, which then reuses its memory
            # instead of faulting in fresh pages
            del item
        return otcfm_loss_and_grad(net, batch)

    return net, fit(net.parameters(), len(dataset), config, loss_and_grad)


# ---------------------------------------------------------------------------
# Checkpoints

_VEL_HEADER = "ADFLOW-VELNET v1"

# header key -> VelocityNet field, in header order after `dims`
_VEL_FIELDS = {"frame_len": "frame_len", "tau_dim": "tau_embed_dim",
               "enroll_dim": "enroll_embed_dim", "feat_n_fft": "feat_n_fft",
               "feat_hop": "feat_hop", "sample_rate_hz": "sample_rate_hz"}


def save_velnet(path, net: VelocityNet) -> None:
    dims = ",".join(str(d) for d in net.layer_dims)
    write_checkpoint(path, _VEL_HEADER, {"dims": dims, **{
        key: getattr(net, name) for key, name in _VEL_FIELDS.items()}},
        net.parameters() + [net.enroll_proj])


def load_velnet(path) -> VelocityNet:
    """Read a checkpoint; a malformed one, or one of a net that cannot run,
    raises FileFormatError. Tensors stay float32, so the loaded net
    computes in float32."""
    def shapes(m):  # (weight, bias) per layer, then the projection
        dims, fl, tau, enroll = (m["dims"], m["frame_len"], m["tau_dim"],
                                 m["enroll_dim"])
        # a zero-width layer would let dims[0] be any size behind no bytes
        if min(dims) < 1 or tau < 0 or tau % 2 or \
                dims[0] != 3 * fl + enroll + tau or dims[-1] != fl:
            raise ValueError(f"no net runs dims={dims} with frame_len={fl},"
                             f" tau_dim={tau} and enroll_dim={enroll}")
        return [shape for fan_in, fan_out in zip(dims[:-1], dims[1:])
                for shape in ((fan_out, fan_in), (fan_out,))] + \
            [(enroll, 2 * (m["feat_n_fft"] // 2 + 1))]

    meta, (*params, proj) = read_checkpoint(path, _VEL_HEADER, shapes)
    return VelocityNet(params[0::2], params[1::2], proj, **{
        name: meta[key] for key, name in _VEL_FIELDS.items()})
