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
import math
from dataclasses import dataclass

import numpy as np

from . import flowpath
from .errors import DivergenceError, ParameterError, ShapeError
# stft is bound here by name so that perfbench's tracer, which rebinds it in
# every spectral consumer, finds it; spectra come from spectral_record.
from .signal import (DEFAULT_HOP, DEFAULT_N_FFT,  # noqa: F401
                     DEFAULT_SAMPLE_RATE, read_checkpoint, spectral_record,
                     stft, write_checkpoint)

DEFAULT_FRAME_LEN = 64
DEFAULT_HIDDEN = (128, 128, 128)


# ---------------------------------------------------------------------------
# Embeddings and spectral features

@functools.lru_cache(maxsize=8)
def _tau_freqs(k: int) -> np.ndarray:
    freqs = np.geomspace(1.0, 64.0, k)
    freqs.flags.writeable = False
    return freqs


def embed_tau(tau: float, dim: int) -> np.ndarray:
    """Sinusoidal features [sin(2 pi f_k tau), cos(2 pi f_k tau)].

    Frequencies run geometrically from 1 to 64 with dim/2 values.
    """
    if dim % 2 != 0 or dim < 0:
        raise ParameterError("tau embedding dim must be a non-negative even int")
    if not 0.0 <= tau <= 1.0:
        raise ParameterError("tau must lie in [0, 1]")
    ang = 2 * np.pi * _tau_freqs(dim // 2) * tau
    return np.concatenate([np.sin(ang), np.cos(ang)])


def stats_features(w, n_fft: int = DEFAULT_N_FFT,
                   hop: int = DEFAULT_HOP) -> np.ndarray:
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
    feat_n_fft: int = DEFAULT_N_FFT
    feat_hop: int = DEFAULT_HOP
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    @property
    def layer_dims(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    @classmethod
    def create(cls, seed: int = 0, *, hidden_dims=DEFAULT_HIDDEN,
               **fields) -> "VelocityNet":
        net = cls([], [], None, **fields)
        rng = np.random.default_rng(seed)
        dims = [3 * net.frame_len + net.enroll_embed_dim + net.tau_embed_dim,
                *hidden_dims, net.frame_len]
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            net.weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
            net.biases.append(np.zeros(fan_out))
        feat_dim = 2 * (net.feat_n_fft // 2 + 1)
        net.enroll_proj = rng.normal(
            size=(net.enroll_embed_dim, feat_dim)) / np.sqrt(feat_dim)
        return net


def embed_enrollment(e, net: VelocityNet) -> np.ndarray:
    """Standardized stats-pooled spectrum through the fixed projection.

    `e` is a Waveform or its `SpectralRecord`.
    """
    f = stats_features(e, net.feat_n_fft, net.feat_hop)
    return net.enroll_proj @ ((f - f.mean()) / (f.std() + 1e-8))


def _forward(net: VelocityNet, rows: np.ndarray, outs=None):
    """Forward pass over a batch of rows; returns (out, activations).
    Layer i writes its output into `outs[i]` if given, else a new array."""
    acts = [rows]
    h = rows
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = np.matmul(h, w.T, out=None if outs is None else outs[i])
        h += b
        if i != last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts


def _backward(net: VelocityNet, acts: list, d_out: np.ndarray,
              buf: _StepBuffers, grads: list) -> None:
    """Add one block's gradients of a scalar loss wrt the parameters, given
    dLoss/dOutput, to `grads`, ordered like net.parameters(); a None entry
    becomes a copy of the block's gradient.

    Each weight and bias product is written into `buf.partials` first.
    Consumes `acts`, the list `_forward` returned: a hidden activation
    becomes, in place, its tanh slope and then the gradient wrt its
    pre-activation; the product with the layer's weights that the slope
    scales goes into `buf.scratch`.
    """
    del acts[-1]  # the output: not read
    dz = d_out
    for i in range(len(net.weights) - 1, -1, -1):
        act = acts.pop()
        np.matmul(dz.T, act, out=buf.partials[2 * i])
        np.sum(dz, axis=0, out=buf.partials[2 * i + 1])
        for k in (2 * i, 2 * i + 1):
            if grads[k] is None:
                grads[k] = buf.partials[k].copy()
            else:
                grads[k] += buf.partials[k]
        if i > 0:
            # act = tanh(z_{i-1}) becomes its slope 1 - act^2, then dz_{i-1}
            np.square(act, out=act)
            np.subtract(1.0, act, out=act)
            act *= np.matmul(dz, net.weights[i],
                             out=buf.scratch[:act.size].reshape(act.shape))
            dz = act


# Rows per training block. The weight-gradient GEMM reduces over a block's
# rows, and OpenBLAS gives the same bytes under 1 and 2 threads for a
# reduction of at most 256 (not for 500 to 3,500), so training does not
# depend on the thread count.
_BLOCK_ROWS = 256


class _StepBuffers:
    """One training block's operands in the weights' dtype, as views into
    one array: rows, framed targets, each layer's output, one backward
    scratch of the widest hidden width and one partial product per
    parameter. Always one whole block, whatever the batch."""

    def __init__(self, net: VelocityNet):
        n = _BLOCK_ROWS
        shapes = [(n, net.layer_dims[0]), (n, net.frame_len),
                  (n * max(net.layer_dims[1:-1], default=0),),
                  *[(n, w.shape[0]) for w in net.weights],
                  *[p.shape for p in net.parameters()]]
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.empty(sum(sizes), net.weights[0].dtype)
        self.rows, self.targets, self.scratch, *views = [
            part.reshape(shape) for part, shape in
            zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        self.outs, self.partials = (views[:len(net.weights)],
                                    views[len(net.weights):])


# ---------------------------------------------------------------------------
# Framing

def _n_frames(n_samples: int, frame_len: int) -> int:
    return max(1, -(-n_samples // frame_len))


def _fill_rows(rows: np.ndarray, net: VelocityNet, x: np.ndarray,
               e_embed: np.ndarray, tau: float, first: int = 0) -> None:
    """Write the net input into `rows`, one row per frame of x from frame
    `first` on: [previous frame | frame | next frame | e_embed | tau
    embedding]. Frames are non-overlapping, of `net.frame_len` samples; the
    last one is zero-padded, and frames past either edge are zero."""
    fl, n = net.frame_len, len(rows)
    te = embed_tau(tau, net.tau_embed_dim)
    width = 3 * fl + e_embed.size + te.size
    if width != net.layer_dims[0]:
        raise ShapeError(
            f"built input dim {width} != net input dim {net.layer_dims[0]}")
    # frames first - 1 .. first + n, zero where they lie outside x
    context = np.zeros((n + 2) * fl)
    lo = (first - 1) * fl
    piece = np.asarray(x, dtype=np.float64)[max(lo, 0):(first + n + 1) * fl]
    context[max(-lo, 0):max(-lo, 0) + piece.size] = piece
    frames = context.reshape(n + 2, fl)
    rows[:, :fl] = frames[:-2]
    rows[:, fl:2 * fl] = frames[1:-1]
    rows[:, 2 * fl:3 * fl] = frames[2:]
    rows[:, 3 * fl:3 * fl + e_embed.size] = e_embed
    rows[:, 3 * fl + e_embed.size:] = te


def _build_rows(net: VelocityNet, x: np.ndarray, e_embed: np.ndarray,
                tau: float) -> np.ndarray:
    """The net input for one signal, in one matrix of the weights' dtype."""
    rows = np.empty((_n_frames(np.size(x), net.frame_len), net.layer_dims[0]),
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

def _fill_blocks(net: VelocityNet, batch, sizes: list, buf: _StepBuffers):
    """Write the batch's rows and framed targets into `buf` in item order;
    yield (rows, padded spans) when a block of `_BLOCK_ROWS` rows is full,
    and for the last block. A padded span (start, stop) indexes the block's
    flattened targets. An item is unpacked at its first row and dropped
    after its last, so only an item split between blocks outlives one."""
    fl = net.frame_len
    filled, padded = 0, []
    for entry, n in zip(batch, sizes):
        x_tau, e_embed, tau, u_target = entry
        if np.shape(x_tau) != (n,) or np.shape(u_target) != (n,):
            raise ShapeError("x_tau and u_target must have equal length")
        e_embed, u_target = np.asarray(e_embed), np.asarray(u_target)
        count, first = _n_frames(n, fl), 0
        while first < count:
            take = min(count - first, _BLOCK_ROWS - filled)
            stop = filled + take
            _fill_rows(buf.rows[filled:stop], net, x_tau, e_embed, tau, first)
            framed = buf.targets[filled:stop].reshape(-1)
            piece = u_target[first * fl:(first + take) * fl]
            framed[:piece.size] = piece
            framed[piece.size:] = 0.0  # a reused buffer holds older values
            if piece.size < framed.size:
                padded.append((filled * fl + piece.size, stop * fl))
            filled, first = stop, first + take
            if filled == _BLOCK_ROWS:
                yield filled, padded
                filled, padded = 0, []
        del x_tau, u_target
    if filled:
        yield filled, padded


def otcfm_loss_and_grad(net: VelocityNet, batch, buffers=None):
    """Mean-squared velocity regression over a batch.

    Each batch entry unpacks to (x_tau, e_embed, tau, u_target), with
    x_tau and u_target 1-D signals of length `len(entry[0])`. Returns
    (loss, grads) with grads ordered like net.parameters(), in the weights'
    dtype. The batch's rows, one per frame, run in item order in blocks of
    `_BLOCK_ROWS` rows, a long item split between two or more; each block
    takes one forward and one backward pass, and its squared error and
    gradients are added to the step's in block order, so the step's memory
    is set by the block, not the batch. The blocks use `buffers` (a
    `_StepBuffers`, which a fit reuses at every step) or new ones. The
    entries are unpacked one at a time as the blocks reach them, so an
    entry may build its arrays when unpacked, as `train_velocity`'s do.
    """
    sizes = [len(entry[0]) for entry in batch]
    total = sum(sizes)
    buf = _StepBuffers(net) if buffers is None else buffers
    grads = [None] * len(buf.partials)
    squares = 0.0
    for n, padded in _fill_blocks(net, batch, sizes, buf):
        # the output becomes the residual in place: _backward does not read it
        diff, acts = _forward(net, buf.rows[:n], [out[:n] for out in buf.outs])
        diff -= buf.targets[:n]
        for start, stop in padded:
            # times 0.0, as by a 0/1 mask of the unpadded samples
            diff.reshape(-1)[start:stop] *= 0.0
        squares += np.sum(np.square(diff, out=buf.targets[:n]))
        diff *= 2.0
        diff /= total
        _backward(net, acts, diff, buf, grads)
    return float(squares / total), grads


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
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


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
            del grads  # not held through the next step
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    # The loss check runs before each step, so it cannot see the last one;
    # a parameter past float32's range would reach the checkpoint as inf.
    limit = np.finfo(np.float32).max
    if not all(np.all(np.abs(p) <= limit) for p in params):
        raise DivergenceError("parameters non-finite or beyond float32 range "
                              f"after the last step of epoch {epoch}")
    return trace


class _PathEntry:
    """An `otcfm_loss_and_grad` batch entry for item `j` at `tau`: unpacking
    it reads the item and samples its path state and target velocity, so
    these float64 arrays live only while the step writes them. `entry[0]`
    stands for x_tau by its length only, which is what sizes the batch."""

    def __init__(self, dataset, j: int, embedded: tuple, tau: float,
                 seed: int, pp: flowpath.PathParams):
        self.dataset, self.j, self.tau, self.seed, self.pp = (dataset, j, tau,
                                                              seed, pp)
        self.e_embed, self.n = embedded

    def __getitem__(self, k):  # entry[0] is x_tau's length; entry[1] raises
        return (range(self.n),)[k]

    def __iter__(self):
        item = self.dataset[self.j]
        b, s1 = item.b.samples, item.s1.samples
        del item  # its enrollment waveform is not read
        state = flowpath.sample_path_state(b, s1, self.tau, self.pp,
                                           seed=self.seed)
        return iter((state.x, self.e_embed, self.tau,
                     flowpath.target_velocity(state, b, s1, self.pp)))


def train_velocity(net: VelocityNet, dataset, config: TrainConfig,
                   path_params: flowpath.PathParams | None = None):
    """Train the velocity field on a sequence of MixtureItems; returns
    (net, loss_trace).

    The net's weights and biases are first cast to float32, the dtype its
    checkpoint stores, so training computes in float32 and leaves `net`
    float32; the enrollment projection stays as it is. One pass over the
    items takes their enrollment embeddings and lengths, and every step
    uses the fit's one set of step buffers, one block of `_BLOCK_ROWS`
    rows. Per step a fresh tau ~ U[0,1] and path seed are drawn per item,
    and the step reads its items one at a time as it fills its blocks: each
    item's path state is re-sampled, and it and the closed-form target
    velocity are written into the buffers and dropped once the item's last
    frame is written.
    """
    pp = path_params or flowpath.PathParams()
    net.weights = [w.astype(np.float32) for w in net.weights]
    net.biases = [b.astype(np.float32) for b in net.biases]
    embedded = [(embed_enrollment(item.e, net), len(item.b))
                for item in dataset]
    buffers = _StepBuffers(net)

    def loss_and_grad(idx, rng):
        batch = [_PathEntry(dataset, j, embedded[j], float(rng.uniform()),
                            int(rng.integers(0, 2 ** 31)), pp) for j in idx]
        return otcfm_loss_and_grad(net, batch, buffers=buffers)

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
