import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from adflow.errors import ParameterError, ShapeError
from adflow.flowpath import PathParams, sample_path_state, target_velocity
from adflow.signal import DatasetConfig, Waveform, make_dataset, mix
from adflow import signal, velnet
from adflow.velnet import (AdamW, TrainConfig, VelocityNet, _build_rows,
                           clip_gradients, embed_enrollment, embed_tau,
                           load_velnet, lr_for_epoch,
                           otcfm_loss_and_grad, save_velnet, stats_features,
                           train_velocity, velocity_signal)

CFG = DatasetConfig(duration_s=0.125)


def tiny_net(seed=0):
    return VelocityNet.create(seed, frame_len=8, hidden_dims=(10,),
                              tau_embed_dim=4, enroll_embed_dim=4)


def frame_signal(x, frame_len):
    """Non-overlapping frames of x, the tail zero-padded: the framing that
    velnet's rows and targets use."""
    x = np.asarray(x, dtype=np.float64)
    padded = np.zeros(max(1, -(-x.size // frame_len)) * frame_len)
    padded[:x.size] = x
    return padded.reshape(-1, frame_len)


def as_float32(net):
    """The same net with float32 weights and biases, as a checkpoint loads."""
    return dataclasses.replace(
        net, weights=[w.astype(np.float32) for w in net.weights],
        biases=[b.astype(np.float32) for b in net.biases])


# ---------------------------------------------------------------------------
# Embeddings

def test_embed_tau_at_zero():
    v = embed_tau(0.0, 16)
    assert np.array_equal(v[:8], np.zeros(8))
    assert np.array_equal(v[8:], np.ones(8))


def test_embed_tau_length_and_distance():
    assert embed_tau(0.5, 16).size == 16
    assert np.linalg.norm(embed_tau(0.3, 16) - embed_tau(0.7, 16)) > 0.1


def test_embed_tau_rejects_odd_dim():
    with pytest.raises(ParameterError):
        embed_tau(0.5, 15)


@pytest.mark.parametrize("tau", [-0.1, 1.5])
def test_embed_tau_rejects_tau_outside_unit_interval(tau):
    with pytest.raises(ParameterError, match="tau must lie"):
        embed_tau(tau, 16)


def test_embed_tau_zero_width():
    v = embed_tau(0.3, 0)
    assert v.shape == (0,) and v.dtype == np.float64


def test_embed_enrollment_zero_width(tmp_path):
    # the (0, feat_dim) projection gives the empty embedding, for a new net
    # and for one loaded with its float32 tensors
    net = VelocityNet.create(0, enroll_embed_dim=0)
    save_velnet(tmp_path / "v.ckpt", net)
    e = make_dataset(1, 0.125, CFG, seed=1)[0].e
    for n in (net, load_velnet(tmp_path / "v.ckpt")):
        v = embed_enrollment(e, n)
        assert v.shape == (0,) and v.dtype == np.float64


def test_enrollment_embedding_identity_separation():
    # Two draws of the same identity should be closer (cosine) than draws
    # from different identities, on average.
    net = VelocityNet.create(0)
    items = make_dataset(50, 0.5, CFG, seed=3)

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    same, cross = [], []
    embeds = [(embed_enrollment(it.s1, net), embed_enrollment(it.e, net))
              for it in items]
    for i, (a1, a2) in enumerate(embeds):
        same.append(cos(a1, a2))
        b1, _ = embeds[(i + 1) % len(embeds)]
        cross.append(cos(a1, b1))
    assert np.mean(same) > np.mean(cross)


def test_enrollment_embedding_deterministic_and_finite():
    net = VelocityNet.create(0)
    w = make_dataset(1, 0.5, CFG, seed=1)[0].e
    assert np.array_equal(embed_enrollment(w, net), embed_enrollment(w, net))
    z = embed_enrollment(Waveform(np.zeros(2000)), net)
    assert np.all(np.isfinite(z))


def test_stats_features_finite_on_zero_signal():
    f = stats_features(Waveform(np.zeros(2000)))
    assert np.all(np.isfinite(f))


def test_create_takes_settings_by_field_name_only():
    net = VelocityNet.create(0, hidden_dims=(10,), frame_len=8, feat_hop=32)
    assert (net.frame_len, net.feat_hop, net.layer_dims) == (8, 32,
                                                             [56, 10, 8])
    with pytest.raises(TypeError):
        VelocityNet.create(0, 8)  # no setting binds by position
    with pytest.raises(TypeError):
        VelocityNet.create(0, hidden_dim=10)  # not a field


# ---------------------------------------------------------------------------
# Framing and forward pass

def test_build_rows_pads_tail():
    net = VelocityNet(weights=[np.zeros((4, 12))], biases=[np.zeros(4)],
                      enroll_proj=np.zeros((0, 258)), frame_len=4,
                      tau_embed_dim=0, enroll_embed_dim=0)
    rows = _build_rows(net, np.arange(10.0), np.zeros(0), 0.5)
    assert rows.shape == (3, 12)
    assert np.array_equal(rows[2], [4, 5, 6, 7, 8, 9, 0, 0, 0, 0, 0, 0])


def test_build_rows_context_layout():
    net = VelocityNet(weights=[np.zeros((2, 6))], biases=[np.zeros(2)],
                      enroll_proj=np.zeros((0, 258)), frame_len=2,
                      tau_embed_dim=0, enroll_embed_dim=0)
    rows = _build_rows(net, np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(0), 0.5)
    assert np.array_equal(rows[0], [0, 0, 1, 2, 3, 4])
    assert np.array_equal(rows[1], [1, 2, 3, 4, 0, 0])


def _reference_rows(net, x, e_embed, tau):
    frames = frame_signal(x, net.frame_len)
    zero = np.zeros((1, net.frame_len))
    prev = np.vstack([zero, frames[:-1]])
    nxt = np.vstack([frames[1:], zero])
    n = frames.shape[0]
    te = embed_tau(tau, net.tau_embed_dim)
    return np.hstack([prev, frames, nxt, np.tile(e_embed, (n, 1)),
                      np.tile(te, (n, 1))])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, velnet.DEFAULT_FRAME_LEN - 1,
                               velnet.DEFAULT_FRAME_LEN, 8000, 8001])
def test_build_rows_matches_stacked_reference(n, dtype):
    net = VelocityNet.create(2)
    if dtype == np.float32:
        net = as_float32(net)
    rng = np.random.default_rng(n)
    x, e = rng.standard_normal(n), rng.standard_normal(16)
    rows = _build_rows(net, x, e, 0.37)
    assert rows.dtype == dtype
    assert np.array_equal(rows, _reference_rows(net, x, e, 0.37).astype(dtype))



def test_velocity_signal_zero_weights_zero_output():
    net = tiny_net()
    for w in net.weights:
        w[:] = 0.0
    out = velocity_signal(net, np.ones(24), np.ones(4), 0.5)
    assert np.array_equal(out, np.zeros(24))


def test_velocity_signal_finite_and_sensitive():
    net = tiny_net(1)
    rng = np.random.default_rng(0)
    x, e = rng.standard_normal(24), rng.standard_normal(4)
    out = velocity_signal(net, x, e, 0.3)
    assert np.all(np.isfinite(out))
    net.weights[0][0, 0] *= 2.0
    assert np.max(np.abs(velocity_signal(net, x, e, 0.3) - out)) > 0


def test_velocity_signal_dim_mismatch():
    # an enrollment embedding of the wrong size makes rows of the wrong width
    net = tiny_net()
    with pytest.raises(ShapeError):
        velocity_signal(net, np.ones(24), np.ones(3), 0.5)


def test_velocity_signal_truncates_to_input_length():
    net = tiny_net()
    x = np.random.default_rng(0).standard_normal(21)
    out = velocity_signal(net, x, np.zeros(4), 0.5)
    assert out.shape == (21,)


# ---------------------------------------------------------------------------
# Loss and gradients

def test_loss_zero_when_output_matches_target():
    # All-zero net outputs zero; zero target gives zero loss and gradients.
    net = tiny_net()
    for w in net.weights:
        w[:] = 0.0
    x = np.random.default_rng(0).standard_normal(16)
    loss, grads = otcfm_loss_and_grad(net, [(x, np.zeros(4), 0.5,
                                             np.zeros(16))])
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads)


def test_loss_hand_computed_single_linear_layer():
    # One linear layer over a single one-sample frame: input context is
    # [prev|cur|next] = [0, 1, 0], weight row zero, target 2.
    # loss = (0 - 2)^2 = 4; d loss / d w_center = 2*(0-2)*1 = -4.
    net = VelocityNet(weights=[np.zeros((1, 3))], biases=[np.zeros(1)],
                      enroll_proj=np.zeros((0, 258)), frame_len=1,
                      tau_embed_dim=0, enroll_embed_dim=0)
    loss, grads = otcfm_loss_and_grad(
        net, [(np.array([1.0]), np.zeros(0), 0.5, np.array([2.0]))])
    assert loss == 4.0
    assert np.array_equal(grads[0], [[0.0, -4.0, 0.0]])
    assert np.array_equal(grads[1], [-4.0])


def _batch(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal(n), rng.standard_normal(16),
             float(rng.uniform()), rng.standard_normal(n)) for n in lengths]


BATCH_LENGTHS = (1, velnet.DEFAULT_FRAME_LEN - 1, velnet.DEFAULT_FRAME_LEN,
                 8001)


def _reference_loss_and_grad(net, batch):
    """Per-item rows, targets and masks stacked with vstack and cut into
    blocks of 256 rows; each block takes an out-of-place forward and
    backward on new arrays, and the loss and gradients are summed in block
    order: what the step's reused blocks replace."""
    dtype = net.weights[0].dtype
    rows = np.vstack([_build_rows(net, x, e, tau) for x, e, tau, _ in batch])
    targets = np.vstack([frame_signal(u, net.frame_len)
                         for *_, u in batch]).astype(dtype)
    masks = np.vstack([frame_signal(np.ones(x.size), net.frame_len)
                       for x, *_ in batch]).astype(dtype)
    total = sum(x.size for x, *_ in batch)
    last = len(net.weights) - 1
    squares, grads = 0.0, None
    for start in range(0, len(rows), 256):
        block = slice(start, start + 256)
        acts = [rows[block]]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = acts[-1] @ w.T + b
            acts.append(z if i == last else np.tanh(z))
        diff = (acts[-1] - targets[block]) * masks[block]
        squares = squares + np.sum(diff ** 2)
        dz = 2.0 * diff / total
        block_grads = [None] * (2 * len(net.weights))
        for i in range(last, -1, -1):
            block_grads[2 * i] = dz.T @ acts[i]
            block_grads[2 * i + 1] = dz.sum(axis=0)
            if i > 0:
                dz = (dz @ net.weights[i]) * (1.0 - acts[i] ** 2)
        grads = block_grads if grads is None else \
            [g + d for g, d in zip(grads, block_grads)]
    return float(squares / total), grads


def test_loss_and_grad_byte_identical_to_stacked_reference():
    net = VelocityNet.create(5)
    batch = _batch(BATCH_LENGTHS)
    loss, grads = otcfm_loss_and_grad(net, batch)
    ref_loss, ref_grads = _reference_loss_and_grad(net, batch)
    assert loss == ref_loss
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        assert g.dtype == np.float64
        assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_matrix_equals_stacked_rows(monkeypatch, dtype):
    net = VelocityNet.create(6)
    if dtype == np.float32:
        net = as_float32(net)
    batch = _batch(BATCH_LENGTHS, seed=1)
    seen = []
    real_forward = velnet._forward

    def recording_forward(net, rows, *outs):
        seen.append(rows.copy())
        return real_forward(net, rows, *outs)

    monkeypatch.setattr(velnet, "_forward", recording_forward)
    _, grads = otcfm_loss_and_grad(net, batch)
    stacked = np.vstack([_build_rows(net, x, e, tau) for x, e, tau, _ in batch])
    assert len(seen) == 1
    assert seen[0].dtype == dtype
    assert np.array_equal(seen[0], stacked)
    assert all(g.dtype == dtype for g in grads)


def test_loss_and_grad_peak_memory():
    # One float32 step on 16 items of 8,000 samples (2,000 rows) may hold
    # its rows, targets, mask and every activation, plus one more of the
    # widest activation, and nothing else of that size. numpy reports its
    # buffers to tracemalloc, so the peak repeats exactly.
    net = as_float32(VelocityNet.create(0))
    batch = _batch([8000] * 16)
    n_rows = 16 * -(-8000 // net.frame_len)
    dims = net.layer_dims
    bound = n_rows * 4 * (dims[0] + 2 * net.frame_len + sum(dims[1:])
                          + max(dims[1:]))
    tracemalloc.start()
    try:
        otcfm_loss_and_grad(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_loss_and_grad_sums_blocks_of_256_rows(dtype):
    # 567 rows in three blocks: the 20,000-sample item's 313 frames take
    # the last 3 rows of the first block, all of the second and 54 rows of
    # the third. One set of buffers runs padded, unpadded and padded
    # batches; new ones run each batch too.
    net = VelocityNet.create(5)
    if dtype == np.float32:
        net = as_float32(net)
    buffers = velnet._StepBuffers(net)
    padded, unpadded = (8001, 8000, 1, 63, 20000, 64), \
        (8000, 8000, 64, 128, 20032, 64)
    for k, lengths in enumerate((padded, unpadded, padded)):
        batch = _batch(lengths, seed=k)
        ref_loss, ref_grads = _reference_loss_and_grad(net, batch)
        for buf in (buffers, None):
            loss, grads = otcfm_loss_and_grad(net, batch, buffers=buf)
            assert loss == ref_loss
            assert all(g.dtype == dtype for g in grads)
            assert [g.tobytes() for g in grads] == \
                [g.tobytes() for g in ref_grads]


def test_loss_and_grad_peak_memory_is_set_by_the_block():
    # one float32 step on 16 items of 32,000 samples (8,000 rows) holds one
    # 256-row block's operands and partial products, one item's float64
    # x_tau and u_target, and four times the parameters, however long the
    # items are
    net = as_float32(VelocityNet.create(0))
    batch = _batch([32000] * 16)
    dims = net.layer_dims
    params = sum(p.size for p in net.parameters())
    block = 256 * (dims[0] + net.frame_len + sum(dims[1:]) + max(dims[1:-1]))
    bound = 4 * (block + params) + 2 * 8 * 32000 + 4 * 4 * params
    tracemalloc.start()
    try:
        otcfm_loss_and_grad(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)


def test_loss_and_grad_rejects_mismatched_lengths():
    net = tiny_net()
    with pytest.raises(ShapeError):
        otcfm_loss_and_grad(net, [(np.ones(24), np.ones(4), 0.5, np.ones(23))])


def test_reused_operands_give_the_bytes_of_new_ones():
    # one set of operands through batches with and without padded frames:
    # a stale padded tail in the reused targets would change the bytes
    net = as_float32(VelocityNet.create(7))
    unpadded, padded = (8000, 64, 128), (8001, 63, 1, 8002)
    buffers = velnet._StepBuffers(net)
    for k, lengths in enumerate((unpadded, padded, unpadded, padded)):
        batch = _batch(lengths, seed=k)
        loss, grads = otcfm_loss_and_grad(net, batch, buffers=buffers)
        new_loss, new_grads = otcfm_loss_and_grad(net, batch)
        assert loss == new_loss
        assert [g.tobytes() for g in grads] == \
            [g.tobytes() for g in new_grads]


def _grad_check(seed, h=1e-4):
    rng = np.random.default_rng(seed)
    net = tiny_net(seed)
    batch = [(rng.standard_normal(20), rng.standard_normal(4),
              float(rng.uniform()), rng.standard_normal(20))
             for _ in range(3)]
    _, grads = otcfm_loss_and_grad(net, batch)
    worst = 0.0
    for p, g in zip(net.parameters(), grads):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            hi, _ = otcfm_loss_and_grad(net, batch)
            flat_p[i] = orig - h
            lo, _ = otcfm_loss_and_grad(net, batch)
            flat_p[i] = orig
            fd = (hi - lo) / (2 * h)
            rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]), abs(fd), 1e-4)
            worst = max(worst, rel)
    return worst


def test_gradient_matches_finite_difference():
    assert _grad_check(0) < 1e-3


# ---------------------------------------------------------------------------
# Optimizer and schedule

def test_lr_schedule_values():
    cfg = TrainConfig()
    assert lr_for_epoch(cfg, 0) == pytest.approx(cfg.lr_init / 5)
    assert lr_for_epoch(cfg, 4) == pytest.approx(cfg.lr_init)
    assert lr_for_epoch(cfg, 5) == pytest.approx(cfg.lr_init)
    mid = lr_for_epoch(cfg, 5 + 25)
    assert mid == pytest.approx(cfg.lr_min + 0.5 * (cfg.lr_init - cfg.lr_min))
    assert lr_for_epoch(cfg, 5 + 50) == pytest.approx(cfg.lr_min)
    assert lr_for_epoch(cfg, 500) == pytest.approx(cfg.lr_min)  # held flat


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_clip_gradients_keeps_dtype(dtype):
    grads = [np.full(4, 3.0, dtype=dtype), np.full(9, 4.0, dtype=dtype)]
    clipped, norm = clip_gradients(grads, 0.5)
    assert norm > 0.5
    assert all(g.dtype == dtype for g in clipped)
    assert clipped[0].tobytes() == (grads[0] * dtype(0.5 / norm)).tobytes()


def test_clip_gradients_global_norm():
    grads = [np.full(4, 3.0), np.full(9, 4.0)]
    clipped, norm = clip_gradients(grads, 0.5)
    total = np.sqrt(sum(np.sum(g ** 2) for g in clipped))
    assert total <= 0.5 + 1e-9
    small = [np.full(2, 0.01)]
    same, _ = clip_gradients(small, 0.5)
    assert np.array_equal(same[0], small[0])


def test_weight_decay_is_decoupled():
    # With zero gradients the weights still shrink by exactly lr*decay.
    p = np.full((2, 2), 1.0)
    opt = AdamW([p], weight_decay=0.01)
    opt.step([p], [np.zeros((2, 2))], lr=0.1)
    assert np.allclose(p, 1.0 - 0.1 * 0.01, atol=1e-15)


def test_bias_exempt_from_weight_decay():
    b = np.full(3, 1.0)
    opt = AdamW([b], weight_decay=0.01)
    opt.step([b], [np.zeros(3)], lr=0.1)
    assert np.array_equal(b, np.full(3, 1.0))


def _reference_adamw(params, grads_per_step, lrs, weight_decay=0.01,
                     b1=0.9, b2=0.999, eps=1e-8):
    """AdamW with a fresh temporary for every intermediate."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, (grads, lr) in enumerate(zip(grads_per_step, lrs), start=1):
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            if p.ndim >= 2 and weight_decay > 0:
                p *= 1.0 - lr * weight_decay
            mi *= b1
            mi += (1 - b1) * g
            vi *= b2
            vi += (1 - b2) * g ** 2
            p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_step_matches_fresh_temporaries(dtype):
    rng = np.random.default_rng(3)
    shapes = [(16, 40), (16,), (3, 16), (3,), (1,)]
    params = [rng.normal(size=s).astype(dtype) for s in shapes]
    steps = [[(rng.normal(size=s) * 10.0 ** rng.integers(-6, 2))
              .astype(dtype) for s in shapes] for _ in range(50)]
    lrs = [float(lr) for lr in rng.uniform(1e-5, 1e-2, size=50)]
    ref = [p.copy() for p in params]
    ref_m, ref_v = _reference_adamw(ref, steps, lrs)
    opt = AdamW(params, weight_decay=0.01)
    for grads, lr in zip(steps, lrs):
        opt.step(params, grads, lr)
    for got, want in zip([*params, *opt.m, *opt.v], [*ref, *ref_m, *ref_v]):
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr_init=1e-5, lr_min=1e-4)
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(grad_clip=0.0)
    with pytest.raises(ParameterError, match="seed"):
        TrainConfig(seed=-1)


# ---------------------------------------------------------------------------
# Training

def test_training_reduces_loss():
    items = make_dataset(200, "uniform", CFG, seed=5)
    net = VelocityNet.create(0)
    cfg = TrainConfig(lr_init=1e-3, lr_min=1e-4, epochs=50, batch_size=32,
                      seed=0)
    _, trace = train_velocity(net, items, cfg)
    losses = [loss for _, loss in trace]
    assert len(losses) == 50
    assert losses[-1] < losses[0]


def test_training_runs_in_float32(monkeypatch):
    items = make_dataset(6, "uniform", CFG, seed=8)
    net = VelocityNet.create(2)
    steps = []
    real_step = AdamW.step

    def recording_step(self, params, grads, lr):
        steps.append([a.dtype for a in (*params, *grads, *self.m, *self.v)])
        assert type(lr) is float  # a NumPy scalar would upcast the step
        return real_step(self, params, grads, lr)

    monkeypatch.setattr(AdamW, "step", recording_step)
    # a tiny clip norm makes every step go through the clipping scale
    cfg = TrainConfig(epochs=2, batch_size=4, grad_clip=1e-6, seed=0)
    trained, trace = train_velocity(net, items, cfg)
    assert trained is net
    assert all(p.dtype == np.float32 for p in net.parameters())
    assert net.enroll_proj.dtype == np.float64
    assert len(steps) == 4
    assert all(d == np.float32 for dtypes in steps for d in dtypes)
    assert all(np.isfinite(loss) for _, loss in trace)


def test_training_never_mixes_x(monkeypatch):
    # the velocity field learns on the b -> s1 path and never reads x
    items = make_dataset(4, "uniform", CFG, seed=7)
    mixed = []
    monkeypatch.setattr(signal, "mix", lambda *args: mixed.append(args))
    train_velocity(VelocityNet.create(0), items, TrainConfig(epochs=1, seed=0))
    assert mixed == []


def test_training_deterministic():
    items = make_dataset(8, "uniform", CFG, seed=6)
    traces = []
    for _ in range(2):
        net = VelocityNet.create(3)
        _, trace = train_velocity(net, items, TrainConfig(epochs=3, seed=11))
        traces.append(trace)
    assert traces[0] == traces[1]


def _fresh_batch_train_velocity(net, dataset, config, pp):
    """`train_velocity` as one list per step of every item's float64 path
    state and target, then one `otcfm_loss_and_grad` call on new
    operands."""
    net.weights = [w.astype(np.float32) for w in net.weights]
    net.biases = [b.astype(np.float32) for b in net.biases]
    e_embeds = [embed_enrollment(item.e, net) for item in dataset]

    def loss_and_grad(idx, rng):
        batch = []
        for j in idx:
            b, s1 = dataset[j].b.samples, dataset[j].s1.samples
            tau = float(rng.uniform())
            state = sample_path_state(b, s1, tau, pp,
                                      seed=int(rng.integers(0, 2 ** 31)))
            batch.append((state.x, e_embeds[j], tau,
                          target_velocity(state, b, s1, pp)))
        return otcfm_loss_and_grad(net, batch)

    return velnet.fit(net.parameters(), len(dataset), config, loss_and_grad)


@pytest.mark.parametrize("kind", ["stored_8000", "stored_8002",
                                  "mixed_list"])
def test_training_matches_a_fresh_batch_per_step(tmp_path, kind):
    # streamed items and operands reused across steps give the bytes of a
    # batch built whole each step; 0.5001 s is 8,002 samples, whose last
    # frame is padded
    if kind == "mixed_list":
        items, pp = [], PathParams(0.01, 0.1)
        for k, duration in enumerate((0.125, 0.25, 0.1001)):
            items += make_dataset(3, "uniform",
                                  DatasetConfig(duration_s=duration), seed=k)
    else:
        items, pp = make_dataset(
            10, "uniform", DatasetConfig(duration_s=0.5 if kind.endswith(
                "8000") else 0.5001), seed=4, store=tmp_path / "set.adfd"), \
            PathParams()
    cfg = TrainConfig(epochs=3, batch_size=4, seed=2)
    net, trace = train_velocity(VelocityNet.create(3), items, cfg, pp)
    ref = VelocityNet.create(3)
    assert trace == _fresh_batch_train_velocity(ref, items, cfg, pp)
    assert [p.tobytes() for p in net.parameters()] == \
        [p.tobytes() for p in ref.parameters()]


def test_fit_drops_each_steps_gradients():
    # a step's gradients are not held through the next step's forward and
    # backward
    applied = []

    def loss_and_grad(idx, rng):
        assert all(ref() is None for ref in applied)
        grad = np.ones(3)
        applied.append(weakref.ref(grad))
        return 1.0, [grad]

    velnet.fit([np.zeros(3)], 4, TrainConfig(batch_size=1, epochs=1,
                                             grad_clip=10.0), loss_and_grad)
    assert len(applied) == 4


def test_fit_records_each_epochs_applied_lr_and_mean_loss(monkeypatch):
    applied, real_step = [], AdamW.step

    def recording_step(self, params, grads, lr):
        applied.append(lr)
        return real_step(self, params, grads, lr)

    monkeypatch.setattr(AdamW, "step", recording_step)
    # two steps per epoch, whose losses (the sums of the item indices) have
    # the mean 3, through warmup, annealing and the held lr_min
    cfg = TrainConfig(lr_init=1e-2, lr_min=1e-3, warmup_epochs=2,
                      t_max_epochs=3, batch_size=2, epochs=7, grad_clip=10.0)
    trace = velnet.fit([np.zeros(3)], 4, cfg, lambda idx, rng: (
        float(np.sum(idx)), [np.ones(3)]))
    assert applied[0::2] == applied[1::2]
    assert [lr for lr, _ in trace] == applied[0::2] == \
        [lr_for_epoch(cfg, epoch) for epoch in range(7)]
    assert [loss for _, loss in trace] == [3.0] * 7


def test_single_pair_convergence_predicts_difference():
    # Deterministic path: the regression target is the constant s1 - b, so a
    # net trained to convergence on one fixed pair must reproduce it
    # everywhere along the trajectory.
    item = make_dataset(1, "uniform", CFG, seed=3)[0]
    net = VelocityNet.create(1)
    cfg = TrainConfig(lr_init=1e-2, lr_min=1e-8, warmup_epochs=5,
                      t_max_epochs=15995, weight_decay=0.0, epochs=16000,
                      batch_size=4, seed=0)
    net, _ = train_velocity(net, [item] * 4, cfg)
    d = item.s1.samples - item.b.samples
    e_embed = embed_enrollment(item.e, net)
    for tau in (0.0, 0.25, 0.5, 0.75, 0.95):
        x_tau = mix(item.s1, item.b, tau).samples
        pred = velocity_signal(net, x_tau, e_embed, tau)
        assert np.max(np.abs(pred - d)) < 1e-2


def test_training_with_noisy_path_runs():
    items = make_dataset(4, "uniform", CFG, seed=7)
    net = VelocityNet.create(0)
    _, trace = train_velocity(net, items, TrainConfig(epochs=2, seed=0),
                              PathParams(0.01, 0.1))
    assert all(np.isfinite(loss) for _, loss in trace)


# ---------------------------------------------------------------------------
# Checkpoints

def test_checkpoint_roundtrip(tmp_path):
    net = velnet.VelocityNet.create(4)
    path = tmp_path / "velnet.ckpt"
    save_velnet(path, net)
    back = load_velnet(path)
    assert back.layer_dims == net.layer_dims
    assert back.frame_len == net.frame_len
    # tensors survive the float32 on-disk format
    for a, b in zip(net.parameters(), back.parameters()):
        assert np.allclose(a, b, atol=1e-6)
    rng = np.random.default_rng(0)
    x, e = rng.standard_normal(200), rng.standard_normal(16)
    a = velocity_signal(net, x, e, 0.4)
    b = velocity_signal(back, x, e, 0.4)
    assert np.allclose(a, b, atol=1e-5)


def test_loaded_net_computes_in_float32(tmp_path):
    net = velnet.VelocityNet.create(4)
    assert all(p.dtype == np.float64 for p in net.parameters())
    rng = np.random.default_rng(0)
    x, e = rng.standard_normal(200), rng.standard_normal(16)
    assert velocity_signal(net, x, e, 0.4).dtype == np.float64
    save_velnet(tmp_path / "velnet.ckpt", net)
    back = load_velnet(tmp_path / "velnet.ckpt")
    assert all(p.dtype == np.float32 for p in back.parameters())
    assert velocity_signal(back, x, e, 0.4).dtype == np.float32
    with pytest.raises(ShapeError):
        velocity_signal(back, x, e[:15], 0.4)


def test_loaded_velnet_tensors_are_views_of_its_payload(tmp_path,
                                                        monkeypatch):
    # the kept payload is the one copy of the weights a loaded net holds
    path = tmp_path / "v.ckpt"
    save_velnet(path, VelocityNet.create(5))
    monkeypatch.setattr(signal, "_kept_checkpoints", {})
    tracemalloc.start()
    try:
        net = load_velnet(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    payload = np.frombuffer(signal._kept_checkpoints[velnet._VEL_HEADER][1],
                            np.uint8)
    tensors = net.parameters() + [net.enroll_proj]
    assert all(t.dtype == np.float32 and not t.flags.writeable
               and np.shares_memory(t, payload) for t in tensors)
    assert held < 1.25 * path.stat().st_size, held


def test_byte_equal_checkpoints_parsed_once(tmp_path, monkeypatch):
    # three files with equal bytes: the tensors are parsed for the first
    # and shared, read-only, by every net; each load is a new net object
    net = VelocityNet.create(41)
    paths = [tmp_path / f"v{i}.ckpt" for i in range(3)]
    for path in paths:
        save_velnet(path, net)
    monkeypatch.setattr(signal, "_kept_checkpoints", {})
    parsed, real = [], signal._parse_tensor
    monkeypatch.setattr(signal, "_parse_tensor", lambda buf, pos=0, shape=None:
                        parsed.append(shape) or real(buf, pos, shape))
    nets = [load_velnet(path) for path in paths]
    assert len(parsed) == len(net.parameters()) + 1  # and the projection
    a, b, c = nets
    assert a is not b and a.weights is not b.weights
    assert all(p is q for p, q in zip(a.parameters(), c.parameters()))
    with pytest.raises(ValueError):
        a.weights[0][0, 0] = 0.0
    a.weights[0] = np.zeros_like(a.weights[0])
    a.frame_len = 3
    d = load_velnet(paths[0])
    assert d.weights[0] is b.weights[0] and d.frame_len == net.frame_len
