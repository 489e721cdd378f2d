import gc
import io
import os
import re
import struct
import sys
import tracemalloc
import warnings
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.lib.stride_tricks import sliding_window_view

from adflow import signal
from adflow.errors import FileFormatError, ParameterError, ShapeError
from adflow.signal import (DatasetConfig, MixtureSpec, SpeakerIdentity,
                           Waveform, hann_window, istft, make_dataset, mix,
                           random_identity, read_tensor, read_wav, stft,
                           synth_background, synth_source, write_tensor,
                           write_tensor_stream, write_wav)

SR = 16000


def ident(seed):
    return random_identity(np.random.default_rng(seed))


def _rms(w):
    return np.sqrt(np.mean(w.samples ** 2))


# ---------------------------------------------------------------------------
# Waveform / SpeakerIdentity validation

def test_waveform_rejects_empty_and_nonfinite():
    with pytest.raises(ParameterError):
        Waveform(np.zeros(0))
    with pytest.raises(ParameterError):
        Waveform(np.array([1.0, np.nan]))
    with pytest.raises(ParameterError):
        Waveform(np.array([np.inf]))
    with pytest.raises(ParameterError):
        Waveform(np.ones(4), sample_rate_hz=0)


def test_waveform_mismatch_raises_shape_error():
    a = Waveform(np.ones(8))
    with pytest.raises(ShapeError):
        mix(a, Waveform(np.ones(9)), 0.5)
    with pytest.raises(ShapeError):
        mix(a, Waveform(np.ones(8), sample_rate_hz=8000), 0.5)


def test_identity_validation():
    with pytest.raises(ParameterError):
        SpeakerIdentity(50.0, (0.5, 0.5), 5.0, 0.01, 1)
    with pytest.raises(ParameterError):
        SpeakerIdentity(200.0, (1.0,), 5.0, 0.01, 1)
    with pytest.raises(ParameterError):
        SpeakerIdentity(200.0, (0.7, 0.7), 5.0, 0.01, 1)
    with pytest.raises(ParameterError):
        SpeakerIdentity(200.0, (0.5, 0.5), 5.0, 0.2, 1)
    with pytest.raises(ParameterError, match="non-negative"):
        SpeakerIdentity(200.0, (1.5, -0.5), 5.0, 0.01, 1)
    with pytest.raises(ParameterError, match="vibrato rate"):
        SpeakerIdentity(200.0, (0.5, 0.5), -1.0, 0.01, 1)


def test_random_identities_differ():
    rng = np.random.default_rng(0)
    a, b = random_identity(rng), random_identity(rng)
    assert a != b


# ---------------------------------------------------------------------------
# synth_source

def test_synth_source_deterministic():
    a = synth_source(ident(7), 0.25, SR, seed=7)
    b = synth_source(ident(7), 0.25, SR, seed=7)
    assert np.array_equal(a.samples, b.samples)


def test_synth_source_unit_rms():
    for seed in range(5):
        w = synth_source(ident(seed), 0.25, SR, seed=seed)
        assert abs(_rms(w) - 1.0) < 1e-6


def test_synth_source_distinct_identities_decorrelate():
    a = synth_source(ident(1), 0.5, SR, seed=3)
    b = synth_source(ident(2), 0.5, SR, seed=3)
    rho = np.corrcoef(a.samples, b.samples)[0, 1]
    assert abs(rho) < 0.5


def test_synth_source_without_vibrato():
    # rate 0 takes the plain phase, which a depth of 0 gives as well
    still = SpeakerIdentity(200.0, (0.5, 0.5), 0.0, 0.01, 1)
    flat = SpeakerIdentity(200.0, (0.5, 0.5), 5.0, 0.0, 1)
    w = synth_source(still, 0.25, SR, seed=3)
    assert abs(_rms(w) - 1.0) < 1e-9
    assert np.array_equal(w.samples, synth_source(flat, 0.25, SR,
                                                  seed=3).samples)


def test_synth_source_rejects_bad_duration():
    with pytest.raises(ParameterError):
        synth_source(ident(0), 0.0, SR)
    with pytest.raises(ParameterError):
        synth_source(ident(0), -1.0, SR)


def _reference_source(identity, duration_s, seed):
    """synth_source in closed form, with the same draws in the same order:
    one np.sin per harmonic, and the envelope through np.interp."""
    n = round(duration_s * SR)
    rng = np.random.default_rng([identity.id_seed, seed & 0x7FFFFFFF])
    t = np.arange(n) / SR
    f0, rate, depth = (identity.fundamental_hz, identity.vibrato_rate_hz,
                       identity.vibrato_depth)
    phase = 2 * np.pi * f0 * t
    if rate > 0:
        phase = 2 * np.pi * f0 * (t + depth * (
            1.0 - np.cos(2 * np.pi * rate * t)) / (2 * np.pi * rate))
    sig = sum(amp * np.sin(k * phase + rng.uniform(0.0, 2 * np.pi))
              for k, amp in enumerate(identity.harmonic_amps, start=1))
    n_ctrl = max(4, int(duration_s * 6) + 2)
    ctrl = rng.normal(size=n_ctrl)
    sig = sig * np.exp(0.3 * np.interp(np.linspace(0, 1, n),
                                       np.linspace(0, 1, n_ctrl), ctrl))
    return sig / np.sqrt(np.mean(sig ** 2))


@st.composite
def _identities(draw):
    raw = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=2,
                                 max_size=6)))
    amps = raw / raw.sum()
    return SpeakerIdentity(
        fundamental_hz=draw(st.floats(80.0, 400.0)),
        harmonic_amps=tuple(amps / amps.sum()),
        vibrato_rate_hz=draw(st.one_of(st.just(0.0), st.floats(0.0, 8.0))),
        vibrato_depth=draw(st.floats(0.0, 0.05)),
        id_seed=draw(st.integers(0, 2 ** 31 - 1)))


# 3 and 4 samples are n_ctrl - 1 and n_ctrl at their durations; 8,000 and
# 8,002 are the lengths of 0.5 s and 0.5001 s
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(_identities(), st.sampled_from([1, 2, 3, 4, 8000, 8002]),
       st.integers(0, 2 ** 32 - 1))
def test_synth_source_matches_closed_form(identity, n, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = synth_source(identity, n / SR, SR, seed)
    assert len(w) == n
    assert np.max(np.abs(w.samples - _reference_source(identity, n / SR,
                                                       seed))) <= 1e-10
    assert abs(_rms(w) - 1.0) <= 1e-9


@pytest.mark.parametrize("duration_s", [0.125, 0.5001])
def test_synth_item_sources_equal_synth_source(duration_s):
    # s1 and e share one phasor; each is still exactly its own synth_source
    cfg = DatasetConfig(duration_s=duration_s)
    rng = np.random.default_rng(2)
    for _ in range(4):
        plan = signal._draw_item(rng, None)
        spec, src_seed, enr_seed, _ = plan
        s1, e, _ = signal._synth_item(plan, cfg)
        for w, seed in ((s1, src_seed), (e, enr_seed)):
            assert w.samples.tobytes() == synth_source(
                spec.target, duration_s, SR, seed).samples.tobytes()


# ---------------------------------------------------------------------------
# synth_background

def _spec(noise_w, interferers, tau=0.5):
    return MixtureSpec(target=ident(99), interferers=interferers,
                       noise_weight=noise_w, tau=tau)


def test_mixture_spec_rejects_negative_weights():
    with pytest.raises(ParameterError, match="non-negative"):
        _spec(-1.0, ((ident(5), 1.0),))
    with pytest.raises(ParameterError, match="non-negative"):
        _spec(1.0, ((ident(5), -0.5),))


def test_background_rejects_bad_duration():
    with pytest.raises(ParameterError, match="duration"):
        synth_background(_spec(1.0, ()), 0.0, SR)


def test_background_noise_only_unit_rms():
    w = synth_background(_spec(1.0, ()), 0.25, SR, seed=4)
    assert abs(_rms(w) - 1.0) < 1e-9
    # white noise: spectrally flat-ish, not dominated by any single bin
    mag = np.abs(np.fft.rfft(w.samples))
    assert mag.max() ** 2 / np.sum(mag ** 2) < 0.05


def test_background_single_interferer_equals_that_source():
    who = ident(5)
    w = synth_background(_spec(0.0, ((who, 1.0),)), 0.25, SR, seed=11)
    src = synth_source(who, 0.25, SR, seed=(11 * 8191 + 101) & 0x7FFFFFFF)
    assert np.allclose(w.samples, src.samples, atol=1e-12)


def test_background_blend_unit_rms_and_distinct():
    who = ident(6)
    blend = synth_background(_spec(0.5, ((who, 0.5),)), 0.25, SR, seed=2)
    noise = synth_background(_spec(1.0, ()), 0.25, SR, seed=2)
    src = synth_background(_spec(0.0, ((who, 1.0),)), 0.25, SR, seed=2)
    assert abs(_rms(blend) - 1.0) < 1e-6
    assert not np.allclose(blend.samples, noise.samples)
    assert not np.allclose(blend.samples, src.samples)


def test_background_all_zero_weights_rejected():
    with pytest.raises(ParameterError):
        _spec(0.0, ())


# ---------------------------------------------------------------------------
# mix

def test_mix_endpoints_exact():
    s1 = synth_source(ident(1), 0.1, SR, seed=0)
    b = synth_background(_spec(1.0, ()), 0.1, SR, seed=0)
    assert np.array_equal(mix(s1, b, 1.0).samples, s1.samples)
    assert np.array_equal(mix(s1, b, 0.0).samples, b.samples)


def test_mix_arithmetic():
    s1 = Waveform(np.array([1.0, 1.0]))
    b = Waveform(np.array([0.0, 2.0]))
    assert np.array_equal(mix(s1, b, 0.5).samples, np.array([0.5, 1.5]))


def test_mix_rejects_bad_tau():
    w = Waveform(np.ones(4))
    for tau in (-0.1, 1.1):
        with pytest.raises(ParameterError):
            mix(w, w, tau)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_mix_linearity(tau, seed):
    rng = np.random.default_rng(seed)
    s1 = Waveform(rng.standard_normal(64))
    b = Waveform(rng.standard_normal(64))
    lhs = mix(s1, b, tau).samples - b.samples
    rhs = tau * (s1.samples - b.samples)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# make_dataset

CFG = DatasetConfig(duration_s=0.125)


def test_make_dataset_fixed_tau():
    items = make_dataset(4, 0.5, CFG, seed=1)
    assert len(items) == 4
    assert all(item.tau == 0.5 for item in items)


def test_make_dataset_uniform_tau_mean():
    items = make_dataset(1000, "uniform", CFG, seed=2)
    mean = np.mean([item.tau for item in items])
    assert 0.45 <= mean <= 0.55


def test_make_dataset_deterministic():
    a = make_dataset(3, "uniform", CFG, seed=9)
    b = make_dataset(3, "uniform", CFG, seed=9)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.x.samples, ib.x.samples)
        assert np.array_equal(ia.e.samples, ib.e.samples)
        assert ia.tau == ib.tau


def test_make_dataset_mixture_consistent():
    # x is mixed on every read, byte for byte as `mix` does, and never kept
    for item in make_dataset(3, "uniform", CFG, seed=4):
        x = item.x
        expect = mix(item.s1, item.b, item.tau)
        assert x.samples.tobytes() == expect.samples.tobytes()
        assert "x" not in vars(item)


@pytest.mark.parametrize("duration_s, rate, match", [
    (0.125, 0, "sample_rate_hz=0 is below 1"),
    (1e-9, signal.MAX_SAMPLE_RATE_HZ + 1, "above"),
    (0.0, 16000, "0 samples per waveform"),
    (float("nan"), 16000, "nan samples per waveform"),
    (1e308, 2 ** 20, "inf samples per waveform"),
    (signal.MAX_WAVEFORM_SAMPLES / 16000 + 1e-4, 16000, "outside 1 to"),
])
def test_dataset_config_rejects_bad_size(duration_s, rate, match):
    with pytest.raises(ParameterError, match=match):
        DatasetConfig(duration_s, rate)


def test_make_dataset_rejects_bad_args():
    with pytest.raises(ParameterError):
        make_dataset(0, "uniform", CFG, seed=0)
    with pytest.raises(ParameterError):
        make_dataset(1, "gauss", CFG, seed=0)
    with pytest.raises(ParameterError):
        make_dataset(1, 1.5, CFG, seed=0)


# ---------------------------------------------------------------------------
# Dataset store

def _assert_same_items(a, b):
    assert len(a) == len(b)
    for ia, ib in zip(a, b):
        assert ia.tau == ib.tau and ia.spec == ib.spec
        for tag in ("x", "e", "s1", "b"):
            assert (getattr(ia, tag).samples.tobytes()
                    == getattr(ib, tag).samples.tobytes())


def test_store_hit_equals_synthesis(tmp_path):
    store = tmp_path / "set.adfd"
    plain = make_dataset(3, "uniform", CFG, seed=5)
    _assert_same_items(make_dataset(3, "uniform", CFG, seed=5, store=store),
                       plain)
    written = store.read_bytes()
    n = round(CFG.duration_s * CFG.sample_rate_hz)
    assert len(written) == written.index(b"\n") + 1 + 3 * 3 * n * 8
    _assert_same_items(make_dataset(3, "uniform", CFG, seed=5, store=store),
                       plain)
    assert store.read_bytes() == written
    assert [p.name for p in tmp_path.iterdir()] == ["set.adfd"]


def test_store_hit_synthesizes_item_zero_only(tmp_path, monkeypatch):
    store = tmp_path / "set.adfd"
    make_dataset(4, "uniform", CFG, seed=6, store=store)
    item_zero = make_dataset(1, "uniform", CFG, seed=6)[0]  # of the same set
    plans = []
    real_synth_item = signal._synth_item

    def counting_synth_item(plan, cfg):
        plans.append(plan)
        return real_synth_item(plan, cfg)

    monkeypatch.setattr(signal, "_synth_item", counting_synth_item)
    make_dataset(4, "uniform", CFG, seed=6, store=store)
    assert [plan[0] for plan in plans] == [item_zero.spec]


def _payload_start(data: bytes) -> int:
    return data.index(b"\n") + 1


def _with_crc(data: bytes) -> bytes:
    """`data` with the CRC in its header recomputed over its payload."""
    start = _payload_start(data)
    crc = b"%08x\n" % zlib.crc32(data[start:])
    return data[:start - len(crc)] + crc + data[start:]


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


ITEM_BYTES = 3 * round(CFG.duration_s * CFG.sample_rate_hz) * 8

DAMAGED_STORES = {
    "truncated": lambda d: d[:len(d) // 2],
    "trailing_bytes": lambda d: d + b"\0" * 8,
    "flipped_byte_in_item_2": lambda d: _flip(
        d, _payload_start(d) + 2 * ITEM_BYTES + 100),
    "item_0_changed_crc_recomputed": lambda d: _with_crc(
        _flip(d, _payload_start(d) + 8)),
    "nan_in_item_1_crc_recomputed": lambda d: _with_crc(
        d[:_payload_start(d) + ITEM_BYTES]
        + np.array([np.nan], "<f8").tobytes()
        + d[_payload_start(d) + ITEM_BYTES + 8:]),
    "header_other_seed": lambda d: d.replace(b" seed=5 ", b" seed=6 ", 1),
    "header_other_n_items": lambda d: d.replace(b" n_items=3 ",
                                                b" n_items=2 ", 1),
    "header_other_duration": lambda d: d.replace(b" duration_s=0.125 ",
                                                 b" duration_s=0.375 ", 1),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_STORES))
def test_damaged_store_is_resynthesized(tmp_path, case):
    store = tmp_path / "set.adfd"
    plain = make_dataset(3, "uniform", CFG, seed=5)
    make_dataset(3, "uniform", CFG, seed=5, store=store)
    pristine = store.read_bytes()
    damaged = DAMAGED_STORES[case](pristine)
    assert damaged != pristine
    store.write_bytes(damaged)
    _assert_same_items(make_dataset(3, "uniform", CFG, seed=5, store=store),
                       plain)
    assert store.read_bytes() == pristine


def _traced(fn) -> tuple:
    """(bytes still allocated, peak bytes) of what fn() allocates, with
    its result kept."""
    tracemalloc.start()
    try:
        kept = fn()
        traced = tracemalloc.get_traced_memory()
        del kept
        return traced
    finally:
        tracemalloc.stop()


def test_store_holds_one_item_at_a_time(tmp_path):
    # 64 items of 0.5 s are 12 MB; at rest the set holds its plans (under
    # one item's bytes), and writing it, verifying it and one pass over
    # its items each peak less than 4 items above that
    cfg = DatasetConfig(duration_s=0.5)
    item_bytes = 3 * 8 * cfg.n_samples
    store = tmp_path / "set.adfd"
    make_dataset(1, "uniform", cfg, seed=5, store=tmp_path / "warm.adfd")

    def build():
        return make_dataset(64, "uniform", cfg, seed=5, store=store)

    held, miss = _traced(build)
    _, hit = _traced(build)
    items = build()

    def read_all():
        for item in items:
            item.x

    _, one_pass = _traced(read_all)
    assert held < item_bytes, held
    assert max(miss, hit, one_pass) < held + 4 * item_bytes, \
        (held, miss, hit, one_pass)
    assert len(items) == 64 and items[-1].spec == items[63].spec


@pytest.mark.parametrize("first", ["miss", "hit"])
@pytest.mark.parametrize("change", ["replaced", "unlinked"])
def test_stored_items_come_from_the_file_returned(tmp_path, first, change):
    # the items are read from the file make_dataset verified or wrote, not
    # from whatever the path names later
    store = tmp_path / "set.adfd"
    plain = make_dataset(3, "uniform", CFG, seed=5)
    if first == "hit":
        make_dataset(3, "uniform", CFG, seed=5, store=store)
    items = make_dataset(3, "uniform", CFG, seed=5, store=store)
    if change == "replaced":
        other = tmp_path / "other.adfd"
        make_dataset(3, "uniform", CFG, seed=6, store=other)
        os.replace(other, store)
    else:
        store.unlink()
    _assert_same_items(items, plain)


def test_stored_items_read_from_threads_equal_sequential(tmp_path):
    # threads that shared one file position would read one another's items
    items = make_dataset(16, "uniform", DatasetConfig(duration_s=0.25),
                         seed=5, store=tmp_path / "set.adfd")

    def read(i):
        item = items[i % len(items)]
        return [w.samples.tobytes() for w in (item.s1, item.e, item.b)]

    sequential = [read(i) for i in range(len(items))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(read, range(4 * 200), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == sequential * 50


@pytest.mark.parametrize("first", ["miss", "hit"])
def test_cut_store_names_its_path(tmp_path, first):
    # a freshly written store is read from its temp file's inode, but the
    # error names the store, not the temp file that no longer exists
    store = tmp_path / "set.adfd"
    if first == "hit":
        make_dataset(3, "uniform", CFG, seed=5, store=store)
    items = make_dataset(3, "uniform", CFG, seed=5, store=store)
    os.truncate(store, store.stat().st_size - 8)
    items[1]
    with pytest.raises(FileFormatError, match="item 2 is cut short") as exc:
        items[2]
    assert str(exc.value).startswith(f"{store}:")
    assert ".tmp" not in str(exc.value)


def test_dropped_dataset_closes_its_file(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    monkeypatch.setattr(signal, "open", recording_open, raising=False)
    store = tmp_path / "set.adfd"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in ("miss", "hit"):
            opened.clear()
            items = make_dataset(3, "uniform", CFG, seed=5, store=store)
            assert sum(not f.closed for f in opened) == 1
            items[1]
            del items
            assert all(f.closed for f in opened)
        gc.collect()
    assert not [w for w in caught if w.category is ResourceWarning]


# ---------------------------------------------------------------------------
# STFT / ISTFT

def test_stft_shapes_and_window():
    w = synth_source(ident(3), 0.25, SR, seed=1)
    s = stft(w, 256, 64)
    assert s.frames.shape[0] == 129
    assert len(s.window) == 256
    assert np.allclose(s.window, hann_window(256))


def test_stft_roundtrip_interior():
    w = synth_source(ident(3), 0.25, SR, seed=1)
    for n_fft, hop in ((256, 64), (256, 128), (510, 128), (128, 32)):
        rec = istft(stft(w, n_fft, hop), len(w), w.sample_rate_hz)
        # interior samples: the signal edges lack full window coverage (the
        # periodic Hann is zero at sample 0)
        err = np.max(np.abs(rec.samples - w.samples)[n_fft:-n_fft])
        assert err < 1e-4, (n_fft, hop, err)


def test_istft_pads_past_its_frames():
    spec = stft(synth_source(ident(3), 0.25, SR, seed=1), 256, 64)
    total = (spec.frames.shape[1] - 1) * 64 + 256
    covered = istft(spec, total).samples
    longer = istft(spec, total + 100).samples
    assert np.array_equal(longer[:total], covered)
    assert np.array_equal(longer[total:], np.zeros(100))
    with pytest.raises(ParameterError, match="out_len"):
        istft(spec, 0)


def test_stft_sine_energy_concentrated():
    # Bin-center sine: with a Hann window the tone's energy is confined to
    # the peak bin and its two immediate neighbors.
    n_fft, hop = 256, 64
    k = 20
    t = np.arange(4096)
    w = Waveform(np.sin(2 * np.pi * k * t / n_fft))
    frames = np.abs(stft(w, n_fft, hop).frames) ** 2
    m = frames.shape[1] // 2  # interior frame, no zero-padding effects
    col = frames[:, m]
    peak = int(np.argmax(col))
    assert peak == k
    assert col[peak - 1:peak + 2].sum() / col.sum() > 0.9


def test_stft_zero_waveform():
    s = stft(Waveform(np.zeros(1000)), 256, 64)
    assert np.all(s.frames == 0)


def test_stft_cola_violation_rejected():
    w = Waveform(np.ones(512))
    with pytest.raises(ParameterError):
        stft(w, 256, 200)


# ---------------------------------------------------------------------------
# Spectral records and their per-thread workspace

def _reference_record(w, n_fft, hop, keep_db):
    """(profile, stats, rms, db) as spectral_record computed them with a
    fresh array for every intermediate."""
    n = len(w)
    nf = 1 if n <= n_fft else int(np.ceil((n - n_fft) / hop)) + 1
    padded = np.zeros((nf - 1) * hop + n_fft)
    padded[:n] = w.samples
    windowed = sliding_window_view(padded, n_fft)[::hop] * hann_window(n_fft)
    mag = np.abs(np.fft.rfft(windowed, n=n_fft, axis=1).T)
    logm = np.log(np.maximum(mag, 1e-8))
    return (mag.mean(axis=1),
            np.concatenate([logm.mean(axis=1), logm.std(axis=1)]),
            np.sqrt(np.mean(w.samples ** 2)),
            10.0 * np.log10(mag + 1e-8) if keep_db else None)


def _record_bytes(values):
    profile, stats, rms, db = values
    return (profile.tobytes(), stats.tobytes(), np.float64(rms).tobytes(),
            None if db is None else (db.tobytes(order="A"), db.shape,
                                     db.flags.f_contiguous))


def _bytes_of(rec):
    return _record_bytes((rec.profile, rec.stats, rec.rms, rec.db))


def _noise(n, seed):
    return Waveform(np.random.default_rng(seed).standard_normal(n))


FRAMINGS = ((256, 64), (510, 128), (64, 16))


@pytest.mark.parametrize("n", [1, 255, 256, 257, 8000, 8001])
@pytest.mark.parametrize("n_fft,hop", FRAMINGS)
def test_spectral_record_matches_fresh_arrays(n, n_fft, hop):
    w = _noise(n, n)
    for keep_db in (False, True):
        rec = signal.spectral_record(w, n_fft, hop, keep_db=keep_db)
        assert _bytes_of(rec) == _record_bytes(
            _reference_record(w, n_fft, hop, keep_db))


def test_records_do_not_alias_the_workspace():
    first = signal.spectral_record(_noise(8000, 1), keep_db=True)
    kept = _bytes_of(first)
    second = signal.spectral_record(_noise(8000, 2), keep_db=True)
    assert _bytes_of(first) == kept
    assert _bytes_of(second) != kept
    key, ws = signal._thread_state.workspace
    assert key == (8000, 256, 64)
    for arr in (first.profile, first.stats, first.db):
        assert not any(np.shares_memory(arr, buf) for buf in ws)


def test_records_from_threads_equal_sequential():
    # neighbouring jobs share a workspace key but not their samples, so
    # threads that shared one workspace would mix up their records
    jobs = [(n, seed, n_fft, hop) for n in (255, 8000, 8001)
            for n_fft, hop in FRAMINGS for seed in range(4)]

    def run(job):
        n, seed, n_fft, hop = job
        return _bytes_of(signal.spectral_record(_noise(n, seed), n_fft, hop,
                                                keep_db=True))

    sequential = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 4):
            with ThreadPoolExecutor(workers) as pool:
                # the threads run every job, interleaved with each other
                got = list(pool.map(run, jobs * workers, timeout=120))
            assert got == sequential * workers
    finally:
        sys.setswitchinterval(interval)


def test_workspace_above_cap_is_not_kept():
    signal.spectral_record(_noise(100, 100))
    n = 200_000
    assert sum(arr.nbytes for arr in signal._workspace(n, 256, 64)) > \
        signal._WORKSPACE_MAX_BYTES
    w = _noise(n, 5)
    rec = signal.spectral_record(w, keep_db=True)
    assert _bytes_of(rec) == _record_bytes(_reference_record(w, 256, 64, True))
    # the one kept before stays; below the cap a thread keeps only the
    # last one it used
    assert signal._thread_state.workspace[0] == (100, 256, 64)
    for n in (101, 100):
        signal.spectral_record(_noise(n, n))
        assert signal._thread_state.workspace[0] == (n, 256, 64)


def test_plain_stft_not_changed_by_later_record():
    w = _noise(8000, 7)
    first, second = stft(w), stft(w)
    assert not np.shares_memory(first.frames, second.frames)
    frames = first.frames.copy()
    signal.spectral_record(_noise(8000, 8), keep_db=True)
    stft(_noise(8000, 9))
    assert first.frames.tobytes() == frames.tobytes()


# ---------------------------------------------------------------------------
# File formats

def test_wav_roundtrip(tmp_path):
    w = synth_source(ident(8), 0.1, SR, seed=2)
    path = tmp_path / "a.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate_hz == SR
    # 16-bit quantization at full scale 4.0: one LSB is ~1.2e-4
    assert np.max(np.abs(back.samples - w.samples)) < 4.0 / 32767 + 1e-12


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav file at all")
    with pytest.raises(FileFormatError):
        read_wav(path)


def test_tensor_roundtrip(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 5)).astype(np.float32)
    path = tmp_path / "t.adft"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == (3, 5)
    assert np.array_equal(back, arr.astype(np.float64))
    # header layout: magic, rank, dims
    raw = path.read_bytes()
    assert raw[:4] == b"ADFT"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert int.from_bytes(raw[8:12], "little") == 3
    assert int.from_bytes(raw[12:16], "little") == 5


@pytest.mark.parametrize("dims, data", [((2 ** 31, 2 ** 31), b"\x00" * 8),
                                        ((10, 10), b"\x00" * 8)],
                         ids=["dims_2e31_squared", "dims_past_end"])
def test_tensor_dims_exceed_file(tmp_path, dims, data):
    # the stored dims ask for more bytes than the file holds
    path = tmp_path / "t.adft"
    path.write_bytes(b"ADFT" + struct.pack("<3I", 2, *dims) + data)
    with pytest.raises(FileFormatError, match="bytes"):
        read_tensor(path)


def test_tensor_rank_past_cap(tmp_path):
    path = tmp_path / "t.adft"
    path.write_bytes(b"ADFT" + struct.pack("<10I", 9, *[1] * 9) + b"\0" * 4)
    with pytest.raises(FileFormatError, match="rank 9"):
        read_tensor(path)


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
def test_write_tensor_rank_cap(tmp_path, past):
    # the writer refuses what the reader refuses, before writing a byte
    rank = signal._MAX_TENSOR_RANK + past
    arr = np.full((1,) * rank, 2.5, np.float32)
    path = tmp_path / "t.adft"
    if not past:
        write_tensor(path, arr)
        assert np.array_equal(read_tensor(path), arr)
        return
    with pytest.raises(ParameterError, match=f"rank {rank}"):
        write_tensor(path, arr)
    assert list(tmp_path.iterdir()) == []
    stream = io.BytesIO()
    with pytest.raises(ParameterError):
        write_tensor_stream(stream, arr)
    assert stream.getvalue() == b""


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
def test_write_wav_rate_cap(tmp_path, past):
    w = Waveform(np.full(4, 0.5), signal.MAX_SAMPLE_RATE_HZ + past)
    path = tmp_path / "a.wav"
    if not past:
        write_wav(path, w)
        back = read_wav(path)
        assert back.sample_rate_hz == w.sample_rate_hz
        assert np.allclose(back.samples, w.samples, atol=4.0 / 32767)
        return
    with pytest.raises(ParameterError, match="above"):
        write_wav(path, w)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
def test_write_wav_length_cap(tmp_path, monkeypatch, past):
    monkeypatch.setattr(signal, "MAX_WAVEFORM_SAMPLES", 8)
    w = Waveform(np.full(8 + past, 0.5))
    path = tmp_path / "a.wav"
    if not past:
        write_wav(path, w)
        assert np.allclose(read_wav(path).samples, w.samples, atol=4.0 / 32767)
        return
    with pytest.raises(ParameterError, match="9 samples, above 8"):
        write_wav(path, w)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("past", [0, 1], ids=["at_cap", "past_cap"])
def test_write_checkpoint_header_cap(tmp_path, past):
    meta = {"feat_n_fft": 256, "feat_hop": 64, "sample_rate_hz": 16000}
    used = len("M " + " ".join(f"{k}={v}" for k, v in meta.items()))
    # a key that pads " key=0" to the header's cap, or one byte past it
    meta["k" * (signal._CHECKPOINT_HEADER_LIMIT + past - used - 3)] = 0
    path = tmp_path / "a.ckpt"
    if not past:
        signal.write_checkpoint(path, "M", meta, [np.ones(2)])
        assert path.read_bytes().index(b"\n") == \
            signal._CHECKPOINT_HEADER_LIMIT
        back, (t,) = signal.read_checkpoint(path, "M", tuple(meta),
                                            lambda m: [(2,)])
        assert back == meta and np.array_equal(t, np.ones(2))
        return
    with pytest.raises(ParameterError, match="above 4096"):
        signal.write_checkpoint(path, "M", meta, [np.ones(2)])
    assert list(tmp_path.iterdir()) == []


def test_tensor_cut_inside_its_dims(tmp_path):
    path = tmp_path / "t.adft"
    path.write_bytes(b"ADFT" + struct.pack("<2I", 2, 3))
    with pytest.raises(FileFormatError, match="truncated"):
        read_tensor(path)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.adft"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        read_tensor(path)


@pytest.mark.parametrize("extra", [b"\0", None], ids=["trailing_byte",
                                                      "written_twice"])
def test_tensor_file_holds_one_tensor(tmp_path, extra):
    path = tmp_path / "t.adft"
    write_tensor(path, np.ones((2, 3), np.float32))
    data = path.read_bytes()
    path.write_bytes(data + (data if extra is None else extra))
    extra_bytes = len(data) if extra is None else 1
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}: {extra_bytes} bytes follow")):
        read_tensor(path)


# Properties of the one tensor parser, derandomized like test_fuzz.py's.
PARSE = settings(derandomize=True, database=None, deadline=None,
                 max_examples=60)
FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _tensors(min_dims=0, max_dims=8, min_side=0):
    return arrays(np.float32, array_shapes(min_dims=min_dims,
                                           max_dims=max_dims,
                                           min_side=min_side, max_side=3),
                  elements=FINITE_F32)


def _stream(*arrs) -> bytes:
    f = io.BytesIO()
    for arr in arrs:
        write_tensor_stream(f, arr)
    return f.getvalue()


@PARSE
@given(_tensors(), _tensors())
def test_parse_tensor_round_trips(first, arr):
    # alone, and at the offset just past another tensor; a bytearray must
    # give a read-only view too.
    lone, both = _stream(arr), _stream(first, arr)
    _, pos = signal._parse_tensor(both)
    assert pos == len(both) - len(lone)
    for buf, at in ((lone, 0), (bytearray(lone), 0), (both, pos)):
        back, end = signal._parse_tensor(buf, at, arr.shape)
        assert end == len(buf)
        assert back.shape == arr.shape and back.dtype == np.float32
        assert back.tobytes() == arr.tobytes()
        assert not back.flags.writeable
        assert back.size == 0 or np.shares_memory(
            back, np.frombuffer(buf, np.uint8))
    with pytest.raises(FileFormatError, match="shape"):
        signal._parse_tensor(_stream(arr), 0, arr.shape + (1,))


def test_parse_rank_0_tensor():
    back, end = signal._parse_tensor(b"ADFT" + struct.pack("<If", 0, 1.5))
    assert back.shape == () and back == 1.5 and end == 12


@PARSE
@given(_tensors(max_dims=3), _tensors(max_dims=3))
def test_parse_tensor_prefix_is_file_format_error(first, second):
    buf = _stream(first, second)
    for n in range(len(buf)):
        with pytest.raises(FileFormatError):
            _, pos = signal._parse_tensor(buf[:n])
            signal._parse_tensor(buf[:n], pos)


@PARSE
@given(_tensors(min_dims=1, min_side=1), st.data())
def test_parse_tensor_dims_past_end(arr, data):
    # one stored dim raised, so the dims ask for more bytes than are left
    first = np.zeros(2, np.float32)
    buf = bytearray(_stream(first, arr))
    i = data.draw(st.integers(0, arr.ndim - 1))
    dim = data.draw(st.integers(arr.shape[i] + 1, 2 ** 32 - 1))
    struct.pack_into("<I", buf, len(_stream(first)) + 8 + 4 * i, dim)
    _, pos = signal._parse_tensor(buf)
    with pytest.raises(FileFormatError, match="bytes, but only"):
        signal._parse_tensor(buf, pos)
