import gc
import os
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
from numpy.lib.stride_tricks import sliding_window_view

from adflow import signal
from adflow.errors import FileFormatError, ParameterError, ShapeError
from adflow.signal import (DatasetConfig, MixtureSpec, SpeakerIdentity,
                           Waveform, hann_window, istft, make_dataset, mix,
                           random_identity, read_tensor, read_wav, stft,
                           synth_background, synth_source, write_tensor,
                           write_wav)

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


def test_synth_source_rejects_bad_duration():
    with pytest.raises(ParameterError):
        synth_source(ident(0), 0.0, SR)
    with pytest.raises(ParameterError):
        synth_source(ident(0), -1.0, SR)


# ---------------------------------------------------------------------------
# synth_background

def _spec(noise_w, interferers, tau=0.5):
    return MixtureSpec(target=ident(99), interferers=interferers,
                       noise_weight=noise_w, tau=tau)


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
    calls = []
    real_synth_source = signal.synth_source

    def counting_synth_source(*args, **kwargs):
        calls.append(1)
        return real_synth_source(*args, **kwargs)

    monkeypatch.setattr(signal, "synth_source", counting_synth_source)
    make_dataset(1, "uniform", CFG, seed=6)  # item 0 of the same set
    item_zero = len(calls)
    calls.clear()
    make_dataset(4, "uniform", CFG, seed=6, store=store)
    assert item_zero >= 3 and len(calls) == item_zero


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


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "t.adft"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        read_tensor(path)
