import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.errors import FileFormatError, ParameterError, ShapeError
from adflow.signal import (DatasetConfig, MixtureSpec, SpeakerIdentity,
                           Waveform, hann_window, istft, make_dataset, mix,
                           random_identity, read_tensor, read_wav, stft,
                           synth_background, synth_source, write_tensor,
                           write_wav)

SR = 16000


def ident(seed):
    return random_identity(np.random.default_rng(seed))


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
        assert abs(w.rms() - 1.0) < 1e-6


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

def _spec(noise_w, interferers, tau=0.5, duration=0.25):
    return MixtureSpec(target=ident(99), interferers=interferers,
                       noise_weight=noise_w, tau=tau, duration_s=duration)


def test_background_noise_only_unit_rms():
    w = synth_background(_spec(1.0, ()), 0.25, SR, seed=4)
    assert abs(w.rms() - 1.0) < 1e-9
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
    assert abs(blend.rms() - 1.0) < 1e-6
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
    for item in make_dataset(3, "uniform", CFG, seed=4):
        expect = mix(item.s1, item.b, item.tau)
        assert np.array_equal(item.x.samples, expect.samples)


def test_make_dataset_rejects_bad_args():
    with pytest.raises(ParameterError):
        make_dataset(0, "uniform", CFG, seed=0)
    with pytest.raises(ParameterError):
        make_dataset(1, "gauss", CFG, seed=0)
    with pytest.raises(ParameterError):
        make_dataset(1, 1.5, CFG, seed=0)


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
