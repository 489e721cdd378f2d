"""Synthetic sources, background mixing, STFT/ISTFT, and the on-disk formats.

Sources are deterministic harmonic generators standing in for clean speech.
Everything here is a pure function of (parameters, seed); all components are
RMS-normalized to 1 before mixing so the mixing ratio tau is the exact
amplitude ratio between target and background.
"""

from __future__ import annotations

import functools
import math
import struct
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FileFormatError, ParameterError, ShapeError

DEFAULT_SAMPLE_RATE = 16000

# Full-scale amplitude mapped to int16 32767 when writing WAV files.
WAV_FULL_SCALE = 4.0

_TENSOR_MAGIC = b"ADFT"
_MAX_TENSOR_RANK = 8


@dataclass(frozen=True)
class Waveform:
    """A finite real sampled signal."""

    samples: np.ndarray
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("waveform must be a non-empty 1-D signal")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("waveform contains non-finite samples")
        if int(self.sample_rate_hz) <= 0:
            raise ParameterError("sample rate must be positive")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples ** 2)))


def _check_compatible(a: Waveform, b: Waveform) -> None:
    if a.sample_rate_hz != b.sample_rate_hz:
        raise ShapeError(
            f"sample rates differ: {a.sample_rate_hz} vs {b.sample_rate_hz}")
    if len(a) != len(b):
        raise ShapeError(f"lengths differ: {len(a)} vs {len(b)}")


@dataclass(frozen=True)
class SpeakerIdentity:
    """Parameters of one synthetic 'speaker' (a harmonic generator)."""

    fundamental_hz: float
    harmonic_amps: tuple
    vibrato_rate_hz: float
    vibrato_depth: float
    id_seed: int

    def __post_init__(self):
        amps = tuple(float(a) for a in self.harmonic_amps)
        if not 80.0 <= self.fundamental_hz <= 400.0:
            raise ParameterError("fundamental must lie in [80, 400] Hz")
        if len(amps) < 2:
            raise ParameterError("need at least 2 harmonic amplitudes")
        if any(a < 0 for a in amps):
            raise ParameterError("harmonic amplitudes must be non-negative")
        if abs(sum(amps) - 1.0) > 1e-9:
            raise ParameterError("harmonic amplitudes must sum to 1")
        if self.vibrato_rate_hz < 0:
            raise ParameterError("vibrato rate must be >= 0")
        if not 0.0 <= self.vibrato_depth <= 0.05:
            raise ParameterError("vibrato depth must lie in [0, 0.05]")
        object.__setattr__(self, "harmonic_amps", amps)
        object.__setattr__(self, "id_seed", int(self.id_seed))


def random_identity(rng: np.random.Generator) -> SpeakerIdentity:
    """Draw a fresh speaker identity from an RNG."""
    n_harm = int(rng.integers(3, 7))
    raw = rng.uniform(0.2, 1.0, size=n_harm)
    amps = raw / raw.sum()
    amps = amps / amps.sum()  # renormalize twice to land within 1e-9 of 1
    return SpeakerIdentity(
        fundamental_hz=float(rng.uniform(80.0, 400.0)),
        harmonic_amps=tuple(float(a) for a in amps),
        vibrato_rate_hz=float(rng.uniform(3.0, 8.0)),
        vibrato_depth=float(rng.uniform(0.002, 0.02)),
        id_seed=int(rng.integers(0, 2 ** 31)),
    )


@dataclass(frozen=True)
class MixtureSpec:
    """Generative recipe for one mixture: target, background weights, tau."""

    target: SpeakerIdentity
    interferers: tuple  # of (SpeakerIdentity, weight)
    noise_weight: float
    tau: float
    duration_s: float

    def __post_init__(self):
        intf = tuple((ident, float(w)) for ident, w in self.interferers)
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterError("tau must lie in [0, 1]")
        if self.duration_s <= 0:
            raise ParameterError("duration must be positive")
        if self.noise_weight < 0 or any(w < 0 for _, w in intf):
            raise ParameterError("background weights must be non-negative")
        if self.noise_weight <= 0 and not any(w > 0 for _, w in intf):
            raise ParameterError("background needs one positive-weight component")
        object.__setattr__(self, "interferers", intf)


@dataclass(frozen=True)
class Spectrogram:
    """Complex STFT frames, (bins, frames) with bins = n_fft//2 + 1."""

    frames: np.ndarray
    n_fft: int
    hop: int
    window: np.ndarray

    def __post_init__(self):
        if self.frames.ndim != 2:
            raise ShapeError("frames must be 2-D (bins, frames)")
        if self.frames.shape[0] != self.n_fft // 2 + 1:
            raise ShapeError("bin count must equal n_fft//2 + 1")
        if len(self.window) != self.n_fft:
            raise ShapeError("window length must equal n_fft")
        if self.hop > self.n_fft:
            raise ParameterError("hop must not exceed n_fft")


# ---------------------------------------------------------------------------
# Synthesis

def synth_source(identity: SpeakerIdentity, duration_s: float,
                 sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
                 seed: int = 0) -> Waveform:
    """Harmonic tone with vibrato and a slow random envelope, unit RMS."""
    if duration_s <= 0:
        raise ParameterError("duration must be positive")
    n = int(round(duration_s * sample_rate_hz))
    if n <= 0:
        raise ParameterError("duration too short for the sample rate")
    rng = np.random.default_rng([identity.id_seed, int(seed) & 0x7FFFFFFF])
    t = np.arange(n) / sample_rate_hz

    f0, rate, depth = (identity.fundamental_hz, identity.vibrato_rate_hz,
                       identity.vibrato_depth)
    if rate > 0:
        # integral of f0 * (1 + depth*sin(2 pi rate t))
        phase = 2 * np.pi * f0 * (
            t + depth * (1.0 - np.cos(2 * np.pi * rate * t)) / (2 * np.pi * rate))
    else:
        phase = 2 * np.pi * f0 * t

    sig = np.zeros(n)
    for k, amp in enumerate(identity.harmonic_amps, start=1):
        sig += amp * np.sin(k * phase + rng.uniform(0.0, 2 * np.pi))

    # slow random amplitude envelope (~6 Hz control points, log-normal)
    n_ctrl = max(4, int(duration_s * 6) + 2)
    ctrl = rng.normal(size=n_ctrl)
    env = np.exp(0.3 * np.interp(np.linspace(0, 1, n),
                                 np.linspace(0, 1, n_ctrl), ctrl))
    sig *= env
    sig /= np.sqrt(np.mean(sig ** 2))
    return Waveform(sig, sample_rate_hz)


def synth_background(spec: MixtureSpec, duration_s: float,
                     sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
                     seed: int = 0) -> Waveform:
    """Weighted noise + interferer sum, renormalized to unit RMS."""
    total_w = spec.noise_weight + sum(w for _, w in spec.interferers)
    if total_w <= 0:
        raise ParameterError("all background weights are zero")
    n = int(round(duration_s * sample_rate_hz))
    if n <= 0:
        raise ParameterError("duration must be positive")
    acc = np.zeros(n)
    if spec.noise_weight > 0:
        rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, 0xABCD])
        noise = rng.standard_normal(n)
        noise /= np.sqrt(np.mean(noise ** 2))
        acc += spec.noise_weight * noise
    for i, (ident, w) in enumerate(spec.interferers):
        if w > 0:
            src = synth_source(ident, duration_s, sample_rate_hz,
                               seed=(int(seed) * 8191 + 101 * (i + 1)) & 0x7FFFFFFF)
            acc += w * src.samples
    acc /= np.sqrt(np.mean(acc ** 2))
    return Waveform(acc, sample_rate_hz)


def mix(s1: Waveform, b: Waveform, tau: float) -> Waveform:
    """x = tau*s1 + (1-tau)*b, elementwise."""
    _check_compatible(s1, b)
    if not 0.0 <= tau <= 1.0:
        raise ParameterError("tau must lie in [0, 1]")
    return Waveform(tau * s1.samples + (1.0 - tau) * b.samples,
                    s1.sample_rate_hz)


# ---------------------------------------------------------------------------
# Dataset generation

@dataclass(frozen=True)
class DatasetConfig:
    duration_s: float = 0.5
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE


@dataclass(frozen=True)
class MixtureItem:
    """One supervised item: mixture, enrollment, target, background, tau."""

    x: Waveform
    e: Waveform
    s1: Waveform
    b: Waveform
    tau: float
    spec: MixtureSpec


def make_dataset(n_items: int, tau_sampler, config: DatasetConfig | None = None,
                 seed: int = 0) -> list:
    """Build n_items supervised mixtures.

    tau_sampler is "uniform" (tau ~ U[0,1] per item) or a float (fixed tau).
    Each item draws a fresh target identity; the enrollment is an independent
    second draw from the same identity. Deterministic given seed.
    """
    if n_items <= 0:
        raise ParameterError("n_items must be positive")
    if isinstance(tau_sampler, str):
        if tau_sampler != "uniform":
            raise ParameterError(f"unknown tau sampler: {tau_sampler!r}")
        fixed_tau = None
    else:
        fixed_tau = float(tau_sampler)
        if not 0.0 <= fixed_tau <= 1.0:
            raise ParameterError("fixed tau must lie in [0, 1]")
    cfg = config or DatasetConfig()
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n_items):
        target = random_identity(rng)
        n_intf = int(rng.integers(1, 3))
        interferers = tuple(
            (random_identity(rng), float(rng.uniform(0.5, 1.0)))
            for _ in range(n_intf))
        noise_w = float(rng.uniform(0.1, 0.5))
        tau = float(rng.uniform()) if fixed_tau is None else fixed_tau
        spec = MixtureSpec(target=target, interferers=interferers,
                           noise_weight=noise_w, tau=tau,
                           duration_s=cfg.duration_s)
        src_seed = int(rng.integers(0, 2 ** 31))
        enr_seed = int(rng.integers(0, 2 ** 31))
        bg_seed = int(rng.integers(0, 2 ** 31))
        s1 = synth_source(target, cfg.duration_s, cfg.sample_rate_hz, src_seed)
        e = synth_source(target, cfg.duration_s, cfg.sample_rate_hz, enr_seed)
        b = synth_background(spec, cfg.duration_s, cfg.sample_rate_hz, bg_seed)
        items.append(MixtureItem(x=mix(s1, b, tau), e=e, s1=s1, b=b,
                                 tau=tau, spec=spec))
    return items


# ---------------------------------------------------------------------------
# STFT / ISTFT

def hann_window(n_fft: int) -> np.ndarray:
    """Periodic Hann window."""
    return 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)


@functools.lru_cache(maxsize=8)
def _cached_window(n_fft: int) -> np.ndarray:
    win = hann_window(n_fft)
    win.flags.writeable = False
    return win


def _n_frames(n: int, n_fft: int, hop: int) -> int:
    if n <= n_fft:
        return 1
    return int(np.ceil((n - n_fft) / hop)) + 1


def stft(w: Waveform, n_fft: int = 256, hop: int = 64) -> Spectrogram:
    """Hann-windowed STFT; frames start at sample 0, zero-padded at the end."""
    if hop < 1 or n_fft < 2:
        raise ParameterError("n_fft and hop must be positive")
    if n_fft < 2 * hop:
        raise ParameterError("COLA violation: need n_fft >= 2*hop for Hann")
    x = w.samples
    win = _cached_window(n_fft)
    nf = _n_frames(x.size, n_fft, hop)
    padded = np.zeros((nf - 1) * hop + n_fft)
    padded[:x.size] = x
    windowed = sliding_window_view(padded, n_fft)[::hop] * win
    frames = np.fft.rfft(windowed, n=n_fft, axis=1).T
    return Spectrogram(frames=frames, n_fft=n_fft, hop=hop, window=win)


@dataclass(frozen=True)
class SpectralRecord:
    """Everything the feature extractors and metrics read from one STFT.

    Built by `spectral_record` from a single magnitude |X| of `wave`. It
    holds per-band vectors, plus the (bins, frames) dB matrix only when LSD
    needs it. A record belongs to one item: callers build it, pass it on
    explicitly and drop it with the item.
    """

    wave: Waveform
    n_fft: int
    hop: int
    profile: np.ndarray   # mean over frames of |X|, per band
    stats: np.ndarray     # per-band mean, then std, of log max(|X|, 1e-8)
    rms: float
    db: np.ndarray | None = None  # 10*log10(|X| + 1e-8)


def spectral_record(w, n_fft: int = 256, hop: int = 64,
                    keep_db: bool = False) -> SpectralRecord:
    """One STFT of a waveform, reduced to a `SpectralRecord`.

    `w` may be a record already; it is returned as is when its framing
    matches and it holds what `keep_db` asks for, and rebuilt from its
    waveform otherwise.
    """
    if isinstance(w, SpectralRecord):
        if (w.n_fft, w.hop) == (n_fft, hop) and (w.db is not None
                                                 or not keep_db):
            return w
        w = w.wave
    mag = np.abs(stft(w, n_fft, hop).frames)
    logm = np.log(np.maximum(mag, 1e-8))
    return SpectralRecord(
        wave=w, n_fft=n_fft, hop=hop, profile=mag.mean(axis=1),
        stats=np.concatenate([logm.mean(axis=1), logm.std(axis=1)]),
        rms=np.sqrt(np.mean(w.samples ** 2)),
        db=10.0 * np.log10(mag + 1e-8) if keep_db else None)


def istft(s: Spectrogram, out_len: int,
          sample_rate_hz: int = DEFAULT_SAMPLE_RATE) -> Waveform:
    """Weighted overlap-add inverse; exact wherever window coverage > 0."""
    if out_len <= 0:
        raise ParameterError("out_len must be positive")
    n_fft, hop, win = s.n_fft, s.hop, s.window
    nf = s.frames.shape[1]
    frames_t = np.fft.irfft(s.frames, n=n_fft, axis=0)
    total = (nf - 1) * hop + n_fft
    num = np.zeros(total)
    den = np.zeros(total)
    for m in range(nf):
        sl = slice(m * hop, m * hop + n_fft)
        num[sl] += win * frames_t[:, m]
        den[sl] += win * win
    out = num / np.maximum(den, 1e-12)
    if out_len > total:
        out = np.concatenate([out, np.zeros(out_len - total)])
    return Waveform(out[:out_len], sample_rate_hz)


# ---------------------------------------------------------------------------
# WAV (16-bit PCM mono) and raw tensor ("ADFT") files

def write_wav(path, w: Waveform) -> None:
    ints = np.clip(np.round(w.samples / WAV_FULL_SCALE * 32767.0),
                   -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate_hz)
        f.writeframes(ints.tobytes())


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono WAV; a malformed or truncated one raises
    FileFormatError."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise FileFormatError(f"{path}: expected mono WAV")
            if f.getsampwidth() != 2:
                raise FileFormatError(f"{path}: expected 16-bit PCM")
            rate = f.getframerate()
            n_frames = f.getnframes()
            raw = f.readframes(n_frames)
    # wave reports a file cut inside its header as EOFError, and a chunk
    # size that runs past the end of the file as RuntimeError
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise FileFormatError(f"{path}: bad WAV file ({exc!r})") from exc
    if len(raw) != 2 * n_frames:
        raise FileFormatError(f"{path}: truncated WAV data: the header "
                              f"declares {n_frames} samples, the file holds "
                              f"{len(raw)} bytes of them")
    ints = np.frombuffer(raw, dtype="<i2")
    if ints.size == 0:
        raise FileFormatError(f"{path}: empty WAV file")
    return Waveform(ints.astype(np.float64) * (WAV_FULL_SCALE / 32767.0), rate)


def write_tensor_stream(f, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(arr, dtype="<f4"))
    f.write(_TENSOR_MAGIC)
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(arr.tobytes(order="C"))


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FileFormatError(f"truncated tensor: expected {n} bytes, "
                              f"got {len(data)}")
    return data


def read_tensor_stream(f, shape: tuple | None = None) -> np.ndarray:
    """Read one tensor as float32, the dtype it is stored in; its stored dims
    must fit the bytes left in `f` and, with `shape`, equal it, and its
    values must be finite."""
    magic = f.read(4)
    if magic != _TENSOR_MAGIC:
        raise FileFormatError(f"bad tensor magic: {magic!r}")
    (rank,) = struct.unpack("<I", _read_exact(f, 4))
    if rank > _MAX_TENSOR_RANK:
        raise FileFormatError(f"tensor rank {rank} exceeds {_MAX_TENSOR_RANK}")
    dims = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
    if shape is not None and dims != tuple(shape):
        raise FileFormatError(f"tensor shape {dims} != expected {tuple(shape)}")
    count = math.prod(dims)
    pos = f.tell()
    left = f.seek(0, 2) - pos
    f.seek(pos)
    if 4 * count > left:
        raise FileFormatError(f"tensor dims {dims} need {4 * count} bytes, "
                              f"but only {left} are left")
    data = np.frombuffer(_read_exact(f, 4 * count), dtype="<f4", count=count)
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"tensor of dims {dims} holds non-finite values")
    return data.reshape(dims).astype(np.float32)


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_tensor_stream(f, arr)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        return read_tensor_stream(f)
