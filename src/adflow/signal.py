"""Synthetic sources, background mixing, STFT/ISTFT, and the on-disk formats.

Sources are deterministic harmonic generators standing in for clean speech.
Everything here is a pure function of (parameters, seed); all components are
RMS-normalized to 1 before mixing so the mixing ratio tau is the exact
amplitude ratio between target and background.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import os
import struct
import threading
import wave
import weakref
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import flowpath
from .errors import FileFormatError, ParameterError, ShapeError

DEFAULT_SAMPLE_RATE = 16000
DEFAULT_N_FFT, DEFAULT_HOP = 256, 64

# Largest waveform a config or an input WAV may hold: 2^24 samples (about
# 17 minutes at 16 kHz) is 128 MB per float64 waveform.
MAX_WAVEFORM_SAMPLES = 2 ** 24

# A WAV header holds the byte rate, 2 x rate at 16-bit mono, in 32 bits.
MAX_SAMPLE_RATE_HZ = 2 ** 31 - 1

# Largest n_fft an STFT may use. The nets grow with n_fft alone: mrnet's
# first layer holds 64 x (3 x (n_fft // 2 + 1) + 1) float64 weights, about
# 50 MB at this cap.
MAX_N_FFT = 2 ** 16

# Largest STFT of one waveform, in frames x n_fft values; at the default
# framing every waveform under MAX_WAVEFORM_SAMPLES fits.
MAX_STFT_VALUES = 4 * MAX_WAVEFORM_SAMPLES

# Full-scale amplitude mapped to int16 32767 when writing WAV files.
WAV_FULL_SCALE = 4.0

_TENSOR_MAGIC = b"ADFT"
_MAX_TENSOR_RANK = 8

_STORE_MAGIC = "ADFLOW-DATASET v1"


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

    def __post_init__(self):
        intf = tuple((ident, float(w)) for ident, w in self.interferers)
        if not 0.0 <= self.tau <= 1.0:
            raise ParameterError("tau must lie in [0, 1]")
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


# ---------------------------------------------------------------------------
# Synthesis

def _fundamental(identity: SpeakerIdentity, n: int,
                 sample_rate_hz: int) -> np.ndarray:
    """exp(i·phase) over n samples, where phase is that of the identity's
    fundamental with its vibrato."""
    phase = np.arange(n) / sample_rate_hz
    f0, rate, depth = (identity.fundamental_hz, identity.vibrato_rate_hz,
                       identity.vibrato_depth)
    if rate > 0:
        # integral of f0 * (1 + depth*sin(2 pi rate t))
        phase += depth * (1.0 - np.cos(2 * np.pi * rate * phase)) / (
            2 * np.pi * rate)
    phase *= 2 * np.pi * f0
    z = np.empty(n, complex)
    np.cos(phase, out=z.real)
    np.sin(phase, out=z.imag)
    return z


def _voice(identity: SpeakerIdentity, z: np.ndarray, duration_s: float,
           sample_rate_hz: int, seed: int) -> Waveform:
    """`synth_source` over the identity's fundamental phasor z."""
    rng = np.random.default_rng([identity.id_seed, int(seed) & 0x7FFFFFFF])
    n = z.size
    # harmonic k is amp·sin(k·phase + off) = Im(amp·exp(i·off)·z^k); the
    # sum over k is evaluated by Horner's rule, one multiply by z per term
    coefs = [amp * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
             for amp in identity.harmonic_amps]
    acc = z * coefs[-1]
    for c in reversed(coefs[:-1]):
        acc += c
        acc *= z
    sig = acc.imag.copy()
    del acc

    # slow random amplitude envelope: log-normal control points ~6 Hz
    # apart, spread evenly from the first sample to the last, joined by lines
    n_ctrl = max(4, int(duration_s * 6) + 2)
    ctrl = 0.3 * rng.normal(size=n_ctrl)
    env = np.arange(n) * ((n_ctrl - 1) / max(n - 1, 1))  # on the control grid
    ends = [*np.searchsorted(env, np.arange(1, n_ctrl - 1)), n]
    for m, (lo, hi) in enumerate(zip([0, *ends], ends)):
        seg = env[lo:hi]
        seg -= m
        seg *= ctrl[m + 1] - ctrl[m]
        seg += ctrl[m]
    sig *= np.exp(env, out=env)
    sig /= np.sqrt(np.mean(sig ** 2))
    return Waveform(sig, sample_rate_hz)


def synth_source(identity: SpeakerIdentity, duration_s: float,
                 sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
                 seed: int = 0) -> Waveform:
    """Harmonic tone with vibrato and a slow random envelope, unit RMS."""
    n = int(round(duration_s * sample_rate_hz))
    if n <= 0:
        raise ParameterError("duration too short for the sample rate")
    return _voice(identity, _fundamental(identity, n, sample_rate_hz),
                  duration_s, sample_rate_hz, seed)


def synth_background(spec: MixtureSpec, duration_s: float,
                     sample_rate_hz: int = DEFAULT_SAMPLE_RATE,
                     seed: int = 0) -> Waveform:
    """Weighted noise + interferer sum, renormalized to unit RMS."""
    n = int(round(duration_s * sample_rate_hz))
    if n <= 0:
        raise ParameterError("duration must be positive")
    acc = np.zeros(n)
    if spec.noise_weight > 0:
        rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, 0xABCD])
        noise = rng.standard_normal(n)
        noise /= np.sqrt(np.mean(noise ** 2))
        acc += spec.noise_weight * noise
        del noise
    for i, (ident, w) in enumerate(spec.interferers):
        if w > 0:
            acc += w * synth_source(
                ident, duration_s, sample_rate_hz,
                seed=(int(seed) * 8191 + 101 * (i + 1)) & 0x7FFFFFFF).samples
    acc /= np.sqrt(np.mean(acc ** 2))
    return Waveform(acc, sample_rate_hz)


def mix(s1: Waveform, b: Waveform, tau: float) -> Waveform:
    """x = tau*s1 + (1-tau)*b, the path mean at tau (`flowpath.path_mean`)."""
    if s1.sample_rate_hz != b.sample_rate_hz:
        raise ShapeError(f"sample rates differ: {s1.sample_rate_hz} vs "
                         f"{b.sample_rate_hz}")
    return Waveform(flowpath.path_mean(b.samples, s1.samples, tau),
                    s1.sample_rate_hz)


# ---------------------------------------------------------------------------
# Dataset generation

@dataclass(frozen=True)
class DatasetConfig:
    duration_s: float = 0.5
    sample_rate_hz: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        rate = self.sample_rate_hz
        if not 1 <= rate <= MAX_SAMPLE_RATE_HZ:
            raise ParameterError(f"sample_rate_hz={rate} is below 1 or above "
                                 f"{MAX_SAMPLE_RATE_HZ}")
        try:
            n = self.n_samples
        except (OverflowError, ValueError):  # past float range, or NaN
            n = self.duration_s * rate
        if not 1 <= n <= MAX_WAVEFORM_SAMPLES:
            raise ParameterError(f"duration_s={self.duration_s!r} at {rate} "
                                 f"Hz asks for {n} samples per waveform, "
                                 f"outside 1 to {MAX_WAVEFORM_SAMPLES}")

    @property
    def n_samples(self) -> int:
        return round(self.duration_s * self.sample_rate_hz)


@dataclass(frozen=True)
class MixtureItem:
    """One supervised item: s1, e, b and the spec, which owns tau; the
    mixture x is mixed from s1 and b on every read and never kept."""

    s1: Waveform
    e: Waveform
    b: Waveform
    spec: MixtureSpec

    @property
    def tau(self) -> float:
        return self.spec.tau

    @property
    def x(self) -> Waveform:
        return mix(self.s1, self.b, self.tau)


def _draw_item(rng: np.random.Generator, fixed_tau):
    """One item's plan from the dataset generator: (spec, source seed,
    enrollment seed, background seed)."""
    target = random_identity(rng)
    n_intf = int(rng.integers(1, 3))
    interferers = tuple(
        (random_identity(rng), float(rng.uniform(0.5, 1.0)))
        for _ in range(n_intf))
    noise_w = float(rng.uniform(0.1, 0.5))
    tau = float(rng.uniform()) if fixed_tau is None else fixed_tau
    spec = MixtureSpec(target=target, interferers=interferers,
                       noise_weight=noise_w, tau=tau)
    return (spec, int(rng.integers(0, 2 ** 31)), int(rng.integers(0, 2 ** 31)),
            int(rng.integers(0, 2 ** 31)))


def _synth_item(plan, cfg: DatasetConfig) -> tuple:
    """The (s1, e, b) waveforms of one planned item."""
    spec, src_seed, enr_seed, bg_seed = plan
    # s1 and e are two draws of one identity over one fundamental phasor,
    # dropped before the background is synthesized
    z = _fundamental(spec.target, cfg.n_samples, cfg.sample_rate_hz)
    s1, e = (_voice(spec.target, z, cfg.duration_s, cfg.sample_rate_hz, seed)
             for seed in (src_seed, enr_seed))
    del z
    return s1, e, synth_background(spec, cfg.duration_s, cfg.sample_rate_hz,
                                   bg_seed)


class StoredDataset(Sequence):
    """The items of a dataset store, each read from its file when it is
    accessed; the sequence keeps only the plans and the open file.

    The file is the one `make_dataset` verified or wrote, held open, so
    replacing or removing the store's path later does not change what is
    read (adflow only ever replaces a store, never writes into it). Each
    item is read at its offset with one positional read and no shared file
    position, so threads may share the sequence. The file is closed when
    the sequence is dropped.
    """

    def __init__(self, path, f, offset: int, plans: list, cfg: DatasetConfig):
        self._path, self._file, self._offset = path, f, offset
        self._plans, self._cfg = plans, cfg
        weakref.finalize(self, f.close)

    def __len__(self) -> int:
        return len(self._plans)

    def __getitem__(self, i) -> MixtureItem:
        i = range(len(self._plans))[operator.index(i)]
        n = self._cfg.n_samples
        # one array per waveform: one (3, n) block per item is above
        # glibc's mmap threshold at the default sizes, and its pages were
        # faulted in anew on every read (13,800 minor faults against 2,000
        # per train-vel call on 64 items of 0.5 s for 5 epochs)
        waves = [np.empty(n, "<f8") for _ in range(3)]
        if (os.preadv(self._file.fileno(), waves, self._offset + 3 * 8 * n * i)
                != 3 * 8 * n):
            raise FileFormatError(f"{self._path}: item {i} is cut short")
        return MixtureItem(*(Waveform(arr, self._cfg.sample_rate_hz)
                             for arr in waves), self._plans[i][0])


def _verified_store(path, prefix: bytes, plans: list, cfg: DatasetConfig):
    """The store at `path` opened to read, or None when it is missing,
    unreadable or fails a check: header, exact length, CRC-32 of the
    payload, finite samples, and item 0 synthesized again matching its
    stored bytes (which catches changed synthesis code or libm). The checks
    take one pass over the file, one waveform at a time."""
    n = cfg.n_samples
    with contextlib.ExitStack() as stack:
        try:
            f = stack.enter_context(open(path, "rb", buffering=0))
            header = f.read(len(prefix) + 9)
            if (not header.startswith(prefix) or os.fstat(f.fileno()).st_size
                    != len(header) + 3 * 8 * n * len(plans)):
                return None
            first = [w.samples.tobytes() for w in _synth_item(plans[0], cfg)]
            stored = np.empty(n, "<f8")
            crc = 0
            for k in range(3 * len(plans)):
                if (f.readinto(stored) != stored.nbytes
                        or not np.isfinite(stored).all()
                        or k < 3 and stored.tobytes() != first[k]):
                    return None
                crc = zlib.crc32(stored, crc)
            if header[len(prefix):] != b"%08x\n" % crc:
                return None
        except OSError:
            return None
        stack.pop_all()
    return f


# numbers this process's temp files, one per write, whatever the thread
_temp_ids = itertools.count()


@contextlib.contextmanager
def _atomic_open(path):
    """A binary file to write that replaces `path` when the block exits
    normally: a temp file beside it, then `os.replace`. If the block raises,
    `path` stays as it was and the temp file is removed. A symlink's target
    is replaced; a target that is not a regular file, or whose directory is
    missing, raises OSError naming `path`. Concurrent writes to one path
    each leave `path` whole, holding the bytes of the last to finish."""
    real = Path(os.path.realpath(path) if os.path.islink(path) else path)
    if os.path.exists(real) and not os.path.isfile(real):
        raise OSError(f"{path}: exists and is not a regular file")
    if not os.path.isdir(real.parent):
        raise FileNotFoundError(f"{path}: its directory does not exist")
    tmp = real.with_name(f".{real.name}.{os.getpid()}.{next(_temp_ids)}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, real)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path, lines: list) -> None:
    """Atomically replace `path` with `lines`, newline-ended, in UTF-8."""
    with _atomic_open(path) as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


def _write_store(path, prefix: bytes, plans: list, cfg: DatasetConfig):
    """Atomically replace the store at `path` with the planned items,
    synthesized and written one at a time, and return the new file opened
    to read. The header's CRC-32 is written last."""
    with contextlib.ExitStack() as stack:
        with _atomic_open(path) as f:
            f.write(prefix + b"%08x\n" % 0)
            crc = 0
            for plan in plans:
                for w in _synth_item(plan, cfg):
                    arr = w.samples.astype("<f8", copy=False)
                    crc = zlib.crc32(arr, crc)
                    f.write(arr)
            f.seek(len(prefix))
            f.write(b"%08x" % crc)
            # the temp file's inode, which os.replace moves to `path`
            reader = stack.enter_context(open(f.name, "rb", buffering=0))
        stack.pop_all()
    return reader


def make_dataset(n_items: int, tau_sampler, config: DatasetConfig | None = None,
                 seed: int = 0, store=None):
    """Build n_items supervised mixtures.

    tau_sampler is "uniform" (tau ~ U[0,1] per item) or a float (fixed tau).
    Each item draws a fresh target identity; the enrollment is an independent
    second draw from the same identity. Deterministic given seed.

    With `store`, a file path, the result is a `StoredDataset`: the float64
    samples of s1, e and b are in that file, and each item is read from it
    when it is accessed. The file is used when it holds this dataset and
    passes its checks (see `_verified_store`); otherwise the items are
    synthesized one at a time into a file that atomically replaces it.
    Without `store` the result is a list. Every item is the same either
    way: synthesis draws nothing from the dataset generator, and x is not
    stored but mixed from s1 and b on each read (see `MixtureItem`).
    """
    if n_items <= 0:
        raise ParameterError("n_items must be positive")
    if isinstance(tau_sampler, str):
        if tau_sampler != "uniform":
            raise ParameterError(f"unknown tau sampler: {tau_sampler!r}")
        fixed_tau = None
    else:  # MixtureSpec checks its range
        fixed_tau = float(tau_sampler)
    cfg = config or DatasetConfig()
    rng = np.random.default_rng(seed)
    plans = [_draw_item(rng, fixed_tau) for _ in range(n_items)]
    if store is None:
        return [MixtureItem(*_synth_item(plan, cfg), plan[0]) for plan in plans]
    sampler = tau_sampler if fixed_tau is None else repr(fixed_tau)
    prefix = (f"{_STORE_MAGIC} n_items={n_items} tau_sampler={sampler} "
              f"seed={seed} duration_s={float(cfg.duration_s)!r} "
              f"sample_rate_hz={cfg.sample_rate_hz} "
              f"numpy={np.__version__} crc32=").encode()
    f = _verified_store(store, prefix, plans, cfg)
    if f is None:
        f = _write_store(store, prefix, plans, cfg)
    return StoredDataset(store, f, len(prefix) + 9, plans, cfg)


# ---------------------------------------------------------------------------
# STFT / ISTFT

@functools.lru_cache(maxsize=8)
def hann_window(n_fft: int) -> np.ndarray:
    """Periodic Hann window, read-only and shared by every caller."""
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)
    win.flags.writeable = False
    return win


def _stft_frames(n: int, n_fft: int, hop: int) -> int:
    """Frame count of `stft` over n samples; raises ParameterError for a
    framing it cannot run on n samples (see MAX_N_FFT, MAX_STFT_VALUES)."""
    if hop < 1 or n_fft < 2:
        raise ParameterError("n_fft and hop must be positive")
    if n_fft < 2 * hop:
        raise ParameterError("COLA violation: need n_fft >= 2*hop for Hann")
    if n_fft > MAX_N_FFT:
        raise ParameterError(f"n_fft={n_fft} is above {MAX_N_FFT}")
    frames = 1 if n <= n_fft else int(np.ceil((n - n_fft) / hop)) + 1
    if frames * n_fft > MAX_STFT_VALUES:
        raise ParameterError(f"n_fft={n_fft}, hop={hop} gives "
                             f"{frames * n_fft} STFT values for {n} samples, "
                             f"above {MAX_STFT_VALUES}")
    return frames


# Largest workspace (see `_workspace`) a thread keeps between calls, in
# bytes; at 8,000 samples and the default framing one takes about 0.76 MB.
_WORKSPACE_MAX_BYTES = 16 * 2 ** 20

_thread_state = threading.local()


def _workspace(n: int, n_fft: int, hop: int) -> tuple:
    """This thread's intermediate arrays of `stft` and `spectral_record` for
    an STFT of n samples: the zero-padded signal, whose tail past the
    samples is never written and stays zero, the windowed frames, the
    complex spectrum and |X| (both (bins, frames), F-ordered like the
    transposed `rfft` output), and the squared samples.

    A thread keeps the last set it made, as `(key, arrays)` with key
    (n, n_fft, hop), and makes a new one when the key differs. A set above
    `_WORKSPACE_MAX_BYTES` is new on every call and not kept.
    """
    key = (n, n_fft, hop)
    kept = getattr(_thread_state, "workspace", None)
    if kept is not None and kept[0] == key:
        return kept[1]
    nf = _stft_frames(n, n_fft, hop)
    ws = (np.zeros((nf - 1) * hop + n_fft), np.empty((nf, n_fft)),
          np.empty((nf, n_fft // 2 + 1), dtype=np.complex128).T,
          np.empty((nf, n_fft // 2 + 1)).T, np.empty(n))
    if sum(arr.nbytes for arr in ws) <= _WORKSPACE_MAX_BYTES:
        _thread_state.workspace = (key, ws)
    return ws


def stft(w: Waveform, n_fft: int = DEFAULT_N_FFT, hop: int = DEFAULT_HOP,
         out: np.ndarray | None = None) -> Spectrogram:
    """Hann-windowed STFT; frames start at sample 0, zero-padded at the end.

    The spectrum is written to `out`, a (bins, frames) complex array, when
    given, and to a new array otherwise.
    """
    x = w.samples
    padded, windowed, *_ = _workspace(x.size, n_fft, hop)
    win = hann_window(n_fft)
    padded[:x.size] = x
    np.multiply(sliding_window_view(padded, n_fft)[::hop], win, out=windowed)
    frames = np.fft.rfft(windowed, n=n_fft, axis=1,
                         out=None if out is None else out.T).T
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


def samples_of(w) -> np.ndarray:
    """The samples of a Waveform, of a `SpectralRecord`'s waveform, or of an
    array (as float64)."""
    if isinstance(w, SpectralRecord):
        w = w.wave
    return w.samples if isinstance(w, Waveform) else np.asarray(w, np.float64)


def spectral_record(w, n_fft: int = DEFAULT_N_FFT, hop: int = DEFAULT_HOP,
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
    # Every intermediate lives in this thread's workspace; the record gets
    # new arrays only. The operations are those of mag.mean(axis=1),
    # 10*log10(mag + 1e-8), logm.mean(axis=1) and logm.std(axis=1), in
    # the same order and on the same F-ordered layout, so the bytes match.
    *_, spec, mag, sq = _workspace(len(w), n_fft, hop)
    mag = np.abs(stft(w, n_fft, hop, out=spec).frames, out=mag)
    profile = mag.mean(axis=1)
    db = None
    if keep_db:
        db = np.add(mag, 1e-8, out=np.empty_like(mag))
        np.log10(db, out=db)
        db *= 10.0
    logm = np.log(np.maximum(mag, 1e-8, out=mag), out=mag)
    mean = logm.mean(axis=1)
    dev = np.subtract(logm, mean[:, None], out=logm)
    var = np.multiply(dev, dev, out=dev).sum(axis=1)
    var /= dev.shape[1]
    return SpectralRecord(
        wave=w, n_fft=n_fft, hop=hop, profile=profile,
        stats=np.concatenate([mean, np.sqrt(var, out=var)]),
        rms=np.sqrt(np.mean(np.square(w.samples, out=sq))), db=db)


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
# WAV (16-bit PCM mono), raw tensor ("ADFT") and checkpoint files

def write_wav(path, w: Waveform) -> None:
    """16-bit PCM mono; ParameterError past `read_wav`'s rate or length cap."""
    if w.sample_rate_hz > MAX_SAMPLE_RATE_HZ:
        raise ParameterError(f"sample_rate_hz={w.sample_rate_hz} is above "
                             f"{MAX_SAMPLE_RATE_HZ}")
    if len(w) > MAX_WAVEFORM_SAMPLES:
        raise ParameterError(f"{len(w)} samples, above {MAX_WAVEFORM_SAMPLES}")
    ints = np.clip(np.round(w.samples / WAV_FULL_SCALE * 32767.0),
                   -32768, 32767).astype("<i2")
    with _atomic_open(path) as f, wave.open(f, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(w.sample_rate_hz)
        out.writeframes(ints.tobytes())


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono WAV; FileFormatError for a malformed or
    truncated one, or one past MAX_SAMPLE_RATE_HZ or MAX_WAVEFORM_SAMPLES."""
    try:
        with wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1:
                raise FileFormatError(f"{path}: expected mono WAV")
            if f.getsampwidth() != 2:
                raise FileFormatError(f"{path}: expected 16-bit PCM")
            rate = f.getframerate()
            if not 1 <= rate <= MAX_SAMPLE_RATE_HZ:
                raise FileFormatError(f"{path}: WAV declares {rate} Hz")
            n_frames = f.getnframes()
            if n_frames > MAX_WAVEFORM_SAMPLES:
                raise FileFormatError(f"{path}: declares {n_frames} samples, "
                                      f"above {MAX_WAVEFORM_SAMPLES}")
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
    """One ADFT tensor; ParameterError for a rank `_parse_tensor` refuses."""
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim > _MAX_TENSOR_RANK:
        raise ParameterError(f"tensor rank {arr.ndim} exceeds "
                             f"{_MAX_TENSOR_RANK}")
    f.write(_TENSOR_MAGIC)
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    f.write(arr.tobytes(order="C"))


def _parse_tensor(buf, pos: int = 0, shape: tuple | None = None) -> tuple:
    """(tensor, end): the tensor stored at byte `pos` of the bytes-like
    `buf` as a read-only float32 view of its bytes, the dtype it is stored
    in, and the offset just past it. Its stored dims must fit the bytes left
    in `buf` and, with `shape`, equal it, and its values must be finite."""
    magic = bytes(buf[pos:pos + 4])
    if magic != _TENSOR_MAGIC:
        raise FileFormatError(f"bad tensor magic: {magic!r}")
    try:
        (rank,) = struct.unpack_from("<I", buf, pos + 4)
        if rank > _MAX_TENSOR_RANK:
            raise FileFormatError(f"tensor rank {rank} exceeds "
                                  f"{_MAX_TENSOR_RANK}")
        dims = struct.unpack_from(f"<{rank}I", buf, pos + 8)
    except struct.error as exc:
        raise FileFormatError(f"truncated tensor: {exc}") from exc
    if shape is not None and dims != tuple(shape):
        raise FileFormatError(f"tensor shape {dims} != expected {tuple(shape)}")
    start, count = pos + 8 + 4 * rank, math.prod(dims)
    left = len(buf) - start
    if 4 * count > left:
        raise FileFormatError(f"tensor dims {dims} need {4 * count} bytes, "
                              f"but only {left} are left")
    data = np.frombuffer(buf, "<f4", count, start).reshape(dims)
    data.flags.writeable = False
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"tensor of dims {dims} holds non-finite values")
    return data, start + 4 * count


def write_tensor(path, arr: np.ndarray) -> None:
    with _atomic_open(path) as f:
        write_tensor_stream(f, arr)


def read_tensor(path) -> np.ndarray:
    """The one tensor of a `write_tensor` file, read-only."""
    with open(path, "rb") as f:
        data = f.read()
    tensor, end = _parse_tensor(data)
    if end != len(data):
        raise FileFormatError(f"{path}: {len(data) - end} bytes follow "
                              f"its tensor")
    return tensor


def write_checkpoint(path, magic: str, meta: dict, tensors: list) -> None:
    """Atomically replace `path` with the header `magic key=value ...` of
    `meta`, then `tensors`; ParameterError for a header `read_checkpoint`
    refuses, one past _CHECKPOINT_HEADER_LIMIT."""
    header = " ".join([magic, *(f"{k}={v}" for k, v in meta.items())])
    if len(header) > _CHECKPOINT_HEADER_LIMIT:
        raise ParameterError(f"checkpoint header of {len(header)} bytes is "
                             f"above {_CHECKPOINT_HEADER_LIMIT}")
    with _atomic_open(path) as f:
        f.write(header.encode("ascii") + b"\n")
        for t in tensors:
            write_tensor_stream(f, t)


# Longest header line a checkpoint may have; adflow writes under 200 bytes.
_CHECKPOINT_HEADER_LIMIT = 4096

# magic -> (header line, payload, dtype, tensors) of the checkpoint of that
# kind parsed last; the tensors are read-only. Threads that race on an entry
# each return the tensors of the bytes they read.
_kept_checkpoints: dict = {}


def read_checkpoint(path, magic: str, keys, shapes, dtype="<f4") -> tuple:
    """(meta, tensors) of a `write_checkpoint` file, tensors read-only and
    in `dtype`. A header value is an int, or a tuple of ints where it holds
    commas. The header holds exactly `keys`, each once, and `feat_n_fft`
    with `feat_hop` must be a framing `stft` runs.
    `shapes(meta)` lists the tensor shapes or raises ValueError. The file
    must be exactly as long as its header declares. While a file's bytes
    equal those of the last checkpoint read of its magic, that one's
    tensors are returned."""
    with open(path, "rb") as f:
        line = f.readline(_CHECKPOINT_HEADER_LIMIT + 1)
        if not line.startswith(magic.encode("ascii")):
            raise FileFormatError(f"{path}: not an {magic} checkpoint")
        if not line.endswith(b"\n"):
            raise FileFormatError(f"{path}: no checkpoint header line within "
                                  f"{_CHECKPOINT_HEADER_LIMIT} bytes")
        try:
            meta = {}
            for token in line[len(magic):].decode("ascii").split():
                key, value = token.split("=")
                if key in meta:
                    raise ValueError(f"{key} written twice")
                meta[key] = (tuple(map(int, value.split(","))) if "," in value
                             else int(value))
            if set(meta) != set(keys):
                raise ValueError(
                    f"missing {[k for k in keys if k not in meta]}, "
                    f"unknown {[k for k in meta if k not in keys]}")
            _stft_frames(1, meta["feat_n_fft"], meta["feat_hop"])
            expected = shapes(meta)
        # TypeError: a tuple where an int belongs, or the other way round
        except (ValueError, KeyError, TypeError, ParameterError) as exc:
            raise FileFormatError(f"{path}: bad checkpoint header "
                                  f"({exc!r})") from exc
        # each tensor: magic, rank, dims, float32 data
        declared = len(line) + sum(8 + 4 * len(shape) + 4 * math.prod(shape)
                                   for shape in expected)
        size = os.fstat(f.fileno()).st_size
        if size != declared:
            raise FileFormatError(f"{path}: the header declares {declared} "
                                  f"bytes, the file holds {size}")
        payload = f.read(size - len(line))
    kept = _kept_checkpoints.get(magic)
    if kept is None or kept[:3] != (line, payload, dtype):
        # a file cut after the size check fails here as a truncated tensor;
        # float32 tensors are views of the payload, others their own arrays
        tensors, pos = [], 0
        for shape in expected:
            tensor, pos = _parse_tensor(payload, pos, shape)
            tensors.append(np.asarray(tensor, dtype))
            tensors[-1].flags.writeable = False
        kept = _kept_checkpoints[magic] = (line, payload, dtype, tensors)
    return meta, list(kept[3])
