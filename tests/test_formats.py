"""One round-trip property per on-disk format: WAV, ADFT tensor,
checkpoint and dataset store.

Each draws values at and one past every cap the format has (sample rate,
sample count, tensor rank, header length), non-finite values, bad header
tokens, rank-0 and zero-width tensors. For every draw either the writer
raises ParameterError and leaves no file, or the reader returns what was
written (a WAV within one quantization step). Which of the two happens is
predicted from the format's rules as README states them, so a writer that
refuses too much fails as well as one that writes what its reader refuses.
A cap is lowered with `monkeypatch` where the data would be large; the
writer and the reader read the same constant.
"""

import io
import math
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from adflow import signal
from adflow.errors import ParameterError
from adflow.signal import (DatasetConfig, Waveform, make_dataset,
                           read_checkpoint, read_tensor, read_wav,
                           write_checkpoint, write_tensor,
                           write_tensor_stream, write_wav)

# `capped` sets the same constants for every example of a test.
ROUND_TRIP = settings(
    derandomize=True, database=None, deadline=None, max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

MAX_RATE = signal.MAX_SAMPLE_RATE_HZ
RANK = signal._MAX_TENSOR_RANK
F32_MAX = float(np.finfo(np.float32).max)

# Any float64, the float32 edge and values past it, NaN and infinities.
VALUES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(
    [0.0, -0.0, F32_MAX, -F32_MAX, 1e39, -1e39, 1e300, math.nan, math.inf,
     -math.inf]))


def _tensors(max_dims=RANK + 1, max_side=2):
    return arrays(np.float64, array_shapes(min_dims=0, max_dims=max_dims,
                                           min_side=0, max_side=max_side),
                  elements=VALUES)


def _refused(arr: np.ndarray) -> bool:
    """Whether ADFT refuses `arr`: a rank past the cap, or a value that is
    not finite once cast to float32."""
    with np.errstate(over="ignore"):
        return arr.ndim > RANK or not np.isfinite(arr.astype("<f4")).all()


def _written(tmp: Path) -> list:
    """The files in `tmp`, temp files of an atomic write included."""
    return sorted(p.name for p in tmp.iterdir())


@pytest.fixture
def capped(monkeypatch):
    """Caps small enough that a draw can reach them."""
    monkeypatch.setattr(signal, "MAX_WAVEFORM_SAMPLES", 16)
    monkeypatch.setattr(signal, "_CHECKPOINT_HEADER_LIMIT", 64)


# ---------------------------------------------------------------------------
# WAV

@ROUND_TRIP
@given(rate=st.sampled_from([1, 16000, MAX_RATE - 1, MAX_RATE, MAX_RATE + 1]),
       samples=arrays(np.float64, st.integers(1, 17),
                      elements=st.floats(-5.0, 5.0)))
def test_wav_round_trips_or_is_refused(capped, rate, samples):
    w = Waveform(samples, rate)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.wav"
        if rate > MAX_RATE or samples.size > 16:
            with pytest.raises(ParameterError):
                write_wav(path, w)
            assert _written(Path(tmp)) == []
            return
        write_wav(path, w)
        back = read_wav(path)
    assert back.sample_rate_hz == rate
    # write_wav clips at full scale and rounds to a step; below -full scale
    # the step is -32768, one step further out
    step = signal.WAV_FULL_SCALE / 32767
    expect = np.clip(samples, -signal.WAV_FULL_SCALE, signal.WAV_FULL_SCALE)
    assert np.max(np.abs(back.samples - expect)) <= step + 1e-12


# ---------------------------------------------------------------------------
# ADFT tensor

@ROUND_TRIP
@given(arr=_tensors())
def test_tensor_round_trips_or_is_refused(arr):
    stream = io.BytesIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.adft"
        if _refused(arr):
            with pytest.raises(ParameterError):
                write_tensor(path, arr)
            assert _written(Path(tmp)) == []
            with pytest.raises(ParameterError):
                write_tensor_stream(stream, arr)
            assert stream.getvalue() == b""
            return
        write_tensor(path, arr)
        back = read_tensor(path)
    assert back.shape == arr.shape
    assert back.tobytes() == arr.astype("<f4").tobytes()


# ---------------------------------------------------------------------------
# Checkpoint

MAGIC = "ADFLOW-FORMATS-TEST v1"

# value -> what the reader returns for it; every other value is refused
GOOD_VALUES = {0: 0, -1: -1, 7: 7, 2 ** 40: 2 ** 40, np.int64(5): 5,
               "3,4": (3, 4), "-1,0,5": (-1, 0, 5), "12": 12}
BAD_VALUES = [1.5, "a b", "", "1,", ",", "x", "1=2", "٣", True,
              "1\n2", (1, 2), None]
GOOD_KEYS = ["a", "dims", "k_2", "feat_hop", ""]
BAD_KEYS = ["x y", "a=b", "é", "k\t", "k\n"]


@st.composite
def _checkpoints(draw):
    """(meta, tensors, refused): a header's fields, padded to within one
    byte of the header cap or not, the tensors, and whether the writer
    must refuse them."""
    keys = draw(st.lists(st.one_of(st.sampled_from(GOOD_KEYS),
                                   st.sampled_from(BAD_KEYS)),
                         max_size=3, unique=True))
    meta, refused = {}, False
    for key in keys:
        good = draw(st.booleans())
        value = draw(st.sampled_from(list(GOOD_VALUES) if good
                                     else BAD_VALUES))
        meta[key] = value
        refused |= key in BAD_KEYS or not good
    line = " ".join([MAGIC, *(f"{k}={v}" for k, v in meta.items())])
    if draw(st.booleans()):
        # a last field that ends the line one byte short of the cap, at it,
        # or one byte past it
        room = 64 - len(line) - len(" =0") + draw(st.integers(-1, 1))
        if room >= 1 and "p" * room not in meta:
            meta["p" * room] = 0
            line += f" {'p' * room}=0"
    refused |= len(line) > 64
    tensors = draw(st.lists(_tensors(), max_size=2))
    refused |= any(_refused(t) for t in tensors)
    return meta, tensors, refused


@ROUND_TRIP
@given(case=_checkpoints())
def test_checkpoint_round_trips_or_is_refused(capped, case):
    meta, tensors, refused = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.ckpt"
        if refused:
            with pytest.raises(ParameterError):
                write_checkpoint(path, MAGIC, meta, tensors)
            assert _written(Path(tmp)) == []
            return
        write_checkpoint(path, MAGIC, meta, tensors)
        back, loaded = read_checkpoint(path, MAGIC, tuple(meta),
                                       lambda m: [t.shape for t in tensors])
    assert back == {k: GOOD_VALUES[v] for k, v in meta.items()}
    assert [t.tobytes() for t in loaded] == \
        [t.astype("<f4").tobytes() for t in tensors]


# ---------------------------------------------------------------------------
# Dataset store

def _store_header(n_items, sampler, seed, cfg, crc) -> str:
    """A store's header line as README states it, newline aside."""
    return (f"ADFLOW-DATASET v1 n_items={n_items} tau_sampler={sampler} "
            f"seed={seed} duration_s={float(cfg.duration_s)!r} "
            f"sample_rate_hz={cfg.sample_rate_hz} numpy={np.__version__} "
            f"crc32={crc:08x}")


@settings(ROUND_TRIP, max_examples=60)
@given(n_items=st.integers(1, 3),
       tau=st.one_of(st.just("uniform"), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 31),
       rate=st.sampled_from([8000, MAX_RATE, MAX_RATE + 1]),
       n_samples=st.sampled_from([2, 15, 16, 17]),
       past_cap=st.sampled_from([None, False, True]))
def test_store_round_trips_or_is_refused(capped, n_items, tau, seed, rate,
                                         n_samples, past_cap):
    # n_samples / rate rounds back to n_samples at these rates
    if rate > MAX_RATE or n_samples > 16:
        with pytest.raises(ParameterError):
            DatasetConfig(n_samples / rate, rate)
        return
    cfg = DatasetConfig(n_samples / rate, rate)
    sampler = tau if tau == "uniform" else repr(tau)
    length = len(_store_header(n_items, sampler, seed, cfg, 0))
    # the header line at the cap, one byte past it, or well inside it
    cap = length + 4096 if past_cap is None else length - past_cap
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        mp.setattr(signal, "_CHECKPOINT_HEADER_LIMIT", cap)
        store = Path(tmp) / "set.adfd"
        if past_cap:
            with pytest.raises(ParameterError):
                make_dataset(n_items, tau, cfg, seed, store=store)
            assert _written(Path(tmp)) == []
            return
        stored = make_dataset(n_items, tau, cfg, seed, store=store)
        data = store.read_bytes()
        again = make_dataset(n_items, tau, cfg, seed, store=store)
        assert store.read_bytes() == data  # a hit rewrites nothing
        header, payload = data.split(b"\n", 1)
        assert header.decode() == _store_header(n_items, sampler, seed, cfg,
                                                zlib.crc32(payload))
        plain = make_dataset(n_items, tau, cfg, seed)
        for items in (stored, again):
            assert [w.samples.tobytes() for item in items
                    for w in (item.s1, item.e, item.b)] == \
                [w.samples.tobytes() for item in plain
                 for w in (item.s1, item.e, item.b)]
