"""Desk-scale evaluation: SI-SDR, log-spectral distance, embedding cosine.

Signals may be Waveforms, arrays, or `SpectralRecord`s; a record built with
`keep_db=True` at the LSD framing lets one STFT serve both LSD and SIM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ShapeError
# stft is bound here by name so that perfbench's tracer, which rebinds it in
# every spectral consumer, finds it; spectra come from spectral_record.
from .signal import (DEFAULT_HOP, DEFAULT_N_FFT,  # noqa: F401
                     SpectralRecord, Waveform, samples_of, spectral_record,
                     stft)

SI_SDR_CAP_DB = 100.0

REPORT_COLUMNS = ("tau_true", "tau_hat", "nfe_used", "si_sdr_db",
                  "si_sdr_improvement_db", "lsd_db", "sim_cosine")


def si_sdr(est, ref_) -> float:
    """Scale-invariant SDR in dB, capped at +-100."""
    est, ref_ = samples_of(est), samples_of(ref_)
    if est.shape != ref_.shape:
        raise ShapeError("est and ref must have equal length")
    ref_energy = float(np.dot(ref_, ref_))
    if ref_energy == 0.0:
        raise DegenerateInputError("reference signal is all zero")
    alpha = float(np.dot(est, ref_)) / ref_energy
    target = alpha * ref_
    resid = est - target
    e_target = float(np.dot(target, target))
    e_resid = float(np.dot(resid, resid))
    if e_resid == 0.0:
        return SI_SDR_CAP_DB
    if e_target == 0.0:
        return -SI_SDR_CAP_DB
    val = 10.0 * np.log10(e_target / e_resid)
    return float(np.clip(val, -SI_SDR_CAP_DB, SI_SDR_CAP_DB))


def lsd(est, ref_, n_fft: int = DEFAULT_N_FFT,
        hop: int = DEFAULT_HOP) -> float:
    """RMS difference of 10*log10 magnitudes over frames and bins, in dB."""
    est, ref_ = (w if isinstance(w, (Waveform, SpectralRecord))
                 else Waveform(np.asarray(w)) for w in (est, ref_))
    if samples_of(est).size != samples_of(ref_).size:
        raise ShapeError("est and ref must have equal length")
    a = spectral_record(est, n_fft, hop, keep_db=True).db
    b = spectral_record(ref_, n_fft, hop, keep_db=True).db
    return float(np.sqrt(np.mean((a - b) ** 2)))


def sim(est, ref_, extractor, ref_embedding=None) -> float:
    """Cosine similarity between embeddings of estimate and reference.

    `ref_embedding`, when given, is `extractor(ref_)` computed earlier.
    """
    a = np.asarray(extractor(est), dtype=np.float64)
    b = np.asarray(extractor(ref_) if ref_embedding is None
                   else ref_embedding, dtype=np.float64)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("zero-norm embedding")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


@dataclass(frozen=True)
class EvalReport:
    si_sdr_db: float
    si_sdr_improvement_db: float
    lsd_db: float
    sim_cosine: float
    nfe_used: int
    tau_true: float
    tau_hat: float

    def __post_init__(self):
        if not all(np.isfinite(getattr(self, c)) for c in REPORT_COLUMNS):
            raise DegenerateInputError("report fields must be finite")

    def csv_row(self) -> list:
        """Values in REPORT_COLUMNS order, formatted deterministically."""
        return [str(int(self.nfe_used)) if col == "nfe_used"
                else repr(float(getattr(self, col))) for col in REPORT_COLUMNS]


def scorer(x, s1, extractor, n_fft: int = DEFAULT_N_FFT,
           hop: int = DEFAULT_HOP):
    """The scores of estimates of s1 from the mixture x, as a function.

    `score(est)` returns SI-SDR, its improvement over the mixture, LSD and
    SIM of est against s1; s1 and est are Waveforms or their records. What
    does not depend on the estimate (s1's record, its SIM embedding and
    si_sdr(x, s1)) is computed once, here. Each call builds the estimate's
    record once, with the dB matrix at the LSD framing, for all three.
    """
    s1 = spectral_record(s1, n_fft, hop, keep_db=True)
    embedding = np.asarray(extractor(s1), dtype=np.float64)
    mixture_si_sdr_db = si_sdr(x, s1)

    def score(est) -> dict:
        est = spectral_record(est, n_fft, hop, keep_db=True)
        sdr = si_sdr(est, s1)
        return {"si_sdr_db": sdr,
                "si_sdr_improvement_db": sdr - mixture_si_sdr_db,
                "lsd_db": lsd(est, s1, n_fft, hop),
                "sim_cosine": sim(est, s1, extractor, embedding)}

    return score
