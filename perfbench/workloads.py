"""Workload rounds and output checks, all through ``adflow.cli.main``.

A round is one closed-loop pass of a workload, one client in one process:

- train:    ``train-vel`` then ``train-mr`` from one config
- evaluate: ``ablate`` then ``nfe-sweep`` on already trained checkpoints
- serve:    ``gen-data`` writes the eval set, then one ``extract --reference``
            call per item, each waiting for the last

Every round checks its outputs (pinned CSV headers, finite values, the
ablation invariants, extract output length) and, when it ran the seed of
the first round, that its outputs are byte-identical to the first round's.
"""

from __future__ import annotations

import contextlib
import io
import math
import wave
from pathlib import Path
from time import perf_counter, process_time

from adflow import cli
from calibrate import Calibration

# Training hyperparameters shared by every config; sizes are per workload.
BASE_CONFIG = {
    "duration_s": 0.5, "sample_rate_hz": 16000, "n_fft": 256, "hop": 64,
    "max_nfe": 5, "epsilon": 1e-3, "lr_init": 3e-3, "lr_min": 1e-4,
    "warmup_epochs": 2, "t_max_epochs": 5, "epochs": 5, "weight_decay": 0.01,
    "grad_clip": 0.5, "batch_size": 16, "n_train": 64, "n_eval": 12,
}
LOOP_SIZES = {"train": {"n_train": 64}, "evaluate": {"n_eval": 12},
              "serve": {"n_eval": 24}}

LOSS_HEADER = "epoch,lr,loss"
ABLATION_HEADER = ("item_id,mr_source,field,tau_true,tau_hat,nfe_used,"
                   "si_sdr_db,si_sdr_improvement_db,lsd_db,sim_cosine")
NFE_SWEEP_HEADER = "max_nfe,mean_si_sdr_db,mean_lsd_db,mean_sim_cosine"
MANIFEST_HEADER = "item_id,tau,target_id_seed,interferer_id_seeds,noise_weight"
NFE_SWEEP_VALUES = ("1", "2", "5", "10", "20")
# Oracle tau with the oracle field lands on the target up to rounding, which
# the SI-SDR cap (100 dB) turns into a value at or near the cap.
ORACLE_SI_SDR_MIN_DB = 90.0


def write_config(path: Path, seed: int, out_dir: Path, sizes: dict) -> None:
    values = {**BASE_CONFIG, **sizes, "seed": seed, "output_dir": out_dir}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                    "utf-8")


def read_config(path: Path) -> dict:
    return vars(cli.load_config(path))


class Checks:
    """Counts operations attempted and failed (commands, calls, checks)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures.extend(other["failures"])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


def run_cli(*argv: str):
    """One closed-loop call of the CLI entry point: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def read_csv(checks: Checks, path: Path, header: str, n_rows: int,
             numeric=None):
    """Rows of a CSV after checking its header, row count and finiteness.

    ``numeric`` lists the columns that must parse as finite numbers
    (default: all of them).
    """
    if not checks(path.is_file(), f"{path.name} missing"):
        return []
    lines = path.read_text("utf-8").splitlines()
    checks(bool(lines) and lines[0] == header, f"{path.name} header changed")
    rows = [line.split(",") for line in lines[1:]]
    checks(len(rows) == n_rows, f"{path.name}: {len(rows)} rows, "
           f"expected {n_rows}")
    cols = header.split(",")
    numeric = cols if numeric is None else numeric
    pos = [cols.index(c) for c in numeric]
    checks(all(len(r) == len(cols) and all(_finite(r[p]) for p in pos)
               for r in rows), f"{path.name}: non-finite or missing value")
    return rows


class Workload:
    """Runs rounds of one workload and keeps what they measured."""

    def __init__(self, name: str, config: Path, ckpt_dir: Path | None,
                 checks: Checks, calibration: Calibration | None = None):
        self.name = name
        self.config = config
        self.cfg = read_config(config)
        self.out = Path(self.cfg["output_dir"])
        self.ckpt_dir = ckpt_dir
        self.checks = checks
        self.calibration = calibration
        # command -> [start, CPU seconds, round, wall seconds] per call; the
        # CPU time is what run.py scales and reports (see calibrate.py).
        self.calls: dict[str, list] = {}
        self.work: dict[str, int] = {}     # command -> items (x epochs) per call
        self.reference: dict[str, bytes] = {}
        self.rounds = 0
        self._cpu = 0.0
        self._seed = self._first_seed = None

    @property
    def items(self) -> int:
        """Items handled by one round."""
        return self.cfg["n_train"] if self.name == "train" \
            else self.cfg["n_eval"]

    def round(self, seed: int) -> float:
        """Run one round on inputs from ``seed``; returns the CPU seconds
        of its CLI calls."""
        self._cpu = 0.0
        self._seed = seed
        getattr(self, f"_{self.name}")()
        self.rounds += 1
        return self._cpu

    def _cli(self, *argv: str, work: int | None = None):
        """One timed CLI call with the config; returns (ok, stdout)."""
        t0, c0 = perf_counter(), process_time()
        code, stdout = run_cli(*argv, "--config", str(self.config),
                               "--seed", str(self._seed))
        cpu, wall = process_time() - c0, perf_counter() - t0
        if self.calibration is not None:
            self.calibration.catch_up()
        self._cpu += cpu
        ok = self.checks(code == 0, f"adflow {argv[0]} exited {code}")
        if ok:
            self.calls.setdefault(argv[0], []).append(
                [t0, cpu, self.rounds, wall])
            self.work[argv[0]] = work
        return ok, stdout

    def _same_as_first(self, label: str, path: Path) -> None:
        """Check an output against the first round's, if it had this seed."""
        if not self.checks(path.is_file(), f"{path} missing"):
            return
        if self._first_seed is None:
            self._first_seed = self._seed
        if self._seed == self._first_seed:
            data = path.read_bytes()
            first = self.reference.setdefault(label, data)
            self.checks(data == first, f"{label} differs from the first round")

    def _ckpt_args(self):
        return ("--checkpoints", str(self.ckpt_dir)) if self.ckpt_dir else ()

    # -- rounds --------------------------------------------------------------

    def _train(self):
        for cmd, csv in (("train-vel", "train_vel_loss.csv"),
                         ("train-mr", "train_mr_loss.csv")):
            self._cli(cmd, work=self.cfg["n_train"] * self.cfg["epochs"])
            read_csv(self.checks, self.out / csv, LOSS_HEADER,
                     self.cfg["epochs"])
            self._same_as_first(csv, self.out / csv)

    def _evaluate(self):
        n = self.cfg["n_eval"]
        self._cli("ablate", *self._ckpt_args(), work=n)
        self.check_ablation(self.out / "ablation.csv")
        self._cli("nfe-sweep", *self._ckpt_args(), work=n)
        rows = read_csv(self.checks, self.out / "nfe_sweep.csv",
                        NFE_SWEEP_HEADER, len(NFE_SWEEP_VALUES))
        self.checks(tuple(r[0] for r in rows) == NFE_SWEEP_VALUES,
                    "nfe_sweep.csv max_nfe column changed")
        for csv in ("ablation.csv", "nfe_sweep.csv"):
            self._same_as_first(csv, self.out / csv)

    def check_ablation(self, path: Path) -> list:
        rows = read_csv(self.checks, path, ABLATION_HEADER,
                        10 * self.cfg["n_eval"],
                        numeric=ABLATION_HEADER.split(",")[3:])
        col = {c: i for i, c in enumerate(ABLATION_HEADER.split(","))}
        for r in rows:
            if r[col["mr_source"]] == "tau1":
                self.checks(r[col["nfe_used"]] == "0"
                            and r[col["si_sdr_improvement_db"]] == "0.0",
                            f"tau1 row of item {r[0]} is not a passthrough")
            elif (r[col["mr_source"]], r[col["field"]]) == ("oracle", "oracle") \
                    and r[col["nfe_used"]] != "0":
                self.checks(float(r[col["si_sdr_db"]]) >= ORACLE_SI_SDR_MIN_DB,
                            f"oracle x oracle row of item {r[0]} below "
                            f"{ORACLE_SI_SDR_MIN_DB} dB")
        return rows

    def _serve(self):
        # A fresh directory per round: overwriting the files of the last
        # round made gen-data half again slower (truncation frees blocks).
        n = self.cfg["n_eval"]
        out = serve_dir(self.out, self.rounds)
        self._cli("gen-data", "--out", str(out), work=n)
        read_csv(self.checks, out / "manifest.csv", MANIFEST_HEADER, n,
                 numeric=("item_id", "tau", "noise_weight"))
        self._same_as_first("manifest.csv", out / "manifest.csv")
        data = out / "dataset"
        extracted = out / "extracted"
        extracted.mkdir(exist_ok=True)
        for i in range(n):
            self._extract(data / f"item_{i:04d}", extracted / f"{i:04d}.wav")

    def _extract(self, stem: Path, out_wav: Path) -> None:
        x = f"{stem}_x.wav"
        ok, stdout = self._cli(
            "extract", *self._ckpt_args(), "--in", x, "--enroll",
            f"{stem}_e.wav", "--out-wav", str(out_wav), "--reference",
            f"{stem}_s1.wav")
        if not ok:
            return
        values = dict(tok.partition("=")[::2] for tok in stdout.split())
        self.checks(set(values) == {"tau_hat", "nfe_used", "si_sdr_db",
                                    "si_sdr_improvement_db", "lsd_db",
                                    "sim_cosine"}
                    and all(_finite(v) for v in values.values()),
                    f"extract {stem.name}: unexpected report {stdout!r}")
        if not self.checks(out_wav.is_file(), f"{out_wav} missing"):
            return
        with wave.open(x, "rb") as fin, wave.open(str(out_wav), "rb") as fout:
            self.checks(fout.getnframes() == fin.getnframes(),
                        f"extract {stem.name}: output length differs")
        self._same_as_first(f"extract {stem.name}", out_wav)


def serve_dir(out: Path, round_index: int) -> Path:
    """Where round ``round_index`` of the serve workload writes."""
    return out / f"serve{round_index}"


def loss_tail(path: Path) -> float:
    """Loss of the last epoch in a loss CSV."""
    return float(path.read_text("utf-8").splitlines()[-1].split(",")[-1])
