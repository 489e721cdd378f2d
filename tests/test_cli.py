import dataclasses
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from adflow import cli, metrics, mrnet, sampler, signal, velnet
from adflow.cli import (RunConfig, load_config, main, parse_config_text)
from adflow.errors import ConfigError
from adflow.signal import make_dataset, read_wav, write_wav, DatasetConfig

SMALL_CONFIG = """
# desk-scale smoke configuration
seed = 0
n_train = 8
n_eval = 4
duration_s = 0.125
epochs = 5
batch_size = 4
lr_init = 1e-3
lr_min = 1e-4
max_nfe = 3
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One trained tiny run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli_run")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(SMALL_CONFIG + f"output_dir = {root / 'out'}\n",
                        "utf-8")
    for command in ("gen-data", "train-vel", "train-mr", "ablate",
                    "nfe-sweep"):
        assert main([command, "--config", str(cfg_path)]) == 0
    return root


def _cfg(run_dir):
    return load_config(run_dir / "run.cfg")


# ---------------------------------------------------------------------------
# Config parsing

def test_parse_config_comments_and_values():
    parsed = parse_config_text("seed=3  # trailing comment\n\n# full line\n"
                               "duration_s = 0.25\n")
    assert parsed == {"seed": 3, "duration_s": 0.25}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("learning_rate = 1e-3\n")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("seed = fast\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_load_config_applies_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\n", "utf-8")
    cfg = load_config(path, {"seed": "7", "max_nfe": "9"})
    assert cfg.seed == 7 and cfg.max_nfe == 9


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_defaults_follow_reference_settings():
    cfg = RunConfig()
    assert cfg.lr_init == 1e-4 and cfg.lr_min == 1e-5
    assert cfg.warmup_epochs == 5 and cfg.t_max_epochs == 50
    assert cfg.weight_decay == 0.01 and cfg.grad_clip == 0.5
    assert cfg.max_nfe == 5 and cfg.sigma_min == 0.0 and cfg.sigma_max == 0.0


# ---------------------------------------------------------------------------
# Exit codes

def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n", "utf-8")
    assert main(["gen-data", "--config", str(bad)]) == 2


@pytest.mark.parametrize("command, args", [
    ("train-vel", ["--seed", "-1"]),
    ("train-mr", ["--seed", "-1"]),
    ("gen-data", ["--set", "duration_s=nan"]),
    ("gen-data", ["--set", "duration_s=inf"]),
    ("train-vel", ["--set", "lr_init=-inf"]),
], ids=["train_vel_negative_seed", "train_mr_negative_seed",
        "duration_nan", "duration_inf", "lr_init_minus_inf"])
def test_exit_code_bad_config_value(tmp_path, capsys, command, args):
    assert main([command, "--out", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(tmp_path.iterdir())


def test_exit_code_io_error(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"output_dir = {tmp_path / 'empty'}\nn_eval = 2\n"
                   "duration_s = 0.125\n", "utf-8")
    # ablate before training: checkpoints missing
    assert main(["ablate", "--config", str(cfg)]) == 4


def _copy_checkpoints(run_dir, dest: Path) -> Path:
    dest.mkdir()
    for name in ("velnet.ckpt", "mrnet.ckpt"):
        shutil.copy(Path(_cfg(run_dir).output_dir) / name, dest / name)
    return dest


def _edit_header(path: Path, edit) -> None:
    header, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(edit(header) + b"\n" + rest)


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])


CORRUPT_CHECKPOINTS = {
    "velnet_truncated": lambda ck: _truncate(ck / "velnet.ckpt"),
    "velnet_dims_not_int": lambda ck: _edit_header(
        ck / "velnet.ckpt", lambda h: re.sub(rb"dims=\d+", b"dims=x", h)),
    "velnet_header_without_pairs": lambda ck: _edit_header(
        ck / "velnet.ckpt", lambda h: b"ADFLOW-VELNET v1 no pairs here"),
    "mrnet_without_feat_n_fft": lambda ck: _edit_header(
        ck / "mrnet.ckpt", lambda h: re.sub(rb" feat_n_fft=\d+", b"", h)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPT_CHECKPOINTS))
def test_exit_code_corrupt_checkpoint(run_dir, tmp_path, corruption):
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    CORRUPT_CHECKPOINTS[corruption](ck)
    assert main(["ablate", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck), "--out", str(tmp_path / "o")]) == 4


def _nan_first_weight(path: Path) -> None:
    # the first tensor of both checkpoints is a matrix: its data starts after
    # the header line, the magic, the rank and two dims
    data = bytearray(path.read_bytes())
    start = data.index(b"\n") + 1 + 16
    data[start:start + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", ["velnet", "mrnet"])
def test_exit_code_nonfinite_checkpoint(run_dir, tmp_path, capsys, name):
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    _nan_first_weight(ck / f"{name}.ckpt")
    assert main(["ablate", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck), "--out", str(tmp_path / "o")]) == 4
    assert "non-finite values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ablate", "nfe-sweep"])
def test_config_rate_differs_from_checkpoint(run_dir, tmp_path, capsys,
                                             command):
    # 8 kHz items must not run through nets trained at 16 kHz
    cfg = _cfg(run_dir)
    assert main([command, "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", cfg.output_dir, "--out", str(tmp_path),
                 "--set", "sample_rate_hz=8000"]) == 4
    assert "but the checkpoints were trained at 16000 Hz" in \
        capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["train-vel", "train-mr"])
def test_exit_code_training_divergence(run_dir, tmp_path, capsys, command):
    assert main([command, "--config", str(run_dir / "run.cfg"),
                 "--out", str(tmp_path), "--set", "lr_init=1e300",
                 "--set", "lr_min=1e300"]) == 3
    assert "non-finite loss at epoch 0" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["train-vel", "train-mr"])
def test_exit_code_last_step_divergence(run_dir, tmp_path, capsys, command):
    # one batch, one step: no loss is computed after the step that diverges
    assert main([command, "--config", str(run_dir / "run.cfg"),
                 "--out", str(tmp_path), "--set", "n_train=4",
                 "--set", "batch_size=4", "--set", "epochs=1",
                 "--set", "lr_init=1e300", "--set", "lr_min=1e300"]) == 3
    assert "after the last step of epoch 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.ckpt"))


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_outputs(run_dir):
    out = Path(_cfg(run_dir).output_dir)
    manifest = (out / "manifest.csv").read_text("utf-8").strip().splitlines()
    assert manifest[0] == ("item_id,tau,target_id_seed,interferer_id_seeds,"
                           "noise_weight")
    assert len(manifest) == 1 + 4  # header + n_eval rows
    for i in range(4):
        for tag in ("x", "e", "s1", "b"):
            assert (out / "dataset" / f"item_{i:04d}_{tag}.wav").exists()
            assert (out / "dataset" / f"item_{i:04d}_{tag}.adft").exists()


def test_gen_data_manifest_tau_matches_oracle(run_dir):
    cfg = _cfg(run_dir)
    out = Path(cfg.output_dir)
    rows = (out / "manifest.csv").read_text("utf-8").strip().splitlines()[1:]
    items = make_dataset(cfg.n_eval, "uniform",
                         DatasetConfig(cfg.duration_s, cfg.sample_rate_hz),
                         cfg.seed + 1)
    for row, item in zip(rows, items):
        tau = float(row.split(",")[1])
        recomputed = mrnet.mr_oracle_lsq(item.x, item.s1, item.b)
        assert abs(tau - recomputed) < 1e-9


def test_effective_config_reproduces_run(run_dir, tmp_path):
    cfg = _cfg(run_dir)
    echoed = Path(cfg.output_dir) / "effective_config.txt"
    assert main(["gen-data", "--config", str(echoed),
                 "--out", str(tmp_path / "replay")]) == 0
    a = (Path(cfg.output_dir) / "manifest.csv").read_bytes()
    b = (tmp_path / "replay" / "manifest.csv").read_bytes()
    assert a == b


# ---------------------------------------------------------------------------
# Training commands

def test_loss_csvs(run_dir):
    out = Path(_cfg(run_dir).output_dir)
    for name in ("train_vel_loss.csv", "train_mr_loss.csv"):
        lines = (out / name).read_text("utf-8").strip().splitlines()
        assert lines[0] == "epoch,lr,loss"
        assert len(lines) == 1 + 5  # header + epochs
        losses = [float(line.split(",")[2]) for line in lines[1:]]
        assert losses[-1] < losses[0]


def test_checkpoints_loadable(run_dir):
    out = Path(_cfg(run_dir).output_dir)
    net = velnet.load_velnet(out / "velnet.ckpt")
    reg = mrnet.load_mrnet(out / "mrnet.ckpt")
    assert net.frame_len == 64
    assert reg.feat_n_fft == 256


def test_checkpoint_without_sample_rate_reads_16k(run_dir, tmp_path):
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    for name in ("velnet.ckpt", "mrnet.ckpt"):
        _edit_header(ck / name,
                     lambda h: re.sub(rb" sample_rate_hz=\d+", b"", h))
        header = (ck / name).read_bytes().split(b"\n", 1)[0]
        assert b"sample_rate_hz" not in header
    assert velnet.load_velnet(ck / "velnet.ckpt").sample_rate_hz == 16000
    assert mrnet.load_mrnet(ck / "mrnet.ckpt").sample_rate_hz == 16000


def test_train_rerun_byte_identical(run_dir, tmp_path):
    cfg_path = run_dir / "run.cfg"
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train-vel", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        outs.append((out / "train_vel_loss.csv").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# ablate

def test_ablation_csv_shape_and_invariants(run_dir):
    out = Path(_cfg(run_dir).output_dir)
    lines = (out / "ablation.csv").read_text("utf-8").strip().splitlines()
    header = lines[0].split(",")
    assert header == ["item_id", "mr_source", "field",
                      *metrics.REPORT_COLUMNS]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4 * 5 * 2  # items x sources x fields
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        if row[col["mr_source"]] == "tau1":
            # passthrough: scores unchanged from the mixture
            assert float(row[col["si_sdr_improvement_db"]]) == 0.0
            assert int(row[col["nfe_used"]]) == 0
        if row[col["mr_source"]] == "oracle" and row[col["field"]] == "oracle":
            assert float(row[col["si_sdr_db"]]) == metrics.SI_SDR_CAP_DB


def test_ablation_ordering_with_oracle_field(run_dir):
    # With the exact field, better tau seeding can only help.
    out = Path(_cfg(run_dir).output_dir)
    lines = (out / "ablation.csv").read_text("utf-8").strip().splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    means = {}
    for src in ("oracle", "estimated", "random"):
        vals = [float(r[col["si_sdr_db"]])
                for r in (line.split(",") for line in lines[1:])
                if r[col["mr_source"]] == src and r[col["field"]] == "oracle"]
        means[src] = np.mean(vals)
    assert means["oracle"] >= means["estimated"] >= means["random"]


# ---------------------------------------------------------------------------
# nfe-sweep

def test_nfe_sweep_outputs(run_dir):
    out = Path(_cfg(run_dir).output_dir)
    lines = (out / "nfe_sweep.csv").read_text("utf-8").strip().splitlines()
    assert lines[0] == "max_nfe,mean_si_sdr_db,mean_lsd_db,mean_sim_cosine"
    assert [line.split(",")[0] for line in lines[1:]] == \
        [str(n) for n in cli.NFE_SWEEP_VALUES]
    # the SVG must be well-formed XML
    ET.fromstring((out / "nfe_sweep.svg").read_text("utf-8"))


def test_nfe_sweep_oracle_field_flat(run_dir, tmp_path):
    out = tmp_path / "sweep_oracle"
    assert main(["nfe-sweep", "--config", str(run_dir / "run.cfg"),
                 "--out", str(out), "--checkpoints",
                 str(_cfg(run_dir).output_dir), "--field", "oracle"]) == 0
    lines = (out / "nfe_sweep.csv").read_text("utf-8").strip().splitlines()
    sdrs = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(sdrs) - min(sdrs) < 1e-9


# ---------------------------------------------------------------------------
# extract

def test_extract_end_to_end(run_dir, tmp_path):
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    out_wav = tmp_path / "est.wav"
    result = cli.cmd_extract(cfg, data / "item_0000_x.wav",
                             data / "item_0000_e.wav", out_wav,
                             reference=data / "item_0000_s1.wav",
                             ckpt_dir=cfg.output_dir)
    assert 0.0 < result["tau_hat"] < 1.0
    assert out_wav.exists()
    est = read_wav(out_wav)
    assert len(est) == len(read_wav(data / "item_0000_x.wav"))
    # re-running the same pipeline reproduces the reported metrics exactly
    net = velnet.load_velnet(Path(cfg.output_dir) / "velnet.ckpt")
    reg = mrnet.load_mrnet(Path(cfg.output_dir) / "mrnet.ckpt")
    x = read_wav(data / "item_0000_x.wav")
    e = read_wav(data / "item_0000_e.wav")
    ref = read_wav(data / "item_0000_s1.wav")
    policy = sampler.NfePolicy(max_nfe=cfg.max_nfe, epsilon=cfg.epsilon)
    est2, tau_hat, nfe = sampler.extract_adaptive(
        x, e, sampler.regressor_mr(reg), sampler.NetField(net, e), policy)
    assert result["tau_hat"] == tau_hat
    assert result["nfe_used"] == nfe
    assert result["si_sdr_db"] == metrics.si_sdr(est2, ref)
    assert result["lsd_db"] == metrics.lsd(est2, ref, cfg.n_fft, cfg.hop)


def _set_fmt_chunk_size(data: bytes) -> bytes:
    # a fmt chunk size past the end of the file
    return data[:16] + (2 ** 31).to_bytes(4, "little") + data[20:]


MALFORMED_WAVS = {
    "odd_bytes": lambda data: data[:-1],
    "header_only": lambda data: data[:30],
    "bad_chunk": _set_fmt_chunk_size,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WAVS))
def test_extract_malformed_wav(run_dir, tmp_path, capsys, case):
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    bad = tmp_path / "x.wav"
    bad.write_bytes(MALFORMED_WAVS[case]((data / "item_0000_x.wav")
                                         .read_bytes()))
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(cfg.output_dir), "--in", str(bad),
                 "--enroll", str(data / "item_0000_e.wav"),
                 "--out-wav", str(tmp_path / "o.wav")]) == 4
    assert "x.wav" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_extract_rate_mismatch(run_dir, tmp_path):
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    wrong = read_wav(data / "item_0000_e.wav")
    resampled = tmp_path / "e8k.wav"
    write_wav(resampled, type(wrong)(wrong.samples, sample_rate_hz=8000))
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(cfg.output_dir),
                 "--in", str(data / "item_0000_x.wav"),
                 "--enroll", str(resampled),
                 "--out-wav", str(tmp_path / "o.wav")]) == 4


def test_extract_rate_differs_from_checkpoint(run_dir, tmp_path):
    # mixture and enrollment agree with each other, not with the 16 kHz nets
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    paths = {}
    for tag in ("x", "e"):
        w = read_wav(data / f"item_0000_{tag}.wav")
        paths[tag] = tmp_path / f"{tag}8k.wav"
        write_wav(paths[tag], type(w)(w.samples, sample_rate_hz=8000))
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(cfg.output_dir),
                 "--in", str(paths["x"]), "--enroll", str(paths["e"]),
                 "--out-wav", str(tmp_path / "o.wav")]) == 4
    assert not (tmp_path / "o.wav").exists()


# ---------------------------------------------------------------------------
# Work counts and determinism

def test_stft_calls_per_item(run_dir, tmp_path, monkeypatch):
    # one STFT per waveform: x, e, s1 and each estimate of an item
    calls = []
    real_stft = signal.stft

    def counting_stft(*args, **kwargs):
        calls.append(1)
        return real_stft(*args, **kwargs)

    for module in (signal, velnet, mrnet, metrics):
        monkeypatch.setattr(module, "stft", counting_stft)
    ck = _cfg(run_dir).output_dir
    cfg = dataclasses.replace(_cfg(run_dir), output_dir=str(tmp_path))
    data = Path(ck) / "dataset"

    def per_item(run, items):
        calls.clear()
        run()
        return len(calls) / items

    assert per_item(lambda: cli.cmd_ablate(cfg, ck), cfg.n_eval) <= 13
    assert per_item(lambda: cli.cmd_nfe_sweep(cfg, ck), cfg.n_eval) <= 8
    assert per_item(lambda: cli.cmd_extract(
        cfg, data / "item_0000_x.wav", data / "item_0000_e.wav",
        tmp_path / "o.wav", reference=data / "item_0000_s1.wav",
        ckpt_dir=ck), 1) <= 4


def test_ablate_independent_of_blas_threads(run_dir, tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "adflow", "ablate",
                        "--config", str(run_dir / "run.cfg"),
                        "--checkpoints", _cfg(run_dir).output_dir,
                        "--out", str(out)], env=env, check=True, timeout=600)
        outs.append((out / "ablation.csv").read_bytes())
    assert outs[0] == outs[1]
