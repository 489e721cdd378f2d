import argparse
import dataclasses
import errno
import inspect
import io
import math
import os
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
import wave
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from adflow import cli, flowpath, metrics, mrnet, sampler, signal, velnet
from adflow.cli import (RunConfig, load_config, main, parse_config_text)
from adflow.errors import ConfigError, FileFormatError
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
    # each sub-config takes the RunConfig fields of its names, and their
    # defaults must agree
    for cls in (DatasetConfig, velnet.TrainConfig, flowpath.PathParams,
                sampler.NfePolicy):
        assert cli._part(cls, cfg) == cls()


# ---------------------------------------------------------------------------
# Exit codes

def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n", "utf-8")
    assert main(["gen-data", "--config", str(bad)]) == 2


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"seed = 1\n# \xff\n")
    out = tmp_path / "out"
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_config_file_unreadable_exits_2(tmp_path, capsys):
    # a directory opens, but reading it raises IsADirectoryError
    cfg = tmp_path / "c.cfg"
    cfg.mkdir()
    assert main(["gen-data", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("name", ["o_\udcff", "o_\0"],
                         ids=["surrogate", "nul"])
def test_output_dir_unusable_exits_2_before_writing(tmp_path, capsys, name):
    # a shell's --out $'\xff' arrives as the surrogate
    assert main(["gen-data", "--out", str(tmp_path / name)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(tmp_path.iterdir())


BAD_CONFIG_VALUES = {
    "train_vel_negative_seed": ("train-vel", ["--seed", "-1"]),
    "train_mr_negative_seed": ("train-mr", ["--seed", "-1"]),
    "duration_nan": ("gen-data", ["--set", "duration_s=nan"]),
    "duration_inf": ("gen-data", ["--set", "duration_s=inf"]),
    "lr_init_minus_inf": ("train-vel", ["--set", "lr_init=-inf"]),
    "duration_1e300": ("gen-data", ["--set", "duration_s=1e300"]),
    "duration_past_sample_cap": ("gen-data", ["--set", "duration_s=1e5"]),
    "sample_rate_zero": ("gen-data", ["--set", "sample_rate_hz=0"]),
    "duration_zero": ("gen-data", ["--set", "duration_s=0"]),
    "duration_negative": ("gen-data", ["--set", "duration_s=-1"]),
    "duration_under_one_sample": ("gen-data", ["--set", "duration_s=1e-9"]),
    "set_without_equals": ("gen-data", ["--set", "epochs"]),
    "set_unknown_key": ("gen-data", ["--set", "nosuchkey=1"]),
    "n_eval_zero": ("gen-data", ["--set", "n_eval=0"]),
    "n_train_zero": ("train-vel", ["--set", "n_train=0"]),
    "gen_data_epochs_zero": ("gen-data", ["--set", "epochs=0"]),
    "epochs_zero": ("train-mr", ["--set", "epochs=0"]),
    "t_max_epochs_zero": ("train-mr", ["--set", "t_max_epochs=0"]),
    "lr_init_negative": ("train-mr", ["--set", "lr_init=-1"]),
    "grad_clip_zero": ("train-mr", ["--set", "grad_clip=0"]),
    "batch_size_zero": ("train-mr", ["--set", "batch_size=0"]),
    "max_nfe_zero": ("ablate", ["--set", "max_nfe=0"]),
    "max_nfe_past_cap": ("ablate", ["--set",
                                    f"max_nfe={sampler.MAX_NFE + 1}"]),
    "epsilon_half": ("ablate", ["--set", "epsilon=0.5"]),
    "hop_zero": ("ablate", ["--set", "hop=0"]),
    "n_fft_cola": ("ablate", ["--set", "n_fft=100"]),
    # 2^18 + 1 frames of 256 at hop 1: 0.5 s at 600 kHz is 300,000 samples
    "stft_past_cap": ("ablate", ["--set", "n_fft=256", "--set", "hop=1",
                                 "--set", "sample_rate_hz=600000"]),
    "n_fft_past_cap": ("train-mr", ["--set", f"n_fft={signal.MAX_N_FFT + 2}",
                                    "--set", "hop=32"]),
    "sigma_min_negative": ("ablate", ["--set", "sigma_min=-1"]),
    # 16,778 items of 8,000 samples are past cli.MAX_DATASET_SAMPLES
    "n_train_past_cap": ("train-vel", ["--set", "n_train=16778"]),
    "n_eval_past_cap": ("gen-data", ["--set", "n_eval=16778"]),
    # one sample at 2^40 Hz, past what a WAV header holds
    "sample_rate_past_wav_cap": ("gen-data", [
        "--set", "sample_rate_hz=1099511627776", "--set", "duration_s=1e-12",
        "--set", "n_eval=1"]),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_exit_code_bad_config_value(tmp_path, capsys, case):
    command, args = BAD_CONFIG_VALUES[case]
    assert main([command, "--out", str(tmp_path), *args]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not any(tmp_path.iterdir())


def test_load_config_sample_cap_is_inclusive():
    # 8 items of 2^24 samples also sit at cli.MAX_DATASET_SAMPLES
    cap = load_config(None, {"duration_s": str(signal.MAX_WAVEFORM_SAMPLES
                                               / 16000),
                             "n_train": "8", "n_eval": "8"})
    assert round(cap.duration_s * cap.sample_rate_hz) == \
        signal.MAX_WAVEFORM_SAMPLES
    with pytest.raises(ConfigError, match="samples per waveform"):
        load_config(None, {"duration_s": str(cap.duration_s + 1e-4)})


# Each pair sits at a cap and one past it. Only load_config sees these
# values: a command run at the cap would allocate gigabytes.
CAPS = {
    "max_nfe": ({"max_nfe": sampler.MAX_NFE}, "max_nfe"),
    "n_fft": ({"n_fft": signal.MAX_N_FFT}, "n_fft"),
    # 2^18 frames of 256 at hop 1 need 2^18 + 255 samples
    "stft_frames": ({"n_fft": 256, "hop": 1, "duration_s": 1.0,
                     "sample_rate_hz": 2 ** 18 + 255}, "sample_rate_hz"),
    # 2^17 items of 2^10 samples
    "n_train": ({"n_train": 2 ** 17, "duration_s": 1.0,
                 "sample_rate_hz": 2 ** 10}, "n_train"),
    "n_eval": ({"n_eval": 2 ** 17, "duration_s": 1.0,
                "sample_rate_hz": 2 ** 10}, "n_eval"),
    # 64 samples per waveform
    "sample_rate_hz": ({"sample_rate_hz": signal.MAX_SAMPLE_RATE_HZ,
                        "duration_s": 64 / signal.MAX_SAMPLE_RATE_HZ},
                       "sample_rate_hz"),
}


@pytest.mark.parametrize("case", sorted(CAPS))
def test_load_config_caps_are_inclusive(case):
    at_cap, key = CAPS[case]
    load_config(None, {k: str(v) for k, v in at_cap.items()})
    past = {k: str(v) for k, v in at_cap.items()}
    past[key] = str(at_cap[key] + 1)
    with pytest.raises(ConfigError, match="above"):
        load_config(None, past)


def test_gen_data_at_sample_rate_cap(tmp_path):
    rate = signal.MAX_SAMPLE_RATE_HZ
    assert main(["gen-data", "--out", str(tmp_path), "--set", "n_eval=1",
                 "--set", f"sample_rate_hz={rate}",
                 "--set", f"duration_s={64 / rate!r}"]) == 0
    w = read_wav(tmp_path / "dataset" / "item_0000_x.wav")
    assert w.sample_rate_hz == rate and w.samples.size == 64


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


def _set_header(path: Path, key: bytes, value: bytes) -> None:
    _edit_header(path, lambda h: re.sub(rb" %s=\S+" % key,
                                        b" %s=%s" % (key, value), h))


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
    # a header holds exactly the keys its writer writes, each once
    "velnet_unknown_key": lambda ck: _edit_header(
        ck / "velnet.ckpt", lambda h: h + b" sigma_max=5"),
    "velnet_repeated_key": lambda ck: _edit_header(
        ck / "velnet.ckpt",
        lambda h: re.sub(rb"( frame_len=\d+)", rb"\1\1", h)),
    "mrnet_velnet_keys": lambda ck: _edit_header(
        ck / "mrnet.ckpt", lambda h: h + b" frame_len=64 dims=252,128,64"),
    # headers and nets that parse but cannot run
    "velnet_feat_hop_zero": lambda ck: _set_header(
        ck / "velnet.ckpt", b"feat_hop", b"0"),
    "mrnet_feat_hop_zero": lambda ck: _set_header(
        ck / "mrnet.ckpt", b"feat_hop", b"0"),
    "mrnet_feat_hop_past_cola": lambda ck: _set_header(
        ck / "mrnet.ckpt", b"feat_hop", b"200"),
    "velnet_frame_len_zero": lambda ck: velnet.save_velnet(
        ck / "velnet.ckpt", velnet.VelocityNet.create(0, frame_len=0)),
    "velnet_tau_dim_odd": lambda ck: velnet.save_velnet(
        ck / "velnet.ckpt", velnet.VelocityNet.create(0, tau_embed_dim=3)),
    "velnet_tau_dim_negative": lambda ck: velnet.save_velnet(
        ck / "velnet.ckpt", velnet.VelocityNet.create(0, tau_embed_dim=-2)),
    # a zero-width layer holds no weights, whatever the widths around it
    "velnet_hidden_width_zero": lambda ck: velnet.save_velnet(
        ck / "velnet.ckpt", velnet.VelocityNet.create(0, hidden_dims=(64, 0))),
    "mrnet_embed_dim_zero": lambda ck: mrnet.save_mrnet(
        ck / "mrnet.ckpt", mrnet.MrRegressor.create(0, embed_dim=0)),
    "mrnet_hidden_dim_zero": lambda ck: mrnet.save_mrnet(
        ck / "mrnet.ckpt", mrnet.MrRegressor.create(0, hidden_dim=0)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPT_CHECKPOINTS))
def test_exit_code_corrupt_checkpoint(run_dir, tmp_path, corruption):
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    CORRUPT_CHECKPOINTS[corruption](ck)
    assert main(["ablate", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck), "--out", str(tmp_path / "o")]) == 4
    # the checkpoints are read before the eval set is
    assert not (tmp_path / "o" / "eval_set.adfd").exists()


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


def test_exit_code_transposed_first_tensor(run_dir, tmp_path, capsys):
    # the first weight's two dims swapped: the bytes still fit the file
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    path = ck / "velnet.ckpt"
    data = bytearray(path.read_bytes())
    start = data.index(b"\n") + 1 + 8
    rows, cols = np.frombuffer(data[start:start + 8], "<u4")
    data[start:start + 8] = np.array([cols, rows], "<u4").tobytes()
    path.write_bytes(bytes(data))
    assert main(["ablate", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck), "--out", str(tmp_path / "o")]) == 4
    assert f"tensor shape ({cols}, {rows}) != expected ({rows}, {cols})" in \
        capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["ablate", "nfe-sweep"])
def test_divergence_names_eval_item(run_dir, tmp_path, capsys, monkeypatch,
                                    command):
    monkeypatch.setattr(velnet, "velocity_signal",
                        lambda net, x, e_embed, tau: np.full_like(x, np.inf))
    assert main([command, "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", _cfg(run_dir).output_dir,
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "numeric divergence: item 0, " in err
    assert "field net: non-finite state at step 0" in err


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


@pytest.mark.parametrize("command, module, name", [
    ("train-vel", velnet, "train_vel_loss.csv"),
    ("train-mr", mrnet, "train_mr_loss.csv")])
def test_loss_csv_rows_are_fits_records(run_dir, tmp_path, monkeypatch,
                                        command, module, name):
    # each row is the (lr, loss) that fit returned for its epoch, as written
    traces, real_fit = [], module.fit

    def spy(*args):
        traces.append(real_fit(*args))
        return traces[-1]

    monkeypatch.setattr(module, "fit", spy)
    assert main([command, "--config", str(run_dir / "run.cfg"),
                 "--out", str(tmp_path)]) == 0
    (trace,) = traces
    rows = [line.split(",") for line in
            (tmp_path / name).read_text("utf-8").splitlines()]
    assert rows[0] == ["epoch", "lr", "loss"]
    assert rows[1:] == [[str(epoch), repr(lr), repr(loss)]
                        for epoch, (lr, loss) in enumerate(trace)]


def test_checkpoints_loadable(run_dir):
    out = Path(_cfg(run_dir).output_dir)
    net = velnet.load_velnet(out / "velnet.ckpt")
    reg = mrnet.load_mrnet(out / "mrnet.ckpt")
    assert net.frame_len == 64
    assert reg.feat_n_fft == 256


def test_checkpoint_without_sample_rate_exits_4(run_dir, tmp_path):
    # a checkpoint must state the rate it was trained at
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    for name in ("velnet.ckpt", "mrnet.ckpt"):
        _edit_header(ck / name,
                     lambda h: re.sub(rb" sample_rate_hz=\d+", b"", h))
        header = (ck / name).read_bytes().split(b"\n", 1)[0]
        assert b"sample_rate_hz" not in header
    for load, name in ((velnet.load_velnet, "velnet.ckpt"),
                       (mrnet.load_mrnet, "mrnet.ckpt")):
        with pytest.raises(FileFormatError, match="sample_rate_hz"):
            load(ck / name)
    assert main(["ablate", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck), "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o" / "eval_set.adfd").exists()


def test_each_command_mixes_each_item_once(tmp_path, monkeypatch):
    # x is mixed where it is read, never kept: gen-data, train-mr, ablate
    # and nfe-sweep read it once per item, and train-vel never does
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(SMALL_CONFIG + "epochs = 1\n"
                        f"output_dir = {tmp_path / 'out'}\n", "utf-8")
    cfg = load_config(cfg_path)
    mixed = []
    real_mix = signal.mix
    monkeypatch.setattr(signal, "mix",
                        lambda *args: mixed.append(1) or real_mix(*args))
    counts = {}
    for command in ("gen-data", "train-vel", "train-mr", "ablate",
                    "nfe-sweep"):
        before = len(mixed)
        assert main([command, "--config", str(cfg_path)]) == 0
        counts[command] = len(mixed) - before
    assert counts == {"gen-data": cfg.n_eval, "train-vel": 0,
                      "train-mr": cfg.n_train, "ablate": cfg.n_eval,
                      "nfe-sweep": cfg.n_eval}


@pytest.mark.parametrize("command, names", [
    ("train-mr", ("train_mr_loss.csv", "mrnet.ckpt", "train_set.adfd")),
    ("nfe-sweep", ("nfe_sweep.csv", "nfe_sweep.svg", "eval_set.adfd")),
])
def test_stored_set_matches_fresh_dir(run_dir, tmp_path, command, names):
    # in the shared run, train-mr read the set train-vel stored, and
    # nfe-sweep the set gen-data stored; here each synthesizes it alone
    out = Path(_cfg(run_dir).output_dir)
    ckpt = ["--checkpoints", str(out)] if command == "nfe-sweep" else []
    assert main([command, "--config", str(run_dir / "run.cfg"),
                 "--out", str(tmp_path), *ckpt]) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_failed_store_write_exits_4(run_dir, tmp_path, capsys):
    (tmp_path / "train_set.adfd").mkdir()
    assert main(["train-mr", "--config", str(run_dir / "run.cfg"),
                 "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("I/O error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["effective_config.txt", "train_set.adfd"]


@pytest.mark.parametrize("command", ["train-vel", "train-mr"])
def test_training_holds_one_batch_of_the_set(tmp_path, command):
    # the 64-item set is 12.3 MB of float64; training reads it from its
    # store one batch of 4 items at a time, so a command peaks below the
    # size of the set
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n_train = 64\nduration_s = 0.5\nepochs = 1\n"
                        f"batch_size = 4\noutput_dir = {tmp_path / 'out'}\n",
                        "utf-8")
    set_bytes = 64 * 3 * 8000 * 8
    if command == "train-mr":  # the set is stored, so train-mr reads it
        assert main(["train-vel", "--config", str(cfg_path)]) == 0
    tracemalloc.start()
    try:
        assert main([command, "--config", str(cfg_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < set_bytes, peak


def test_training_step_reuses_its_operands(tmp_path, monkeypatch):
    # train-vel on a stored set of 64 items of 0.5 s in batches of 16 (125
    # frames per item): the step's operands are allocated once per fit and
    # each step reads its items one at a time, so a step after the first
    # allocates under 1 MiB above what was live before it, and the training
    # call peaks below its operands, one item's five float64 waveforms and
    # four times the parameters (values, gradients, AdamW's two moments)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("n_train = 64\nduration_s = 0.5\nepochs = 1\n"
                        f"batch_size = 16\noutput_dir = {tmp_path / 'out'}\n",
                        "utf-8")
    # writes the store and the spectral workspace the measured run reuses
    assert main(["train-vel", "--config", str(cfg_path)]) == 0
    real_train, real_fit = velnet.train_velocity, velnet.fit
    steps, peaks, trained = [], [], []

    def fit(params, n_items, config, loss_and_grad):
        live = []

        def step(idx, rng):
            current, peak = tracemalloc.get_traced_memory()
            if live:
                steps.append(peak - live[-1])
            peaks.append(peak)
            live.append(current)
            tracemalloc.reset_peak()
            return loss_and_grad(idx, rng)

        trace = real_fit(params, n_items, config, step)
        steps.append(tracemalloc.get_traced_memory()[1] - live[-1])
        return trace

    def train_velocity(net, *args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = real_train(net, *args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        trained.append((net, max(peaks) - start))
        return out

    monkeypatch.setattr(velnet, "train_velocity", train_velocity)
    monkeypatch.setattr(velnet, "fit", fit)
    tracemalloc.start()
    try:
        assert main(["train-vel", "--config", str(cfg_path)]) == 0
    finally:
        tracemalloc.stop()
    (net, peak), = trained
    dims = net.layer_dims
    operands = 4 * 16 * 125 * (dims[0] + dims[-1] + sum(dims[1:])
                               + max(dims[1:-1]))
    bound = operands + 5 * 8 * 8000 + 4 * sum(p.nbytes
                                              for p in net.parameters())
    assert len(steps) == 4
    assert max(steps[1:]) < 2 ** 20, steps
    assert peak < bound, (peak, bound)


class _DiskFullAt:
    """A file opened to write whose write fails, as on a full disk, once it
    would take the file past `limit` bytes; the bytes up to the limit are
    written first, so the failure comes mid-file."""

    def __init__(self, f, limit: int):
        self._f, self._left = f, limit

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self._left:
            self._f.write(data[:self._left])
            self._left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= len(data)
        return self._f.write(data)


# Every kind of output, by file name and a writer of version 0 or 1 of it.
WRITERS = {
    "csv": ("a.csv", lambda path, v: cli._write_csv(
        path, ["a", "b"], [[str(v), str(i)] for i in range(100)])),
    "svg": ("a.svg", lambda path, v: cli._write_svg(
        path, [1, 2, 5], {"s": [float(v), 2.0, 3.0]}, "x")),
    "effective_config": ("effective_config.txt", lambda path, v:
                         cli._prepare_out(RunConfig(
                             seed=v, output_dir=str(path.parent)))),
    "wav": ("a.wav", lambda path, v: write_wav(path, signal.Waveform(
        np.random.default_rng(v).standard_normal(400)))),
    "adft": ("a.adft", lambda path, v: signal.write_tensor(
        path, np.arange(100.0) + v)),
    "checkpoint": ("velnet.ckpt", lambda path, v: velnet.save_velnet(
        path, velnet.VelocityNet.create(4 + v))),
    "store": ("set.adfd", lambda path, v: make_dataset(
        2, "uniform", DatasetConfig(duration_s=0.01), seed=v, store=path)),
}


@pytest.mark.parametrize("case", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, case):
    name, write = WRITERS[case]
    path = tmp_path / name
    write(path, 0)
    old = path.read_bytes()

    def disk_full_open(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return _DiskFullAt(f, len(old) // 2) if "w" in mode else f

    monkeypatch.setattr(signal, "open", disk_full_open, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write(path, 1)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]  # no temp file


@pytest.mark.parametrize("case", sorted(set(WRITERS) - {"effective_config"}))
def test_write_into_missing_dir_names_target(tmp_path, case):
    name, write = WRITERS[case]
    path = tmp_path / "missing" / name
    with pytest.raises(FileNotFoundError) as info:
        write(path, 0)
    assert str(path) in str(info.value) and ".tmp" not in str(info.value)
    assert not any(tmp_path.iterdir())


def test_write_through_symlink_keeps_link(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "out").mkdir()
    target = tmp_path / "data" / "a.csv"
    target.write_text("old\n", "utf-8")
    link = tmp_path / "out" / "a.csv"
    link.symlink_to(target)
    cli._write_csv(link, ["a"], [["1"]])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"a\n1\n"
    assert [p.name for p in (tmp_path / "data").iterdir()] == ["a.csv"]


def test_concurrent_writes_to_one_path_leave_one_whole_version(tmp_path):
    # threads that shared one temp file would truncate, remove or publish
    # one another's half-written bytes
    path = tmp_path / "a.csv"
    versions = [[str(v) * 2 ** 14] * 4 for v in range(4)]

    def write(v):
        for _ in range(150):
            signal.write_lines(path, versions[v])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            list(pool.map(write, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert path.read_text("utf-8") in ["\n".join(v) + "\n" for v in versions]
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]  # no temp file
    with open(tmp_path / "plain", "wb"):
        pass
    assert stat.S_IMODE(path.stat().st_mode) == \
        stat.S_IMODE((tmp_path / "plain").stat().st_mode)


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


def test_svg_of_constant_series(tmp_path):
    # every value equal: the y scale must not divide by a zero range
    path = tmp_path / "flat.svg"
    cli._write_svg(path, list(cli.NFE_SWEEP_VALUES),
                   {"a": [2.5] * 5, "b": [2.5] * 5}, "max NFE")
    lines = ET.fromstring(path.read_text("utf-8")).findall(
        "{http://www.w3.org/2000/svg}polyline")
    assert len(lines) == 2
    for line in lines:
        coords = [float(c) for pt in line.get("points").split()
                  for c in pt.split(",")]
        assert len(coords) == 10 and all(map(math.isfinite, coords))


def test_nfe_sweep_oracle_field_flat(run_dir, tmp_path):
    out = tmp_path / "sweep_oracle"
    assert main(["nfe-sweep", "--config", str(run_dir / "run.cfg"),
                 "--out", str(out), "--checkpoints",
                 str(_cfg(run_dir).output_dir), "--field", "oracle"]) == 0
    lines = (out / "nfe_sweep.csv").read_text("utf-8").strip().splitlines()
    sdrs = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(sdrs) - min(sdrs) < 1e-9


# ---------------------------------------------------------------------------
# ablate and nfe-sweep against per-lane reference loops, which extract and
# score every lane of an item on its own

def _reference_setup(cfg):
    ck = Path(cfg.output_dir)
    items = make_dataset(cfg.n_eval, "uniform",
                         DatasetConfig(duration_s=cfg.duration_s,
                                       sample_rate_hz=cfg.sample_rate_hz),
                         cfg.seed + 1)
    return (velnet.load_velnet(ck / "velnet.ckpt"),
            mrnet.load_mrnet(ck / "mrnet.ckpt"), items)


def _reference_scores(cfg, reg, est, x, s1):
    est = signal.spectral_record(est, cfg.n_fft, cfg.hop, keep_db=True)
    sdr = metrics.si_sdr(est, s1)
    return {"si_sdr_db": sdr, "si_sdr_improvement_db": sdr
            - metrics.si_sdr(x, s1),
            "lsd_db": metrics.lsd(est, s1, cfg.n_fft, cfg.hop),
            "sim_cosine": metrics.sim(est, s1,
                                      lambda w: mrnet.mr_embed(reg, w))}


def _reference_records(cfg, item):
    return [signal.spectral_record(w, cfg.n_fft, cfg.hop, keep_db=keep)
            for w, keep in ((item.x, False), (item.e, False),
                            (item.s1, True))]


def _reference_ablation_csv(cfg) -> str:
    net, reg, items = _reference_setup(cfg)
    policy = sampler.NfePolicy(max_nfe=cfg.max_nfe, epsilon=cfg.epsilon)
    pp = flowpath.PathParams(sigma_min=cfg.sigma_min,
                             sigma_max=cfg.sigma_max)
    rand_taus = np.random.default_rng(cfg.seed + 4242).uniform(
        size=len(items))
    lines = [",".join(["item_id", "mr_source", "field",
                       *metrics.REPORT_COLUMNS])]
    for i, item in enumerate(items):
        x, e, s1 = _reference_records(cfg, item)
        sources = {"oracle": sampler.oracle_mr(item.s1, item.b),
                   "estimated": sampler.fixed_mr(mrnet.mr_predict(reg, x, e)),
                   "random": sampler.fixed_mr(float(rand_taus[i])),
                   "tau1": sampler.fixed_mr(1.0),
                   "tau0": sampler.fixed_mr(0.0)}
        fields = {"oracle": sampler.OracleField(item.b, item.s1, pp),
                  "net": sampler.NetField(net, e)}
        for source in cli.ABLATION_SOURCES:
            for field in ("oracle", "net"):
                est, tau_hat, nfe = sampler.extract_adaptive(
                    item.x, item.e, sources[source], fields[field], policy)
                report = metrics.EvalReport(
                    **_reference_scores(cfg, reg, est, item.x, s1),
                    nfe_used=nfe, tau_true=item.tau, tau_hat=tau_hat)
                lines.append(",".join([str(i), source, field,
                                       *report.csv_row()]))
    return "\n".join(lines) + "\n"


def _reference_nfe_sweep_csv(cfg, field: str) -> str:
    net, reg, items = _reference_setup(cfg)
    pp = flowpath.PathParams(sigma_min=cfg.sigma_min,
                             sigma_max=cfg.sigma_max)
    per_nfe = [[] for _ in cli.NFE_SWEEP_VALUES]
    for item in items:
        x, e, s1 = _reference_records(cfg, item)
        fld = (sampler.OracleField(item.b, item.s1, pp) if field == "oracle"
               else sampler.NetField(net, e))
        source = sampler.fixed_mr(mrnet.mr_predict(reg, x, e))
        for n, scored in zip(cli.NFE_SWEEP_VALUES, per_nfe):
            est, _, _ = sampler.extract_adaptive(
                item.x, item.e, source, fld,
                sampler.NfePolicy(max_nfe=n, epsilon=cfg.epsilon))
            scored.append(_reference_scores(cfg, reg, est, item.x, s1))
    lines = ["max_nfe,mean_si_sdr_db,mean_lsd_db,mean_sim_cosine"]
    for n, scored in zip(cli.NFE_SWEEP_VALUES, per_nfe):
        means = [float(np.mean([sc[k] for sc in scored])) for k in
                 ("si_sdr_db", "lsd_db", "sim_cosine")]
        lines.append(",".join([str(n), *map(repr, means)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("epsilon", ["0.001", "0.09"])
def test_evaluation_matches_per_lane_reference(run_dir, tmp_path, epsilon):
    # epsilon=0.09 passes items with tau_hat >= 0.91 through in more lanes
    ck = _cfg(run_dir).output_dir
    cfg = load_config(run_dir / "run.cfg", {"epsilon": epsilon})
    args = ["--config", str(run_dir / "run.cfg"), "--checkpoints", ck,
            "--set", f"epsilon={epsilon}"]
    out = tmp_path / "out"
    assert main(["ablate", *args, "--out", str(out)]) == 0
    text = (out / "ablation.csv").read_text("utf-8")
    assert text == _reference_ablation_csv(cfg)
    header, *rows = [line.split(",") for line in text.splitlines()]
    col = {name: i for i, name in enumerate(header)}
    passthrough = [r for r in rows if r[col["nfe_used"]] == "0"]
    assert len(passthrough) >= 2 * cfg.n_eval  # tau1 under both fields
    assert all(r[col["si_sdr_improvement_db"]] == "0.0" for r in passthrough)
    for field in ("net", "oracle"):
        assert main(["nfe-sweep", *args, "--field", field,
                     "--out", str(tmp_path / field)]) == 0
        assert (tmp_path / field / "nfe_sweep.csv").read_text("utf-8") \
            == _reference_nfe_sweep_csv(cfg, field)


@pytest.mark.parametrize("epsilon", ["0.001", "0.09"])
def test_nfe_sweep_field_calls_per_item(run_dir, tmp_path, monkeypatch,
                                        epsilon):
    # every budget of an item shares the first velocity at (x, tau_hat), and
    # budgets with one step count share one extraction
    calls = []
    real_velocity = velnet.velocity_signal
    real_budgets = sampler.extract_budgets
    per_item = []

    def counting_velocity(*args, **kwargs):
        calls.append(1)
        return real_velocity(*args, **kwargs)

    def counting_budgets(x, e, tau_hat, field, policies):
        before = len(calls)
        out = real_budgets(x, e, tau_hat, field, policies)
        steps = {sampler.build_schedule(tau_hat, p).nfe
                 for p in policies} - {0}
        per_item.append((len(calls) - before,
                         1 + sum(n - 1 for n in steps) if steps else 0))
        return out

    monkeypatch.setattr(velnet, "velocity_signal", counting_velocity)
    monkeypatch.setattr(sampler, "extract_budgets", counting_budgets)
    cfg = dataclasses.replace(load_config(run_dir / "run.cfg",
                                          {"epsilon": epsilon}),
                              output_dir=str(tmp_path))
    cli.cmd_nfe_sweep(cfg, _cfg(run_dir).output_dir)
    assert len(per_item) == cfg.n_eval
    assert all(got == want for got, want in per_item)
    assert len(calls) == sum(want for _, want in per_item)


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


@pytest.mark.parametrize("dims", [(0, 16), (16, 0), (0, 0)],
                         ids=["enroll_0", "tau_0", "both_0"])
def test_zero_width_embeddings_run(run_dir, tmp_path, capsys, dims):
    # a velnet without an enrollment or tau embedding, or without both, is
    # a legal checkpoint: ablate and extract run it
    enroll_dim, tau_dim = dims
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    velnet.save_velnet(ck / "velnet.ckpt", velnet.VelocityNet.create(
        0, enroll_embed_dim=enroll_dim, tau_embed_dim=tau_dim))
    assert main(["ablate", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck), "--out", str(tmp_path / "o")]) == 0
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck),
                 "--in", str(data / "item_0000_x.wav"),
                 "--enroll", str(data / "item_0000_e.wav"),
                 "--reference", str(data / "item_0000_s1.wav"),
                 "--out-wav", str(tmp_path / "est.wav")]) == 0
    assert "si_sdr_db=" in capsys.readouterr().out
    assert len(read_wav(tmp_path / "est.wav")) == \
        len(read_wav(data / "item_0000_x.wav"))


def _python_env() -> dict:
    """The environment for a subprocess that imports this adflow."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_extract_reuse_matches_fresh_process(run_dir, tmp_path, capsys):
    # two requests in one process, the first with other settings: the
    # second must print and write what a fresh process does. max_nfe=20
    # takes several steps on these items, where the config's 3 takes one.
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"

    def extract(item, out_wav):
        return ["extract", "--config", str(run_dir / "run.cfg"),
                "--checkpoints", cfg.output_dir,
                "--in", str(data / f"item_{item}_x.wav"),
                "--enroll", str(data / f"item_{item}_e.wav"),
                "--out-wav", str(tmp_path / out_wav)]

    assert main([*extract("0000", "first.wav"), "--set", "max_nfe=20",
                 "--reference", str(data / "item_0000_s1.wav")]) == 0
    capsys.readouterr()
    assert main(extract("0001", "second.wav")) == 0
    printed = capsys.readouterr().out
    fresh = subprocess.run([sys.executable, "-m", "adflow",
                            *extract("0001", "fresh.wav")],
                           env=_python_env(), check=True, timeout=600,
                           capture_output=True, text=True)
    assert printed == fresh.stdout
    assert (tmp_path / "second.wav").read_bytes() == \
        (tmp_path / "fresh.wav").read_bytes()


def _extract_argv(run_dir, ck, out_wav):
    data = Path(_cfg(run_dir).output_dir) / "dataset"
    return ["extract", "--config", str(run_dir / "run.cfg"),
            "--checkpoints", str(ck),
            "--in", str(data / "item_0000_x.wav"),
            "--enroll", str(data / "item_0000_e.wav"),
            "--out-wav", str(out_wav),
            "--reference", str(data / "item_0000_s1.wav")]


def test_extract_after_checkpoint_rewritten_in_place(run_dir, tmp_path,
                                                     capsys):
    # the kept net is reused only while the file's bytes are the same: a
    # checkpoint of the same size (and inode) from another seed is used
    other = tmp_path / "other"
    assert main(["train-vel", "--config", str(run_dir / "run.cfg"),
                 "--out", str(other), "--set", "seed=1"]) == 0
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    second = (other / "velnet.ckpt").read_bytes()
    assert len(second) == (ck / "velnet.ckpt").stat().st_size
    assert second != (ck / "velnet.ckpt").read_bytes()
    assert main(_extract_argv(run_dir, ck, tmp_path / "first.wav")) == 0
    first_out = capsys.readouterr().out
    inode = (ck / "velnet.ckpt").stat().st_ino
    (ck / "velnet.ckpt").write_bytes(second)
    assert (ck / "velnet.ckpt").stat().st_ino == inode
    assert main(_extract_argv(run_dir, ck, tmp_path / "second.wav")) == 0
    printed = capsys.readouterr().out
    fresh = subprocess.run([sys.executable, "-m", "adflow", *_extract_argv(
        run_dir, ck, tmp_path / "fresh.wav")], env=_python_env(), check=True,
        timeout=600, capture_output=True, text=True)
    assert printed == fresh.stdout != first_out
    assert (tmp_path / "second.wav").read_bytes() == \
        (tmp_path / "fresh.wav").read_bytes() != \
        (tmp_path / "first.wav").read_bytes()


@pytest.mark.parametrize("name", ["velnet", "mrnet"])
def test_extract_after_weight_set_to_nan_in_place(run_dir, tmp_path, capsys,
                                                  name):
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    assert main(_extract_argv(run_dir, ck, tmp_path / "o.wav")) == 0
    _nan_first_weight(ck / f"{name}.ckpt")
    assert main(_extract_argv(run_dir, ck, tmp_path / "o.wav")) == 4
    assert "non-finite values" in capsys.readouterr().err


# case: (damage to velnet.ckpt, what the message must name besides the path)
MISSIZED_CHECKPOINTS = {
    "trailing_bytes": (lambda p: p.write_bytes(p.read_bytes() + bytes(7000)),
                       lambda n, h: (f"declares {n} bytes",
                                     f"holds {n + 7000}")),
    "doubled": (lambda p: p.write_bytes(p.read_bytes() * 2),
                lambda n, h: (f"declares {n} bytes", f"holds {2 * n}")),
    "no_newline": (lambda p: p.write_bytes(
        b"ADFLOW-VELNET v1 " + b"x" * 2 ** 26),
        lambda n, h: (f"within {h} bytes",)),
}


@pytest.mark.parametrize("case", sorted(MISSIZED_CHECKPOINTS))
def test_extract_checkpoint_not_its_declared_size(run_dir, tmp_path, capsys,
                                                  case):
    damage, expect = MISSIZED_CHECKPOINTS[case]
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    size = (ck / "velnet.ckpt").stat().st_size
    damage(ck / "velnet.ckpt")
    tracemalloc.start()
    try:
        code = main(_extract_argv(run_dir, ck, tmp_path / "o.wav"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    err = capsys.readouterr().err
    assert str(ck / "velnet.ckpt") in err
    for part in expect(size, signal._CHECKPOINT_HEADER_LIMIT):
        assert part in err
    if case == "no_newline":  # the reader stops at the header limit
        assert peak < 2 ** 20
    assert not (tmp_path / "o.wav").exists()


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    argv = ["gen-data", "--out", str(tmp_path), "--set", "n_eval=0"]
    assert main(argv) == 2
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 2
    assert main(["ablate", "--out", str(tmp_path), "--set", "max_nfe=0"]) == 2
    assert built == []


# command: (its flags, the cmd_* it runs, the arguments besides cfg that the
# flags give it)
DISPATCH = {
    "gen-data": ([], "cmd_gen_data", {}),
    "train-vel": ([], "cmd_train_vel", {}),
    "train-mr": ([], "cmd_train_mr", {}),
    "ablate": (["--checkpoints", "ck"], "cmd_ablate", {"ckpt_dir": "ck"}),
    "nfe-sweep": (["--checkpoints", "ck", "--field", "oracle"],
                  "cmd_nfe_sweep", {"ckpt_dir": "ck", "field": "oracle"}),
    "extract": (["--checkpoints", "ck", "--in", "x.wav", "--enroll", "e.wav",
                 "--out-wav", "o.wav", "--reference", "s1.wav"],
                "cmd_extract", {"ckpt_dir": "ck", "in_path": "x.wav",
                                "enroll_path": "e.wav", "out_wav": "o.wav",
                                "reference": "s1.wav"}),
}


@pytest.mark.parametrize("command", sorted(DISPATCH))
def test_each_command_runs_its_cmd_at_call_time(tmp_path, monkeypatch,
                                                command):
    # a wrapper set on the module after the parser was built is the function
    # run, with the arguments its flags give; the small config keeps a
    # command that bypasses the wrapper short
    flags, name, want = DISPATCH[command]
    cli.build_parser()
    real, calls = getattr(cli, name), []
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(
        inspect.signature(real).bind(*args, **kwargs).arguments))
    assert main([command, "--out", str(tmp_path), "--seed", "7",
                 "--set", "n_train=1", "--set", "n_eval=1",
                 "--set", "epochs=1", *flags]) == 0
    (got,) = calls
    cfg = got.pop("cfg")
    assert (cfg.output_dir, cfg.seed, cfg.n_train) == (str(tmp_path), 7, 1)
    assert got == want


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["extract", "--enroll", "e.wav", "--out-wav", "o.wav"],
    ["nfe-sweep", "--field", "bogus"],
    ["ablate", "--n-fft", "256"],
], ids=["unknown_command", "extract_without_in", "nfe_sweep_bad_field",
        "config_key_as_flag"])
def test_argparse_error_exits_2_on_every_call(argv, capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def _set_fmt_chunk_size(data: bytes) -> bytes:
    # a fmt chunk size past the end of the file
    return data[:16] + (2 ** 31).to_bytes(4, "little") + data[20:]


def _wav_bytes(channels: int, width: int, n_frames: int) -> bytes:
    buf = io.BytesIO()
    with wave.open(buf, "wb") as out:
        out.setnchannels(channels)
        out.setsampwidth(width)
        out.setframerate(16000)
        out.writeframes(bytes(channels * width * n_frames))
    return buf.getvalue()


# case: (makes the bad file from a good one's bytes, in stderr after its name)
MALFORMED_WAVS = {
    "odd_bytes": (lambda data: data[:-1], "truncated WAV data"),
    "header_only": (lambda data: data[:30], "bad WAV file"),
    "bad_chunk": (_set_fmt_chunk_size, "bad WAV file"),
    # the framerate field of the canonical 44-byte header
    "zero_rate": (lambda data: data[:24] + bytes(4) + data[28:],
                  "WAV declares 0 Hz"),
    "stereo": (lambda data: _wav_bytes(2, 2, 2000), "expected mono WAV"),
    "8_bit": (lambda data: _wav_bytes(1, 1, 2000), "expected 16-bit PCM"),
    "no_samples": (lambda data: _wav_bytes(1, 2, 0), "empty WAV file"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_WAVS))
def test_extract_malformed_wav(run_dir, tmp_path, capsys, case):
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    edit, message = MALFORMED_WAVS[case]
    bad = tmp_path / "x.wav"
    bad.write_bytes(edit((data / "item_0000_x.wav").read_bytes()))
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(cfg.output_dir), "--in", str(bad),
                 "--enroll", str(data / "item_0000_e.wav"),
                 "--out-wav", str(tmp_path / "o.wav")]) == 4
    assert f"x.wav: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def _declare_frames(data: bytes, n_frames: int) -> bytes:
    # the data chunk size of the canonical 44-byte header; the file still
    # holds the samples it had
    return data[:40] + (2 * n_frames).to_bytes(4, "little") + data[44:]


@pytest.mark.parametrize("flag", ["--in", "--enroll", "--reference"])
def test_extract_caps_input_before_reading(run_dir, tmp_path, capsys, flag):
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    inputs = {"--in": data / "item_0000_x.wav",
              "--enroll": data / "item_0000_e.wav",
              "--reference": data / "item_0000_s1.wav"}
    big = tmp_path / "big.wav"
    big.write_bytes(_declare_frames(inputs[flag].read_bytes(),
                                    signal.MAX_WAVEFORM_SAMPLES + 1))
    inputs[flag] = big
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(cfg.output_dir),
                 "--out-wav", str(tmp_path / "o.wav"),
                 *(str(a) for kv in inputs.items() for a in kv)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "big.wav" in err and "16777216" in err
    assert "truncated" not in err
    assert not (tmp_path / "o.wav").exists()


def _write_ckpt(path: Path, magic: str, meta: dict, shapes: list) -> None:
    signal.write_checkpoint(path, magic, meta, [np.zeros(s) for s in shapes])


def _tiny_mrnet_huge_fft(ck, ins, monkeypatch):
    # under 200 bytes: no weights behind a 2^31-point framing
    _write_ckpt(ck / "mrnet.ckpt", mrnet._MR_HEADER, {
        "embed_dim": 0, "hidden_dim": 1, "feat_n_fft": 2 ** 31,
        "feat_hop": 1, "sample_rate_hz": 16000},
        [(0, 3 * (2 ** 30 + 1) + 1), (0,), (1, 0), (1,), (1,), (1,)])


def _mrnet_hop_one(ck, ins, monkeypatch):
    # a valid net whose framing needs 256 x (n - 255) values; a cap well
    # under that stands in for a long --in. The --in length is one that no
    # earlier STFT in this thread kept a workspace for.
    mrnet.save_mrnet(ck / "mrnet.ckpt", mrnet.MrRegressor.create(
        1, feat_n_fft=256, feat_hop=1))
    x = read_wav(ins["--in"])
    write_wav(ins["--in"], type(x)(np.resize(x.samples, 4099), 16000))
    monkeypatch.setattr(signal, "MAX_STFT_VALUES", 2 ** 16)


def _rate_past_wav_cap(ck, ins, monkeypatch):
    for name in ("velnet.ckpt", "mrnet.ckpt"):
        _set_header(ck / name, b"sample_rate_hz", b"3000000000")
    for path in ins.values():  # the framerate field of the 44-byte header
        data = path.read_bytes()
        path.write_bytes(data[:24] + (3 * 10 ** 9).to_bytes(4, "little")
                         + data[28:])


def _tiny_velnet_wide_input(ck, ins, monkeypatch):
    # a zero-width hidden layer lets the first layer declare 2^31 + 208
    # inputs behind no weights
    _write_ckpt(ck / "velnet.ckpt", velnet._VEL_HEADER, {
        "dims": "2147483856,0,64", "frame_len": 64, "tau_dim": 2 ** 31,
        "enroll_dim": 16, "feat_n_fft": 256, "feat_hop": 64,
        "sample_rate_hz": 16000},
        [(0, 2147483856), (0,), (64, 0), (64,), (16, 258)])


# case: (damages the copied checkpoints and inputs, exit code, in stderr)
OVERSIZED_WORK = {
    "mrnet_n_fft_past_cap": (_tiny_mrnet_huge_fft, 4, "above 65536"),
    "mrnet_stft_past_cap": (_mrnet_hop_one, 2,
                            "hop=1 gives 984064 STFT values for 4099 "
                            "samples, above 65536"),
    "rate_past_wav_cap": (_rate_past_wav_cap, 4, "3000000000 Hz"),
    "velnet_zero_width_layer": (_tiny_velnet_wide_input, 4,
                                "no net runs dims=(2147483856, 0, 64)"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_WORK))
def test_extract_oversized_work_exits_before_allocating(
        run_dir, tmp_path, capsys, monkeypatch, case):
    damage, code, message = OVERSIZED_WORK[case]
    cfg = _cfg(run_dir)
    ck = _copy_checkpoints(run_dir, tmp_path / "ck")
    data = Path(cfg.output_dir) / "dataset"
    ins = {}
    for flag, tag in (("--in", "x"), ("--enroll", "e")):
        ins[flag] = tmp_path / f"{tag}.wav"
        shutil.copy(data / f"item_0000_{tag}.wav", ins[flag])
    damage(ck, ins, monkeypatch)
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(ck),
                 "--out-wav", str(tmp_path / "o.wav"),
                 *(str(a) for kv in ins.items() for a in kv)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error:" if code == 2 else "I/O error:")
    assert message in err
    assert not (tmp_path / "o.wav").exists()


def _malformed(case):
    return lambda src, dest: dest.write_bytes(
        MALFORMED_WAVS[case][0](src.read_bytes()))


def _rewritten(edit):
    def write(src, dest):
        w = read_wav(src)
        write_wav(dest, type(w)(edit(w.samples), w.sample_rate_hz))
    return write


# case: (writes the bad reference from s1's file, exit code)
BAD_REFERENCES = {
    "header_only": (_malformed("header_only"), 4),
    "zero_rate": (_malformed("zero_rate"), 4),
    "short": (_rewritten(lambda s: s[:s.size // 2]), 4),
    "all_zero": (_rewritten(np.zeros_like), 1),
}


@pytest.mark.parametrize("case", sorted(BAD_REFERENCES))
def test_extract_bad_reference_writes_nothing(run_dir, tmp_path, capsys,
                                              case):
    write_bad, code = BAD_REFERENCES[case]
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    ref = tmp_path / "ref.wav"
    write_bad(data / "item_0000_s1.wav", ref)
    assert main(["extract", "--config", str(run_dir / "run.cfg"),
                 "--checkpoints", str(cfg.output_dir),
                 "--in", str(data / "item_0000_x.wav"),
                 "--enroll", str(data / "item_0000_e.wav"),
                 "--out-wav", str(tmp_path / "o.wav"),
                 "--reference", str(ref)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert not (tmp_path / "o.wav").exists()
    if case == "short":
        n = len(read_wav(data / "item_0000_x.wav"))
        assert f"ref.wav: {n // 2} samples, but " in err
        assert f"item_0000_x.wav has {n}" in err


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


@pytest.mark.parametrize("case", ["missing_dir", "directory", "fifo"])
def test_extract_unwritable_out_wav_exits_4(run_dir, tmp_path, case):
    # in a subprocess: an error that escapes shows on stderr, and a write
    # that blocks on the FIFO hits the timeout
    out_wav = {"missing_dir": tmp_path / "missing" / "o.wav",
               "directory": tmp_path, "fifo": tmp_path / "o.wav"}[case]
    if case == "fifo":
        os.mkfifo(out_wav)
    cfg = _cfg(run_dir)
    data = Path(cfg.output_dir) / "dataset"
    proc = subprocess.run(
        [sys.executable, "-m", "adflow", "extract",
         "--config", str(run_dir / "run.cfg"),
         "--checkpoints", cfg.output_dir,
         "--in", str(data / "item_0000_x.wav"),
         "--enroll", str(data / "item_0000_e.wav"), "--out-wav", str(out_wav)],
        env=_python_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("I/O error:")
    assert str(out_wav) in lines[0]
    if case == "fifo":
        assert stat.S_ISFIFO(os.stat(out_wav).st_mode)


# ---------------------------------------------------------------------------
# Work counts and determinism

def _count_stft(monkeypatch) -> list:
    """A list that gains one entry per STFT from now on."""
    calls = []
    real_stft = signal.stft

    def counting_stft(*args, **kwargs):
        calls.append(1)
        return real_stft(*args, **kwargs)

    for module in (signal, velnet, mrnet, metrics):
        monkeypatch.setattr(module, "stft", counting_stft)
    return calls


def test_stft_calls_per_item(run_dir, tmp_path, monkeypatch):
    # one STFT per distinct waveform of an item: x, e, s1 and each distinct
    # estimate (a passthrough is x itself, and nfe-sweep budgets with one
    # step count share one estimate); exact, so a front end that bypasses
    # stft cannot pass with 0
    calls = _count_stft(monkeypatch)
    ck = _cfg(run_dir).output_dir
    cfg = dataclasses.replace(_cfg(run_dir), output_dir=str(tmp_path))
    data = Path(ck) / "dataset"

    def per_item(run, items):
        calls.clear()
        run()
        return len(calls) / items

    ablate = per_item(lambda: cli.cmd_ablate(cfg, ck), cfg.n_eval)
    header, *rows = [line.split(",") for line in (tmp_path / "ablation.csv")
                     .read_text("utf-8").splitlines()]
    col = {name: i for i, name in enumerate(header)}
    stepped = sum(1 for r in rows if r[col["nfe_used"]] != "0")
    assert ablate == 3 + stepped / cfg.n_eval
    tau_hats = [float(r[col["tau_hat"]]) for r in rows
                if r[col["mr_source"]] == "estimated"
                and r[col["field"]] == "net"]
    distinct = [len({sampler.build_schedule(tau_hat, sampler.NfePolicy(
        max_nfe=n, epsilon=cfg.epsilon)).nfe for n in cli.NFE_SWEEP_VALUES}
        - {0}) for tau_hat in tau_hats]
    assert per_item(lambda: cli.cmd_nfe_sweep(cfg, ck), cfg.n_eval) == \
        3 + sum(distinct) / cfg.n_eval
    assert per_item(lambda: cli.cmd_extract(
        cfg, data / "item_0000_x.wav", data / "item_0000_e.wav",
        tmp_path / "o.wav", reference=data / "item_0000_s1.wav",
        ckpt_dir=ck), 1) == 4


def test_nfe_sweep_passthrough_scored_on_x_record(run_dir, tmp_path,
                                                  monkeypatch):
    # tau_hat = 0.9995 passes every budget through: x's record, built once
    # with its dB matrix, is the scored record of all of them
    monkeypatch.setattr(mrnet, "mr_predict", lambda reg, x, e: 0.9995)
    calls = _count_stft(monkeypatch)
    cfg = dataclasses.replace(_cfg(run_dir), output_dir=str(tmp_path))
    cli.cmd_nfe_sweep(cfg, _cfg(run_dir).output_dir)
    assert len(calls) == 3 * cfg.n_eval  # x, e and s1
    assert (tmp_path / "nfe_sweep.csv").read_text("utf-8") \
        == _reference_nfe_sweep_csv(_cfg(run_dir), "net")


def test_ablate_independent_of_blas_threads(run_dir, tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(_python_env(), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "adflow", "ablate",
                        "--config", str(run_dir / "run.cfg"),
                        "--checkpoints", _cfg(run_dir).output_dir,
                        "--out", str(out)], env=env, check=True, timeout=600)
        outs.append((out / "ablation.csv").read_bytes())
    assert outs[0] == outs[1]


def test_training_independent_of_blas_threads(tmp_path):
    # batches of 16 items of 0.5 s are 2,000 rows: one weight-gradient GEMM
    # over them all gives other bytes under 2 BLAS threads than under 1
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("seed = 3\nn_train = 32\nduration_s = 0.5\n"
                        "epochs = 5\n", "utf-8")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(_python_env(), OPENBLAS_NUM_THREADS=threads)
        for command in ("train-vel", "train-mr"):
            subprocess.run([sys.executable, "-m", "adflow", command,
                            "--config", str(cfg_path), "--out", str(out)],
                           env=env, check=True, timeout=600)
        outs.append([(out / name).read_bytes() for name in (
            "train_vel_loss.csv", "velnet.ckpt", "train_mr_loss.csv",
            "mrnet.ckpt")])
    assert outs[0] == outs[1]
