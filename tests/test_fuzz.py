"""Damaged inputs through the CLI: checkpoints and WAVs with bytes cut off
or overwritten must end in an exit code of the contract, never in an
exception escaping `adflow.cli.main`; a cut one, and a checkpoint header
value set to an extreme integer, must end in exit 4 (or 0 for a header
value the nets can run). A damaged training-set store is only
a cache miss: `train-mr` must succeed with the outputs of the pristine run.
Any `--set key=value` must end in exit 2 or, once the config is accepted,
at the missing checkpoints of an empty directory with exit 4; under
`gen-data`, which runs, in exit 0, 2 or 4. An `output_dir` is either
read back from `effective_config.txt` as it was given or rejected before
anything is written."""

import dataclasses
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.cli import RunConfig, load_config, main

CONFIG = """
seed = 0
n_train = 4
n_eval = 1
duration_s = 0.125
epochs = 1
batch_size = 4
max_nfe = 3
"""

STORE = "train_set.adfd"
TARGETS = ("velnet.ckpt", "mrnet.ckpt", "x.wav", STORE)
STORE_OUTPUTS = ("train_mr_loss.csv", "mrnet.ckpt", STORE)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Trained checkpoints plus one mixture and its enrollment."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.cfg").write_text(CONFIG + f"output_dir = {root}\n", "utf-8")
    for command in ("gen-data", "train-vel", "train-mr"):
        assert main([command, "--config", str(root / "run.cfg")]) == 0
    shutil.copy(root / "dataset" / "item_0000_x.wav", root / "x.wav")
    shutil.copy(root / "dataset" / "item_0000_e.wav", root / "e.wav")
    return root


def _run_on_damaged(pristine: Path, target: str, damage) -> int:
    """Copy the inputs, damage `target`, run the command that reads it.

    For the store, the command is `train-mr` writing into the directory
    that holds it, and its outputs must equal the pristine run's.
    """
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in (*TARGETS, "e.wav"):
            shutil.copy(pristine / name, work / name)
        (work / target).write_bytes(damage((work / target).read_bytes()))
        config = ["--config", str(pristine / "run.cfg")]
        if target == STORE:
            code = main(["train-mr", *config, "--out", str(work)])
            for name in STORE_OUTPUTS:
                assert (work / name).read_bytes() == \
                    (pristine / name).read_bytes(), name
            return code
        common = [*config, "--checkpoints", str(work),
                  "--out", str(work / "out")]
        if target.endswith(".ckpt"):
            return main(["ablate", *common])
        return main(["extract", *common, "--in", str(work / "x.wav"),
                     "--enroll", str(work / "e.wav"),
                     "--out-wav", str(work / "o.wav")])


@FUZZ
@given(target=st.sampled_from(TARGETS), keep=st.floats(0.0, 1.0,
                                                        exclude_max=True))
def test_truncated_input_fails_closed(pristine, target, keep):
    # any cut loses declared bytes, so the input can never be accepted;
    # a cut store is synthesized again
    def cut(data):
        return data[:int(keep * len(data))]

    expect = (0,) if target == STORE else (4,)
    assert _run_on_damaged(pristine, target, cut) in expect


@FUZZ
@given(target=st.sampled_from(TARGETS), where=st.floats(0.0, 1.0,
                                                         exclude_max=True),
       patch=st.binary(min_size=1, max_size=8))
def test_overwritten_input_keeps_exit_contract(pristine, target, where,
                                               patch):
    # an overwrite inside sample or weight data can leave a valid file, so
    # success is allowed; an escaping exception or other code is not; an
    # overwritten store is synthesized again
    def overwrite(data):
        at = int(where * len(data))
        return data[:at] + patch[:len(data) - at] + data[at + len(patch):]

    if target == STORE:
        expect = (0,)
    elif target.endswith(".ckpt"):  # a checkpoint is not the config
        expect = (0, 1, 3, 4)
    else:
        expect = (0, 1, 2, 3, 4)
    assert _run_on_damaged(pristine, target, overwrite) in expect


HEADER_KEYS = {"velnet.ckpt": ("dims", "frame_len", "tau_dim", "enroll_dim",
                               "feat_n_fft", "feat_hop", "sample_rate_hz"),
               "mrnet.ckpt": ("embed_dim", "hidden_dim", "feat_n_fft",
                              "feat_hop", "sample_rate_hz")}


@FUZZ
@given(field=st.sampled_from([(target, key) for target, keys in
                              HEADER_KEYS.items() for key in keys]),
       value=st.one_of(st.sampled_from((0, -1, 1, 3, 255, 2 ** 31, 2 ** 32)),
                       st.integers(-2 ** 40, 2 ** 40)))
def test_header_value_keeps_exit_contract(pristine, field, value):
    # a header value the nets cannot run is a damaged checkpoint
    target, key = field

    def edit(data):
        header, rest = data.split(b"\n", 1)
        header, n = re.subn(rb" %s=\S+" % key.encode(),
                            b" %s=%d" % (key.encode(), value), header)
        assert n == 1
        return header + b"\n" + rest

    assert _run_on_damaged(pristine, target, edit) in (0, 4)


# Extremes for every field type; the surrogate is what a non-UTF-8 byte in
# argv decodes to.
EXTREME_VALUES = ("0", "-1", str(2 ** 32), str(2 ** 63), "9" * 5000,
                  "-" + "9" * 400,
                  "inf", "-inf", "nan", "1e308", "-1e308", "-0.0", "5e-324",
                  "", "\udcff", "1_000", "0x10")


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("no_checkpoints")


@FUZZ
@given(key=st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
       value=st.one_of(st.sampled_from(EXTREME_VALUES),
                       st.integers().map(str), st.floats().map(repr),
                       st.text(max_size=12)))
def test_config_value_keeps_exit_contract(empty_dir, key, value):
    code = main(["extract", "--checkpoints", str(empty_dir),
                 "--in", "x.wav", "--enroll", "e.wav", "--out-wav", "o.wav",
                 "--set", f"{key}={value}"])
    assert code in (2, 4)
    assert not any(empty_dir.iterdir())


GEN_DATA_BASE = {"n_eval": 1, "sample_rate_hz": 16000, "duration_s": 0.004}


def _sized(key: str, value: str) -> dict:
    """`--set` pairs for `key=value` on top of GEN_DATA_BASE, sized so that
    every accepted config synthesizes about 64 samples per waveform kind:
    a fuzzed rate, duration or item count sets the duration or the rate."""
    try:
        v = float(value)
    except ValueError:
        v = math.nan
    pairs = dict(GEN_DATA_BASE, **{key: value})
    if not (math.isfinite(v) and v > 0) or math.isinf(64 / v):
        return pairs
    if key == "sample_rate_hz":
        pairs["duration_s"] = repr(64 / v)
    elif key == "duration_s":
        pairs["sample_rate_hz"] = str(round(64 / v))
    elif key == "n_eval":
        pairs["duration_s"] = repr(64 / (v * 16000))
    return pairs


@FUZZ
@given(key=st.sampled_from([f.name for f in dataclasses.fields(RunConfig)
                            if f.name != "output_dir"]),
       value=st.one_of(st.sampled_from(EXTREME_VALUES),
                       st.integers().map(str), st.floats().map(repr),
                       st.text(max_size=12)))
def test_gen_data_config_value_keeps_exit_contract(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        args = [arg for k, v in _sized(key, value).items()
                for arg in ("--set", f"{k}={v}")]
        assert main(["gen-data", "--out", str(Path(tmp) / "out"),
                     *args]) in (0, 2, 4)


@FUZZ
@given(suffix=st.text(st.one_of(st.sampled_from("# =\t\n\r\x0b\x0c\x1c"
                                                 "\x85\u2028\u2029"),
                                st.characters(blacklist_characters="/")),
                      max_size=6))
def test_output_dir_reads_back_or_is_rejected(suffix):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out") + suffix
        code = main(["gen-data", "--out", out, "--set", "n_eval=1",
                     "--set", "duration_s=0.004"])
        if code == 0:
            assert load_config(Path(out) / "effective_config.txt") == \
                load_config(None, {"output_dir": out, "n_eval": "1",
                                   "duration_s": "0.004"})
        else:
            assert code == 2
            assert not any(Path(tmp).iterdir())
