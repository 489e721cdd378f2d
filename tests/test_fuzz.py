"""Damaged inputs through the CLI: checkpoints and WAVs with bytes cut off
or overwritten must end in an exit code of the contract, never in an
exception escaping `adflow.cli.main`."""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adflow.cli import main

CONFIG = """
seed = 0
n_train = 4
n_eval = 1
duration_s = 0.125
epochs = 1
batch_size = 4
max_nfe = 3
"""

TARGETS = ("velnet.ckpt", "mrnet.ckpt", "x.wav")

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
    """Copy the inputs, damage `target`, run the command that reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in (*TARGETS, "e.wav"):
            shutil.copy(pristine / name, work / name)
        (work / target).write_bytes(damage((work / target).read_bytes()))
        common = ["--config", str(pristine / "run.cfg"),
                  "--checkpoints", str(work), "--out", str(work / "out")]
        if target.endswith(".ckpt"):
            return main(["ablate", *common])
        return main(["extract", *common, "--in", str(work / "x.wav"),
                     "--enroll", str(work / "e.wav"),
                     "--out-wav", str(work / "o.wav")])


@FUZZ
@given(target=st.sampled_from(TARGETS), keep=st.floats(0.0, 1.0,
                                                        exclude_max=True))
def test_truncated_input_fails_closed(pristine, target, keep):
    # any cut loses declared bytes, so the input can never be accepted
    def cut(data):
        return data[:int(keep * len(data))]

    assert _run_on_damaged(pristine, target, cut) in (1, 2, 3, 4)


@FUZZ
@given(target=st.sampled_from(TARGETS), where=st.floats(0.0, 1.0,
                                                         exclude_max=True),
       patch=st.binary(min_size=1, max_size=8))
def test_overwritten_input_keeps_exit_contract(pristine, target, where,
                                               patch):
    # an overwrite inside sample or weight data can leave a valid file, so
    # success is allowed; an escaping exception or other code is not
    def overwrite(data):
        at = int(where * len(data))
        return data[:at] + patch[:len(data) - at] + data[at + len(patch):]

    assert _run_on_damaged(pristine, target, overwrite) in (0, 1, 2, 3, 4)
