#!/usr/bin/env python3
"""Check that the working tree's CLI outputs are byte-identical to REV's.

Exports REV's `src/` with `git archive` into a temporary directory, then
runs the same CLI commands on that export and on the working tree, each in
its own subprocess with one BLAS thread and a fixed small config (seed 3,
32 training items, 12 eval items of 0.5 s, 5 epochs): gen-data, train-vel,
train-mr, ablate, nfe-sweep, nfe-sweep --field oracle, ablate and
nfe-sweep with `--set epsilon=0.09` (items whose tau_hat is at least 0.91
then pass through in more lanes than `tau1`), train-vel into `padded` with
`--set duration_s=0.5001` (8,002 samples, not a multiple of velnet's
64-sample frame, so each item's last frame is padded and masked),
train-vel into `long` with `--set duration_s=1.1` (17,600 samples, 275
frames, so every item is split between two of velnet's 256-row training
blocks), and extract --reference on one item. Every file they write (CSVs,
SVG, checkpoints, WAVs, ADFT tensors, effective configs, and the dataset
stores `run/train_set.adfd`, `run/eval_set.adfd`, `oracle/eval_set.adfd`,
`eps/eval_set.adfd`, `padded/train_set.adfd` and `long/train_set.adfd`)
and every line they print must match byte for byte.

On each side, one more process then calls `adflow.cli.main` twice: an
extract with `--set max_nfe=1 --set n_fft=510 --set hop=128` into
`reuse_first.wav`, whose records then use a second STFT framing besides
the checkpoints' one, then the extract above into `reuse.wav`. The second
call must print what the extract subprocess printed and write `reuse.wav`
byte-identical to its `extract.wav`, so state left over from an earlier
call in one process shows as `REUSE DIFFERS`. A file written on one side
only is reported as `ONLY IN <side>: path`. Every process runs with
warnings as errors (`-W error`), and a temp file `.<name>.*.tmp` that an
output's atomic write leaves on either side is reported as `TEMP FILE LEFT
in <side>: path`. For each CSV that differs, it prints the largest relative
and the largest absolute difference over its numeric cells, each with the
column it occurs in, and for each checkpoint that differs, the same two
over the values of its tensors, each with the index of its tensor, so an
intended numeric change shows its size (a relative one alone overstates a
change to values near 0). It also prints the line count of
`src/adflow/*.py` (as `wc -l` counts it) at REV and in the working tree.
Exits 0 when all match, 1 on any difference, a one-sided file, a reuse
difference or a temp file left included.

Usage: python3 scripts/check_identity.py REV
"""

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from adflow.errors import FileFormatError  # noqa: E402
from adflow.signal import _parse_tensor  # noqa: E402

CONFIG = """\
seed = 3
n_train = 32
n_eval = 12
duration_s = 0.5
epochs = 5
output_dir = run
"""

DATA = "run/dataset/item_0000"


def extract(out_wav: str) -> list:
    return ["extract", "--in", f"{DATA}_x.wav", "--enroll", f"{DATA}_e.wav",
            "--out-wav", out_wav, "--reference", f"{DATA}_s1.wav"]


COMMANDS = (
    ["gen-data"], ["train-vel"], ["train-mr"], ["ablate"], ["nfe-sweep"],
    ["nfe-sweep", "--field", "oracle", "--checkpoints", "run",
     "--out", "oracle"],
    ["ablate", "--checkpoints", "run", "--out", "eps",
     "--set", "epsilon=0.09"],
    ["nfe-sweep", "--checkpoints", "run", "--out", "eps",
     "--set", "epsilon=0.09"],
    ["train-vel", "--out", "padded", "--set", "duration_s=0.5001"],
    ["train-vel", "--out", "long", "--set", "duration_s=1.1"],
    extract("extract.wav"),
)


def with_config(command: list) -> list:
    return [command[0], "--config", "run.cfg", *command[1:]]


# Two extract requests through one process; the second one's printed output
# follows the marker line.
REUSE_FIRST = with_config(extract("reuse_first.wav")) + [
    "--set", "max_nfe=1", "--set", "n_fft=510", "--set", "hop=128"]
REUSE_SECOND = with_config(extract("reuse.wav"))
REUSE_MARKER = "--- second call\n"
REUSE_DRIVER = f"""\
import sys
from adflow.cli import main
code = main({REUSE_FIRST!r})
print({REUSE_MARKER!r}, end="", flush=True)
sys.exit(code or main({REUSE_SECOND!r}))
"""


def export_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=REPO, check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_commands(src: Path, work: Path) -> tuple:
    """Run every command in `work` against the package in `src`, then the
    reuse driver; (the commands' printed output, what the driver's second
    call did differently from the extract subprocess)."""
    work.mkdir()
    (work / "run.cfg").write_text(CONFIG, "utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")

    def run(argv: list, what: str) -> str:
        proc = subprocess.run([sys.executable, "-W", "error", *argv],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"{src}: {what} exited {proc.returncode}\n"
                     f"{proc.stderr}")
        return proc.stdout

    printed = [run(["-m", "adflow", *with_config(command)],
                   "adflow " + " ".join(command)) for command in COMMANDS]
    second = run(["-c", REUSE_DRIVER], "the reuse driver").split(
        REUSE_MARKER, 1)[1]
    reuse = []
    if second != printed[-1]:
        reuse.append("printed output")
    if (work / "reuse.wav").read_bytes() != \
            (work / "extract.wav").read_bytes():
        reuse.append("reuse.wav")
    return "".join(printed), reuse


def line_count(src: Path) -> int:
    return sum(p.read_bytes().count(b"\n")
               for p in (src / "adflow").glob("*.py"))


def files_under(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def largest(diffs: list, kind: str) -> str:
    """The largest relative and the largest absolute of `diffs`, a list of
    (relative, absolute, where) differences, each with where it occurs."""
    rel = max(diffs, key=lambda d: d[0], default=(0.0, 0.0, None))
    diff = max(diffs, key=lambda d: d[1], default=(0.0, 0.0, None))
    return (f"largest relative difference {rel[0]:.2g} in {kind} {rel[2]}, "
            f"largest absolute difference {diff[1]:.2g} in {kind} {diff[2]}")


def csv_difference(new: bytes, old: bytes) -> str:
    """The largest relative and absolute differences over the numeric cells
    of two CSVs, with their columns, or what keeps them from being compared
    cell by cell."""
    a = list(csv.reader(new.decode("utf-8").splitlines()))
    b = list(csv.reader(old.decode("utf-8").splitlines()))
    if a[:1] != b[:1]:
        return "headers differ"
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return "shapes differ"
    diffs = []
    for r, s in zip(a[1:], b[1:]):
        for name, u, v in zip(a[0], r, s):
            if u == v:
                continue
            try:
                x, y = float(u), float(v)
            except ValueError:
                return f"text differs in column {name}"
            if not (math.isfinite(x) and math.isfinite(y)):
                return f"non-finite value differs in column {name}"
            diffs.append((abs(x - y) / max(abs(x), abs(y)), abs(x - y), name))
    return largest(diffs, "column")


def ckpt_tensors(data: bytes) -> list:
    """The ADFT tensors that follow a checkpoint's header line."""
    pos = data.index(b"\n") + 1
    tensors = []
    while pos < len(data):
        tensor, pos = _parse_tensor(data, pos)
        tensors.append(tensor)
    return tensors


def ckpt_difference(new: bytes, old: bytes) -> str:
    """The largest relative and absolute differences over the tensor values
    of two checkpoints, with their tensors' indices, or what keeps them from
    being compared value by value."""
    if new.split(b"\n", 1)[0] != old.split(b"\n", 1)[0]:
        return "headers differ"
    try:
        a, b = ckpt_tensors(new), ckpt_tensors(old)
    except (ValueError, FileFormatError) as exc:
        return f"tensors unreadable ({exc})"
    if [t.shape for t in a] != [t.shape for t in b]:
        return "tensor shapes differ"
    diffs = []
    for i, (x, y) in enumerate(zip(a, b)):
        x, y = x.astype(np.float64), y.astype(np.float64)
        differ = x != y
        if np.any(differ):
            diff = np.abs(x - y)[differ]
            diffs.append((float(np.max(
                diff / np.maximum(np.abs(x), np.abs(y))[differ])),
                float(np.max(diff)), i))
    return largest(diffs, "tensor")


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rev_src = export_src(rev, tmp / "rev")
        lines_old, lines_new = line_count(rev_src), line_count(REPO / "src")
        printed_new, reuse_new = run_commands(REPO / "src", tmp / "new")
        printed_old, reuse_old = run_commands(rev_src, tmp / "old")
        new, old = files_under(tmp / "new"), files_under(tmp / "old")
    paths = sorted(new.keys() | old.keys())
    differ = [p for p in paths if new.get(p) != old.get(p)]
    for p in differ:
        if p not in old:
            print(f"ONLY IN working tree: {p}")
        elif p not in new:
            print(f"ONLY IN {rev}: {p}")
        else:
            compare = {".csv": csv_difference,
                       ".ckpt": ckpt_difference}.get(p.suffix)
            note = f" ({compare(new[p], old[p])})" if compare else ""
            print(f"DIFFERS: {p}{note}")
    if printed_new != printed_old:
        differ.append("printed output")
        print("DIFFERS: printed output")
    for side, reuse, files in (("working tree", reuse_new, new),
                               (rev, reuse_old, old)):
        for what in reuse:
            print(f"REUSE DIFFERS in {side}: {what} of the second in-process "
                  "extract")
            differ.append(what)
        for p in files:
            if p.name.startswith(".") and p.name.endswith(".tmp"):
                print(f"TEMP FILE LEFT in {side}: {p}")
                differ.append(p)
    print(f"{len(paths)} files and the printed output compared with {rev}: "
          + (f"{len(differ)} differ" if differ else "all byte-identical"))
    print(printed_new, end="")
    print(f"src/adflow: {lines_old} lines at {rev}, {lines_new} in the "
          "working tree")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
