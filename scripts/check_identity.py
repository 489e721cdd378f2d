#!/usr/bin/env python3
"""Check that the working tree's CLI outputs are byte-identical to REV's.

Exports REV's `src/` with `git archive` into a temporary directory, then
runs the same CLI commands on that export and on the working tree, each in
its own subprocess with one BLAS thread and a fixed small config (seed 3,
32 training items, 12 eval items of 0.5 s, 5 epochs): gen-data, train-vel,
train-mr, ablate, nfe-sweep, nfe-sweep --field oracle and extract
--reference on one item. Every file they write (CSVs, SVG, checkpoints,
WAVs, ADFT tensors, effective configs) and every line they print must match
byte for byte. For each CSV that differs, it prints the largest relative
difference over its numeric cells and the column it occurs in, and for
each checkpoint that differs, the largest relative difference over the
values of its tensors and the index of the tensor, so an intended numeric
change shows its size. Exits 0 when all match, 1 on any difference.

Usage: python3 scripts/check_identity.py REV
"""

import csv
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

CONFIG = """\
seed = 3
n_train = 32
n_eval = 12
duration_s = 0.5
epochs = 5
output_dir = run
"""

DATA = "run/dataset/item_0000"
COMMANDS = (
    ["gen-data"], ["train-vel"], ["train-mr"], ["ablate"], ["nfe-sweep"],
    ["nfe-sweep", "--field", "oracle", "--checkpoints", "run",
     "--out", "oracle"],
    ["extract", "--in", f"{DATA}_x.wav", "--enroll", f"{DATA}_e.wav",
     "--out-wav", "extract.wav", "--reference", f"{DATA}_s1.wav"],
)


def export_src(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=REPO, check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_commands(src: Path, work: Path) -> str:
    """Run every command in `work` against the package in `src`; the output."""
    work.mkdir()
    (work / "run.cfg").write_text(CONFIG, "utf-8")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    printed = []
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "adflow", command[0],
                               "--config", "run.cfg", *command[1:]],
                              cwd=work, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            sys.exit(f"{src}: adflow {' '.join(command)} exited "
                     f"{proc.returncode}\n{proc.stderr}")
        printed.append(proc.stdout)
    return "".join(printed)


def files_under(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def csv_difference(new: bytes, old: bytes) -> str:
    """The largest relative difference over the numeric cells of two CSVs,
    with its column, or what keeps them from being compared cell by cell."""
    a = list(csv.reader(new.decode("utf-8").splitlines()))
    b = list(csv.reader(old.decode("utf-8").splitlines()))
    if a[:1] != b[:1]:
        return "headers differ"
    if len(a) != len(b) or any(len(r) != len(s) for r, s in zip(a, b)):
        return "shapes differ"
    worst, column = 0.0, None
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
            rel = abs(x - y) / max(abs(x), abs(y))
            if rel > worst:
                worst, column = rel, name
    return f"largest relative difference {worst:.2g} in column {column}"


def ckpt_tensors(data: bytes) -> list:
    """The ADFT tensors that follow a checkpoint's header line."""
    pos = data.index(b"\n") + 1
    tensors = []
    while pos < len(data):
        if data[pos:pos + 4] != b"ADFT":
            raise ValueError(f"no tensor magic at byte {pos}")
        (rank,) = struct.unpack_from("<I", data, pos + 4)
        dims = struct.unpack_from(f"<{rank}I", data, pos + 8)
        pos += 8 + 4 * rank
        count = math.prod(dims)
        tensors.append(np.frombuffer(data, "<f4", count, pos).reshape(dims))
        pos += 4 * count
    return tensors


def ckpt_difference(new: bytes, old: bytes) -> str:
    """The largest relative difference over the tensor values of two
    checkpoints, with the tensor's index, or what keeps them from being
    compared value by value."""
    if new.split(b"\n", 1)[0] != old.split(b"\n", 1)[0]:
        return "headers differ"
    try:
        a, b = ckpt_tensors(new), ckpt_tensors(old)
    except (ValueError, struct.error) as exc:
        return f"tensors unreadable ({exc})"
    if [t.shape for t in a] != [t.shape for t in b]:
        return "tensor shapes differ"
    worst, index = 0.0, None
    for i, (x, y) in enumerate(zip(a, b)):
        x, y = x.astype(np.float64), y.astype(np.float64)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            return f"non-finite value in tensor {i}"
        differ = x != y
        if np.any(differ):
            rel = np.max(np.abs(x - y)[differ]
                         / np.maximum(np.abs(x), np.abs(y))[differ])
            if rel > worst:
                worst, index = float(rel), i
    return f"largest relative difference {worst:.2g} in tensor {index}"


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rev_src = export_src(rev, tmp / "rev")
        printed_new = run_commands(REPO / "src", tmp / "new")
        printed_old = run_commands(rev_src, tmp / "old")
        new, old = files_under(tmp / "new"), files_under(tmp / "old")
    paths = sorted(new.keys() | old.keys())
    differ = [p for p in paths if new.get(p) != old.get(p)]
    for p in differ:
        compare = {".csv": csv_difference, ".ckpt": ckpt_difference}.get(
            p.suffix)
        note = (f" ({compare(new[p], old[p])})"
                if compare and p in new and p in old else "")
        print(f"DIFFERS: {p}{note}")
    if printed_new != printed_old:
        differ.append("printed output")
        print("DIFFERS: printed output")
    print(f"{len(paths)} files and the printed output compared with {rev}: "
          + (f"{len(differ)} differ" if differ else "all byte-identical"))
    print(printed_new, end="")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
