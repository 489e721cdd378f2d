#!/usr/bin/env python3
"""Check that the working tree's CLI outputs are byte-identical to REV's.

Exports REV's `src/` with `git archive` into a temporary directory, then
runs the same CLI commands on that export and on the working tree, each in
its own subprocess with one BLAS thread and a fixed small config (seed 3,
32 training items, 12 eval items of 0.5 s, 5 epochs): gen-data, train-vel,
train-mr, ablate, nfe-sweep, nfe-sweep --field oracle and extract
--reference on one item. Every file they write (CSVs, SVG, checkpoints,
WAVs, ADFT tensors, effective configs) and every line they print must match
byte for byte. Exits 0 when all match, 1 on any difference.

Usage: python3 scripts/check_identity.py REV
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rev_src = export_src(rev, tmp / "rev")
        printed_new = run_commands(REPO / "src", tmp / "new")
        printed_old = run_commands(rev_src, tmp / "old")
        new, old = files_under(tmp / "new"), files_under(tmp / "old")
    paths = sorted(new.keys() | old.keys())
    differ = [str(p) for p in paths if new.get(p) != old.get(p)]
    if printed_new != printed_old:
        differ.append("printed output")
    for name in differ:
        print(f"DIFFERS: {name}")
    print(f"{len(paths)} files and the printed output compared with {rev}: "
          + (f"{len(differ)} differ" if differ else "all byte-identical"))
    print(printed_new, end="")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
