"""Set-up probe: what a fresh process does before a workload's first call.

    python3 perfbench/probe.py WORKLOAD CONFIG CKPT_DIR DATA_DIR

Imports adflow and loads the run config; `evaluate` and `serve` also load
both checkpoints, and `serve` reads the mixture, enrollment and reference
WAVs. run.py times the whole process, interpreter start included.
"""

import sys
from pathlib import Path

from adflow import cli, mrnet, signal, velnet

workload, config, ckpt_dir, data_dir = sys.argv[1:5]
cli.load_config(config)
if workload != "train":
    velnet.load_velnet(Path(ckpt_dir) / "velnet.ckpt")
    mrnet.load_mrnet(Path(ckpt_dir) / "mrnet.ckpt")
if workload == "serve":
    for path in sorted(Path(data_dir).glob("item_*_[xe].wav")) + sorted(
            Path(data_dir).glob("item_*_s1.wav")):
        signal.read_wav(path)
