"""Every dotted adflow name that README.md puts in backticks must exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "errors", "flowpath", "metrics", "mrnet", "sampler",
           "signal", "velnet")
NAME = re.compile(r"(?<![\w.])(?:adflow\.)?(%s)\.(\w+(?:\.\w+)*)"
                  % "|".join(MODULES))
# `velnet.ckpt` names a file, not an attribute
FILE_SUFFIXES = {"adfd", "adft", "cfg", "ckpt", "csv", "py", "svg", "txt",
                 "wav"}


def _readme_names() -> set:
    text = re.sub(r"```.*?```", "", README.read_text("utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {(module, path) for span in spans
            for module, path in NAME.findall(span)
            if path.rsplit(".", 1)[-1] not in FILE_SUFFIXES}


def test_readme_names_resolve():
    names = _readme_names()
    # guards the pattern itself: names from several modules are found
    assert {("signal", "MAX_N_FFT"), ("cli", "_eval_items"),
            ("velnet", "_BLOCK_ROWS")} <= names
    missing = []
    for module, path in sorted(names):
        obj = importlib.import_module(f"adflow.{module}")
        for attr in path.split("."):
            if not hasattr(obj, attr):
                missing.append(f"{module}.{path}")
                break
            obj = getattr(obj, attr)
    assert not missing, f"README names that do not resolve: {missing}"
