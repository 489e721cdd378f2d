"""README.md's backticked adflow names must exist, and the values it states
for them must be the code's."""

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
# "`module.NAME` = value": a number, 2^k, 2^k − m, or either in KiB or MiB,
# with an optional ± before it
STATED = re.compile(r"`([\w.]+)`\s+=\s+±?(\d+(?:\.\d+)?)(?:\^(\d+))?"
                    r"(?:\s+−\s+(\d+))?(?:\s+([KM])iB)?")


def _readme_text() -> str:
    return re.sub(r"```.*?```", "", README.read_text("utf-8"), flags=re.S)


def _readme_names() -> set:
    spans = re.findall(r"`([^`]+)`", _readme_text())
    return {(module, path) for span in spans
            for module, path in NAME.findall(span)
            if path.rsplit(".", 1)[-1] not in FILE_SUFFIXES}


def _resolve(module: str, path: str):
    """The object `adflow.<module>.<path>` names, or None."""
    obj = importlib.import_module(f"adflow.{module}")
    for attr in path.split("."):
        if not hasattr(obj, attr):
            return None
        obj = getattr(obj, attr)
    return obj


def stated_values(text: str) -> dict:
    """name -> the value README states for it, as a number."""
    out = {}
    for name, base, power, minus, unit in STATED.findall(text):
        value = float(base) if "." in base else int(base)
        if power:
            value **= int(power)
        value -= int(minus or 0)
        value *= {"": 1, "K": 2 ** 10, "M": 2 ** 20}[unit]
        out[name] = value
    return out


def test_readme_names_resolve():
    names = _readme_names()
    # guards the pattern itself: names from several modules are found
    assert {("signal", "MAX_N_FFT"), ("cli", "_eval_items"),
            ("velnet", "_BLOCK_ROWS")} <= names
    missing = [f"{module}.{path}" for module, path in sorted(names)
               if _resolve(module, path) is None]
    assert not missing, f"README names that do not resolve: {missing}"


def test_stated_values_parse():
    assert stated_values("`a.B` = 2^31 − 1, `a.C` = ±4.0 maps, "
                         "`a.D` = 4 KiB, `a.E` = 16\nMiB, `a.F` = 1000") == {
        "a.B": 2 ** 31 - 1, "a.C": 4.0, "a.D": 4096, "a.E": 16 * 2 ** 20,
        "a.F": 1000}


def test_readme_stated_values_match_code():
    stated = stated_values(_readme_text())
    # guards the pattern itself: every form of value is found
    assert {"signal.MAX_SAMPLE_RATE_HZ", "signal.WAV_FULL_SCALE",
            "signal._CHECKPOINT_HEADER_LIMIT", "signal._WORKSPACE_MAX_BYTES",
            "sampler.MAX_NFE", "velnet._BLOCK_ROWS"} <= stated.keys()
    wrong = {}
    for name, value in stated.items():
        match = NAME.fullmatch(name)
        actual = match and _resolve(*match.groups())
        if actual != value:
            wrong[name] = (value, actual)
    assert not wrong, f"README values (stated, code) that differ: {wrong}"
