#!/usr/bin/env python3
"""Check that every function-body line of src/adflow runs under Tier-1.

Runs the Tier-1 suite (pytest over `tests/`) in this process under a line
tracer, set with `sys.settrace` and `threading.settrace`, that records
only the frames of code in `src/adflow`. It then lists each line of a
function body (nested functions, lambdas and comprehensions included)
that never ran, as `path:line: text`. A body line is one that starts an
instruction after the function's prologue, so a def line, a docstring or
a line of a closing bracket is not one. Lines run only in a subprocess
are not seen.

ALLOWED lists lines that may stay unreached, each by its stripped text,
not its number, with the reason. An entry that matches no unreached line
is reported too, so the allowlist does not outlive its line.

Exits with pytest's code if Tier-1 fails, 1 if a line not on the
allowlist never ran or an entry matched nothing, and 0 otherwise.

Usage: python3 scripts/check_lines.py
"""

import dis
import inspect
import sys
import threading
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "adflow"

# stripped line text -> why it may stay unreached under Tier-1
ALLOWED: dict = {}


def body_lines(path: Path) -> set:
    """The line numbers that start an instruction in a function body of the
    module at `path`, after each function's prologue (up to its RESUME,
    which Python 3.10 does not have)."""
    lines, stack = set(), [compile(path.read_bytes(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
        if not code.co_flags & inspect.CO_OPTIMIZED:  # a module or class body
            continue
        resume = next((i.offset for i in dis.get_instructions(code)
                       if i.opname == "RESUME"), -1)
        lines.update(line for offset, line in dis.findlinestarts(code)
                     if offset > resume and line is not None)
    return lines


def run_traced() -> tuple:
    """(pytest's exit code, {path: line numbers that ran}) for Tier-1 run
    here under the tracer."""
    ran = {str(p): set() for p in SRC.glob("*.py")}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if frame.f_code.co_filename in ran:
            return trace_lines
        return None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            str(REPO / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    code, ran = run_traced()
    if code != 0:
        print(f"Tier-1 failed (pytest exit code {code})")
        return int(code)
    unused, missed, allowed, total = dict(ALLOWED), 0, 0, 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text("utf-8").splitlines()
        body = body_lines(path)
        total += len(body)
        for line in sorted(body - ran[str(path)]):
            stripped = text[line - 1].strip()
            if stripped in ALLOWED:
                unused.pop(stripped, None)
                allowed += 1
                continue
            missed += 1
            print(f"{path.relative_to(REPO)}:{line}: {stripped}")
    for stripped in unused:
        print(f"ALLOWED BUT RAN OR GONE: {stripped}")
    print(f"src/adflow: {total - missed - allowed} of {total} function-body "
          f"lines ran under Tier-1; {allowed} unreached lines allowed")
    return 1 if missed or unused else 0


if __name__ == "__main__":
    sys.exit(main())
