"""The README's examples print what it says they print.

Each ``$ ripening ...`` line of a console block runs through ``cli.main``
and its stdout must match the lines under it; a ``$ ls DIR`` line lists the
directory a run wrote.  The quick start runs as written, and each printed
line must match the comment beside or below its ``print``.  Lines match
when their text is equal and each number is within 2 ulps: numpy's SIMD
kernels round a few last bits differently from one CPU to another.
"""

import contextlib
import io
import math
import os
import re
import shlex
from pathlib import Path

from ripening import cli

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def _assert_lines_match(got, want, context):
    assert len(got) == len(want), context
    for g, w in zip(got, want):
        assert _NUMBER.split(g) == _NUMBER.split(w), (context, g, w)
        for x, y in zip(map(float, _NUMBER.findall(g)),
                        map(float, _NUMBER.findall(w))):
            assert abs(x - y) <= 2 * math.ulp(y), (context, g, w)


def _commands():
    """(command, expected output lines) for every ``$`` line."""
    out = []
    for block in _blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.rstrip("\n").split("\n")
            out.append((command, [line for line in lines if line]))
    return out


def test_console_blocks_found():
    commands = [c for c, _ in _commands()]
    assert "ripening tau --regime dl --z 1.0" in commands
    assert any(c.startswith("ripening simulate") for c in commands)
    assert any(c.startswith("ls ") for c in commands)


def test_console_blocks(tmp_path, monkeypatch):
    # One test runs them in order: `ls` reads what `simulate` wrote.
    monkeypatch.chdir(tmp_path)
    for command, want in _commands():
        program, *argv = shlex.split(command)
        if program == "ls":
            (folder,) = argv
            assert ["  ".join(sorted(os.listdir(folder)))] == want, command
            continue
        assert program == "ripening", command
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == 0, command
        _assert_lines_match(stdout.getvalue().splitlines(), want, command)


def _quick_start():
    (code,) = [b for b in _blocks("python") if "solve_return_point" in b]
    return code


def test_quick_start_values():
    # Pair each print with the comment on its line or, if that has none,
    # with a comment-only line right below it; a print with neither is run
    # but not checked.
    lines = _quick_start().splitlines()
    want = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        comment = line.partition("#")[2].strip()
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("#"):
            comment = lines[i + 1][1:].strip()
        want.append(comment or None)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(_quick_start(), "README.md", "exec"), {})
    got = stdout.getvalue().splitlines()
    assert len(got) == len(want)
    checked = [(g, w) for g, w in zip(got, want) if w is not None]
    assert len(checked) == 3
    _assert_lines_match([g for g, _ in checked], [w for _, w in checked],
                        "quick start")
