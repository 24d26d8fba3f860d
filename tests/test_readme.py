"""README's examples run as written.

Each fenced ``python`` block of README.md runs, in file order, in a
fresh namespace and a temporary working directory, with its printed
output discarded, so a renamed function or a changed return value
breaks this test instead of the documentation.  Each offline
``wamsbench`` line of the fenced ``sh`` blocks runs too, in file order
in one temporary directory, and every flag of a live line must be one
its command's ``--help`` lists.
"""

import contextlib
import dataclasses
import io
import re
import shlex
from pathlib import Path

import pytest

from wamsbench import cli

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.MULTILINE | re.DOTALL)
OFFLINE = ("simulate", "analyze", "report", "samplesize")
LIVE = ("serve", "emulate")


def python_blocks() -> list:
    """(first line number, source) of each fenced python block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1)) for m in _BLOCK.finditer(text)]


def test_readme_has_python_examples():
    assert len(python_blocks()) >= 3


@pytest.mark.parametrize("line,source", [pytest.param(*block, id=f"line{block[0]}") for block in python_blocks()])
def test_readme_python_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = compile(source, f"README.md:{line}", "exec")
    with contextlib.redirect_stdout(io.StringIO()):
        exec(code, {"__name__": "__readme__"})


def command_lines() -> list:
    """(line number, arguments after ``wamsbench``) of each ``wamsbench``
    line of the fenced sh blocks, without a trailing ``&``."""
    text = README.read_text(encoding="utf-8")
    lines = []
    for m in _SH_BLOCK.finditer(text):
        first = text.count("\n", 0, m.start(1)) + 1
        for offset, line in enumerate(m.group(1).splitlines()):
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["wamsbench"]:
                lines.append((first + offset, [arg for arg in argv[1:] if arg != "&"]))
    return lines


def test_readme_offline_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    load = cli.load_scenario
    # cut to the 300 one-second slots that the --sample-size 300 line draws
    monkeypatch.setattr(cli, "load_scenario", lambda name: dataclasses.replace(load(name), duration_s=300))
    printed = {}
    for line, argv in command_lines():
        if argv[0] in OFFLINE:
            code = cli.main(argv)
            printed[argv[0]] = capsys.readouterr()
            assert code == 0, f"README.md:{line}: {printed[argv[0]].err}"
    assert sorted(printed) == sorted(OFFLINE)
    # the figures README quotes for its samplesize line
    assert "n_min = 7246.63" in printed["samplesize"].out
    assert "n_min = 330.65" in printed["samplesize"].out


@pytest.mark.parametrize("command", LIVE)
def test_readme_live_flags_are_in_help(command, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    used = {arg for _, argv in command_lines() if argv[0] == command for arg in argv if arg.startswith("--")}
    assert used and used <= listed, used - listed
