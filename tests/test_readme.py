"""README's Python examples run as written.

Each fenced ``python`` block of README.md runs, in file order, in a
fresh namespace and a temporary working directory, with its printed
output discarded, so a renamed function or a changed return value
breaks this test instead of the documentation.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


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
