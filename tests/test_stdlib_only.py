"""The package runs on the standard library alone.

A child interpreter started with ``-I -S`` sees neither site-packages nor
PYTHONPATH, so any third-party import, one made lazily inside a function
included, fails it.  ``-B`` keeps it from writing bytecode into ``src``:
under ``-I`` the PYTHONDONTWRITEBYTECODE variable is ignored.  No
command imports ``hashlib``: the column cache is keyed on the capture's
file identity, and no load hashes the capture.  Nor does a ``simulate``,
``analyze`` or ``report`` process import a module it never runs: the
socket stack, which only ``serve`` and ``emulate`` open; ``statistics``
with its ``decimal`` and ``fractions``, which only ``samplesize
--presample-file`` needs, and which it then imports and runs; or
``csv``, since no CSV cell needs quoting.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

CHILD = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import wamsbench
for module in pkgutil.walk_packages(wamsbench.__path__, "wamsbench."):
    importlib.import_module(module.name)
from wamsbench import cli
scenario, out = sys.argv[2], sys.argv[3]
capture = out + "/capture.jsonl"
for argv in (["simulate", scenario, out], ["analyze", capture], ["report", capture, "--sample-size", "5"]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
if "hashlib" in sys.modules:
    sys.exit("a command imported hashlib")
never_run = ("socket", "select", "selectors", "statistics", "decimal", "fractions", "csv")
unused = [name for name in never_run if name in sys.modules]
if unused:
    sys.exit(f"simulate, analyze and report imported {unused}")
if cli.main(["samplesize", "--presample-file", sys.argv[4]]) != 0:
    sys.exit("samplesize exited nonzero")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("wamsbench."))))
"""


def test_every_module_and_command_runs_without_site_packages(tmp_path):
    text = (SRC / "wamsbench" / "scenarios" / "lossless.scenario").read_text()
    assert "duration_s = 60\n" in text
    scenario = tmp_path / "lossless10.scenario"
    scenario.write_text(text.replace("duration_s = 60\n", "duration_s = 10\n"))
    presample = tmp_path / "presample.txt"
    presample.write_text("2 4 4 4 5 5 7 9\n")  # mean 5, population standard deviation 2
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", CHILD, str(SRC), str(scenario), str(tmp_path / "run"), str(presample)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"{presample}: S = 2.000000\n" in proc.stdout
    modules = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {f"wamsbench.{path.stem}" for path in (SRC / "wamsbench").glob("*.py") if path.stem != "__init__"}
    assert expected <= set(modules)
    for name in ("summary.csv", "delay_series.csv", "throughput_series.csv"):
        assert (tmp_path / "run" / name).stat().st_size > 0
