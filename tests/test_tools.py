"""The measurement scripts under tools/ still run against this checkout.

``tools/rss_slope.py`` and ``tools/cold_load.py`` back the cold-load and
peak-RSS figures quoted in CHANGES.md and README; nothing else imports
them, so a signature change in the package could break them silently.
Every step runs here on a 5 s capture; ``report`` then draws 5 slots.
"""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("rss_slope"), importlib.import_module("cold_load")


def test_child_steps_run_on_a_short_capture(tools, tmp_path):
    rss_slope, _ = tools
    sim = rss_slope.run_child(str(ROOT), "simulate", 5, str(tmp_path))
    assert sim["records"] > 0 and sim["frames"] > 0
    load = rss_slope.run_child(str(ROOT), "load", 5, str(tmp_path))
    assert load["records"] == sim["records"]
    assert load["seconds"] > 0
    analyze = rss_slope.run_child(str(ROOT), "analyze", 5, str(tmp_path))
    assert analyze["maxrss_kib"] > 0
    assert (tmp_path / "d5" / "summary.csv").is_file()
    assert (tmp_path / "d5" / "capture.jsonl.columns").is_file()
    report = rss_slope.run_child(str(ROOT), "report", 5, str(tmp_path))
    assert report["maxrss_kib"] > 0


def test_cold_load_report_gives_median_and_quartiles(tools):
    _, cold_load = tools
    assert cold_load.report({"/a": [5.0, 1.0, 3.0, 2.0, 4.0], "/b": [0.5, 0.5]}).splitlines() == [
        "| checkout | runs | median s | q1 s | q3 s | q3 - q1 s |",
        "| --- | ---: | ---: | ---: | ---: | ---: |",
        "| /a | 5 | 3.000 | 2.000 | 4.000 | 2.000 |",
        "| /b | 2 | 0.500 | 0.500 | 0.500 | 0.000 |",
    ]
