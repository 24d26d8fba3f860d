"""The measurement scripts under tools/ still run against this checkout.

``tools/rss_slope.py`` and ``tools/cold_load.py`` back the cold-load and
peak-RSS figures quoted in CHANGES.md and README, and
``tools/slice_ab.py`` the per-second simulator comparisons; nothing else
imports them, so a signature change in the package could break them
silently.  Every step runs here on a 5 s capture; ``report`` then draws
5 slots.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tools(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("rss_slope"), importlib.import_module("cold_load")


def test_child_steps_run_on_a_short_capture(tools, tmp_path):
    rss_slope, _ = tools
    imported = rss_slope.run_child(str(ROOT), "import", 5, str(tmp_path))
    assert set(imported) == {"maxrss_kib"} and imported["maxrss_kib"] > 0
    sim = rss_slope.run_child(str(ROOT), "simulate", 5, str(tmp_path))
    assert sim["records"] > 0 and sim["frames"] > 0
    load = rss_slope.run_child(str(ROOT), "load", 5, str(tmp_path))
    assert load["records"] == sim["records"]
    assert load["seconds"] > 0 and load["maxrss_kib"] > 0
    analyze = rss_slope.run_child(str(ROOT), "analyze", 5, str(tmp_path))
    assert analyze["maxrss_kib"] > 0
    assert (tmp_path / "d5" / "summary.csv").is_file()
    cache = tmp_path / "d5" / "capture.jsonl.columns"
    sections = rss_slope.cache_sections(str(cache))
    meta_line = cache.read_bytes().split(b"\n", 1)[0] + b"\n"
    assert len(meta_line) + sum(sections.values()) == cache.stat().st_size
    assert list(sections) == ["table", "frames"]  # no record section
    assert rss_slope.cache_sections(str(tmp_path / "none.columns")) == {"table": 0, "frames": 0}
    report = rss_slope.run_child(str(ROOT), "report", 5, str(tmp_path))
    assert report["maxrss_kib"] > 0


@pytest.mark.parametrize("width,records", [(32, True), (4, True), (4, False)], ids=["sha256", "crc32", "no-records"])
def test_cache_sections_derive_the_check_width_from_the_file_size(width, records, tools, tmp_path):
    rss_slope, _ = tools
    # a table of 3 doubles, two devices' frames (20 B each): 1 and 4
    # frames, and in a cache before version 10, 2 records (18 B each)
    record_columns = [["d", 8, 2], ["i", 4, 2], ["B", 1, 2], ["B", 1, 2], ["H", 2, 2], ["H", 2, 2]] if records else []
    frame_columns = [column for n in (1, 4) for column in (["I", 4, n], ["q", 8, n], ["d", 8, n])]
    meta = {"table": {"columns": [["d", 8, 3]]}, "columns": record_columns + frame_columns, "frame_devices": [1, 2]}
    line = json.dumps(meta).encode() + b"\n"
    path = tmp_path / "c.columns"
    expected = {"table": 24 + width, "records": 36 + width, "frames": 100 + 2 * width}
    if not records:
        del expected["records"]
    size = sum(expected.values())
    path.write_bytes(line + bytes(size))
    assert rss_slope.cache_sections(str(path)) == expected
    path.write_bytes(line + bytes(size + 1))
    with pytest.raises(ValueError, match="do not add up"):
        rss_slope.cache_sections(str(path))


@pytest.mark.parametrize("record_bytes", [18, 0], ids=["before-version-10", "no-records"])
def test_report_splits_the_cache_slope_by_section(record_bytes, tools):
    rss_slope, _ = tools
    rows = [
        {"records": records, "frames": frames, **{step: 0 for step in rss_slope.STEPS},
         "cache": table + record_bytes * records + 20 * frames, "cache table": table,
         **({"cache records": 18 * records} if record_bytes else {}), "cache frames": 20 * frames}
        for records, frames, table in [(100, 50, 1000), (500, 250, 3000)]
    ]
    for row, duration in zip(rows, rss_slope.DURATIONS_S):
        row["duration_s"] = duration
    expected = [
        "| cache | 33.0 | 66.0 |" if record_bytes else "| cache | 15.0 | 30.0 |",
        "| cache table | 5.0 | 10.0 |",
        *(["| cache records | 18.0 | 36.0 |"] if record_bytes else []),
        "| cache frames | 10.0 | 20.0 |",
    ]
    assert rss_slope.report(rows).splitlines()[-len(expected):] == expected


def test_cold_load_report_gives_median_and_quartiles_and_median_peak_rss(tools):
    _, cold_load = tools
    # (seconds, peak RSS in KiB) per run; the peaks' median is not the
    # peak of the median time's run
    loads = {"/a": [(5.0, 20480), (1.0, 10240), (3.0, 30720), (2.0, 20480), (4.0, 0)],
             "/b": [(0.5, 1024), (0.5, 2048)]}
    assert cold_load.report(loads).splitlines() == [
        "| checkout | runs | median s | q1 s | q3 s | q3 - q1 s | median peak RSS MiB |",
        "| --- | ---: | ---: | ---: | ---: | ---: | ---: |",
        "| /a | 5 | 3.000 | 2.000 | 4.000 | 2.000 | 20.0 |",
        "| /b | 2 | 0.500 | 0.500 | 0.500 | 0.000 | 1.5 |",
    ]


def test_slice_ab_compares_a_checkout_with_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "slice_ab.py"), "--root", str(ROOT), "--root", str(ROOT),
         "--scenario", "lossy_0p3", "--duration-s", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "seconds: 5"
    assert lines[1].startswith("A/B time ratio: median ")
    assert lines[-1] == "logs byte-identical: yes"
