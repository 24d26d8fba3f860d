"""The benchmark's own tests.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1",
         "--trace", str(trace), "--duration-s", "20"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_self_time_excludes_wrapped_children(monkeypatch):
    now = [0]
    monkeypatch.setattr(tracer, "_clock", lambda: now[0])
    t = tracer.Tracer()

    def inner():
        now[0] += 30

    def outer():
        now[0] += 10
        traced_inner()
        now[0] += 5
        traced_inner()
        now[0] += 1

    traced_inner = t.wrap("inner", inner, phase=True)
    traced_outer = t.wrap("outer", outer, phase=True)
    traced_outer()

    assert t.stats["inner"] == [2, 60, 60]
    assert t.stats["outer"] == [1, 76, 16]
    spans = t.to_dict()["spans"]
    assert [(s["name"], s["parent"]) for s in spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    assert spans[0]["end_s"] - spans[0]["start_s"] == pytest.approx(76e-9)


def test_patch_keeps_method_kinds_and_restores():
    class Box:
        @classmethod
        def make(cls):
            return cls()

        def value(self):
            return 7

    originals = dict(vars(Box))
    t = tracer.Tracer()
    t.patch(Box, "make", "box.make")
    t.patch(Box, "value", "box.value")
    assert Box.make().value() == 7
    assert (t.calls("box.make"), t.calls("box.value")) == (1, 1)
    t.restore()
    assert vars(Box)["make"] is originals["make"]
    assert vars(Box)["value"] is originals["value"]


def test_flipped_byte_fails_the_digest_check(tmp_path):
    out = tmp_path / "summary.csv"
    out.write_bytes(b"device,avg_delay_ms\n1,101.146\n")
    pinned = {"summary.csv": checks.sha256(out)}

    intact = checks.Checks()
    checks.check_digests(intact, "run", checks.digests(tmp_path, pinned), pinned)
    assert (intact.attempted, intact.failed) == (1, 0)

    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0x01
    out.write_bytes(bytes(data))
    flipped = checks.Checks()
    checks.check_digests(flipped, "run", checks.digests(tmp_path, pinned), pinned)
    assert (flipped.attempted, flipped.failed) == (1, 1)
