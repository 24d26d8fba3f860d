"""Output checks for benchmark runs.

Every check is one attempted operation; a check that does not hold is a
failed one, with a line saying why.  The checks read the files a run
wrote, line by line, so they add nothing to the workload process's
memory or timings.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

SIM_OUTPUTS = ("capture.jsonl", "measurements.jsonl")
ANALYZE_OUTPUTS = ("summary.csv", "delay_series.csv", "throughput_series.csv", "report.txt")

LOSSLESS_DELAY_MS = "101.146"  # t_p + 8*55/r at 100 ms and 384 kbit/s, as the CSVs print it
# acceptance criterion 4: wasted bandwidth of the 0.3% loss run
LOSSY_WASTED_PCT = (0.2, 0.4)
LOSSY_MIN_FRAMES = 100_000  # the criterion's volume; fewer frames are too noisy to judge


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def expect(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def digests(out_dir, names) -> dict:
    return {name: sha256(Path(out_dir) / name) for name in names}


def check_digests(checks: Checks, label: str, found: dict, expected: dict) -> None:
    for name, want in expected.items():
        got = found.get(name)
        checks.expect(f"{label} {name} sha256", got == want, f"{got} != {want}")


def check_same(checks: Checks, label: str, first, second) -> None:
    """Two runs of one seed must agree exactly."""
    checks.expect(label, first == second, f"{first!r} != {second!r}")


def _scan_log(path, visit):
    """Call ``visit(header, record)`` for each record of a JSON-lines log;
    returns the integrity trailer, None when the log has none."""
    trailer = None
    with open(path, encoding="utf-8") as fh:
        header = json.loads(next(fh))["header"]
        for line in fh:
            obj = json.loads(line)
            if "integrity" in obj:
                trailer = obj["integrity"]
            else:
                visit(header, obj)
    return trailer


def check_sim_outputs(checks: Checks, workload: str, out_dir, counts: dict) -> None:
    """Invariants that hold for every seed of the simulation workloads."""
    out_dir = Path(out_dir)
    rows = Counter()
    delays = Counter()

    def visit_row(header, row):
        rows[row["device_id"]] += 1
        if workload == "sim_lossless":
            delay = row["arrival_time"] - (row["frame_timestamp"] + (header.get("t_fdr_ms") or 0.0))
            delays[f"{delay:.3f}"] += 1

    trailer = _scan_log(out_dir / "measurements.jsonl", visit_row)
    total_rows = sum(rows.values())
    checks.expect(
        "measurements trailer counts the rows",
        trailer is not None and trailer.get("rows") == total_rows,
        f"trailer {trailer} vs {total_rows} rows",
    )
    for dev in counts["devices"]:
        got = rows[dev["device_id"]] + dev["frames_dropped_offline"]
        checks.expect(
            f"device {dev['device_id']} rows + dropped offline == generated",
            got == dev["frames_generated"],
            f"{got} != {dev['frames_generated']}",
        )
    if workload == "sim_lossless":
        off = total_rows - delays[LOSSLESS_DELAY_MS]
        checks.expect(f"every lossless delay is {LOSSLESS_DELAY_MS} ms", off == 0, f"{off} differ")

    uplink = Counter()
    records = Counter()

    def visit_record(header, rec):
        records["all"] += 1
        if rec["direction"] == "UPLINK":
            uplink[rec["retransmission_class"]] += rec["payload_bytes"] + rec["header_bytes"]

    trailer = _scan_log(out_dir / "capture.jsonl", visit_record)
    checks.expect(
        "capture trailer counts the records",
        trailer is not None and trailer.get("records") == records["all"],
        f"trailer {trailer} vs {records['all']} records",
    )
    frames = sum(d["frames_generated"] for d in counts["devices"])
    if workload == "sim_lossy" and frames >= LOSSY_MIN_FRAMES:
        total = sum(uplink.values())
        wasted = 100.0 * (uplink["RTO_RETX"] + uplink["FAST_RETX"]) / total if total else 0.0
        low, high = LOSSY_WASTED_PCT
        checks.expect(
            "retransmitted bytes track the 0.3% loss rate",
            low <= wasted <= high,
            f"{wasted:.4f}% outside [{low}, {high}]",
        )


def check_analyze_outputs(checks: Checks, prep_dir, out_dir, prep_counts: dict, run: dict) -> None:
    """Invariants that hold for every seed of the analyzer workload."""
    prep_dir, out_dir = Path(prep_dir), Path(out_dir)
    checks.expect("analyze and report exit 0", run["counts"]["exit_codes"] == [0, 0],
                  f"exit codes {run['counts']['exit_codes']}")
    checks.expect(
        "summary from simulate equals the re-analyzed one",
        (prep_dir / "summary.csv").read_bytes() == (out_dir / "summary.csv").read_bytes(),
        "summary.csv differs",
    )
    with open(out_dir / "delay_series.csv", encoding="utf-8") as fh:
        delays = sum(1 for _ in fh) - 1
    rows = prep_counts["ingest_counters"]["rows"]
    checks.expect("one delay per measurement row", delays == rows, f"{delays} != {rows}")
    loaded = run["counts"]["loaded"]
    records = prep_counts["capture_counters"]["records"]
    checks.expect(
        "both paths load every capture record",
        loaded == {"records": 2 * records, "skipped_lines": 0},
        f"{loaded} vs 2 x {records} records",
    )
