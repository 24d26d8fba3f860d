"""wamsbench benchmark: simulate and analyze, end to end and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload sim_lossy [--seed N] [--seconds 30] [--trace 0|1]

Workloads (each runs in fresh child processes, see child.py):
  sim_lossy      bundled lossy_0p3 (10 devices x 1000 s, 0.3% loss):
                 every simulation layer works, loss recovery included
  sim_lossless   bundled lossless at 600 s: no loss, no jitter, no
                 splitting, so only the per-frame path carries load
  analyze_lossy  a lossy_0p3 capture of the same seed cut to 400 s, made
                 before timing starts; timed: ``analyze``, then a
                 sampled ``report`` on a fresh load

--seed replaces the scenario's seed (default: the bundled one).  An
untraced run repeats whole passes, as many as --seconds holds at the
workload's nominal pass time, and prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics.  Every run checks the
outputs; the last line of stdout is one JSON object, and the exit code
is 1 when a check failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks as ck

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("sim_lossy", "sim_lossless", "analyze_lossy")
SETUP_PROBES = 9
STEP_PERCENTILE = 90  # the step time the sim metrics read: see "Timing statistics" in README.md
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "command_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics that read zero on a workload that never runs the layer
PER_LAYER = [
    "simnet.events_scheduled", "simnet.events_dispatched", "simnet.events_canceled",
    "simnet.dispatch_ratio", "simnet.pending_peak", "simnet.core_self_s",
    "simnet.schedule.self_s", "simnet.host_us_per_event",
    "simnet.link.calls", "simnet.link.self_s", "simnet.jitter.calls", "simnet.jitter.self_s",
    "simnet.dropped_copies",
    "tcplite.send.calls", "tcplite.send.self_s", "tcplite.deliver.calls",
    "tcplite.deliver.self_s", "tcplite.rto_update.calls", "tcplite.copies.FIRST",
    "tcplite.copies.RTO_RETX", "tcplite.copies.FAST_RETX", "tcplite.first_copy_ratio",
    "tcplite.dup_data_segments", "tcplite.protocol_errors", "tcplite.connections",
    "frame.encode.calls", "frame.encode.self_s", "frame.decode.calls", "frame.decode.self_s",
    "fdr.measure.calls", "fdr.measure.self_s",
    "dcs.ingest.calls", "dcs.ingest.self_s", "dcs.assembler.self_s", "dcs.rows",
    "dcs.duplicate_frames", "dcs.resync_bytes", "dcs.crc_errors",
    "dcs.log.writes", "dcs.log.self_s", "dcs.to_json.self_s", "dcs.capture_bytes",
    "dcs.measurement_bytes",
    "sim.write_record.calls", "sim.write_record.self_s", "sim.step_ms_p50", "sim.step_ms_p98",
    "analyzer.load.self_s", "analyzer.summarize.self_s", "analyzer.delays.self_s",
    "analyzer.series.self_s", "analyzer.write.self_s", "analyzer.load.records",
    "analyzer.delays.calls", "analyzer.series.calls", "analyzer.skipped_lines",
    "stats.sample.self_s", "scenario.load_s",
    "proc.cpu_ratio", "trace.overhead_s",
    "share.capture_logging_pct", "share.ingest_pct", "share.event_core_pct", "share.channel_pct",
]
# ROADMAP's cProfile shares of paper_like simulation time, for the traced split
PROFILE_SHARES = {"capture_logging": 25, "ingest": 13, "event_core": 12, "channel": 10}


def unit_of(name: str) -> str:
    for suffix, unit in (("_pct", "%"), ("_ratio", "ratio"), ("_bytes", "bytes"),
                         ("_us_per_event", "us"), ("_p50", "ms"), ("_p98", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


class BenchError(Exception):
    """A child failed or the run went over its time budget."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        tag = f"{args.workload}-{args.seed if args.seed is not None else 'default'}"
        self.work = WORK_DIR / f"{tag}-{os.getpid()}"
        self.trace_path = WORK_DIR / f"trace-{tag}.json"

    def child(self, mode: str, name: str, **extra) -> dict:
        """Run one child process to completion and return its result."""
        out = self.work / name
        spec = dict(
            mode=mode, workload=self.args.workload, seed=self.args.seed,
            duration_s=self.args.duration_s, seconds=self.args.seconds, out=str(out),
        )
        spec.update(extra)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run budget of {RUN_BUDGET_S:.0f} s spent before the {name} child")
        spec["t0_ns"] = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                stdout=sys.stderr, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} child ran past the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{name} child exited with code {proc.returncode}")
        with open(out / "result.json", encoding="utf-8") as fh:
            return json.load(fh)

    def prep(self):
        if not self.args.workload.startswith("analyze"):
            return None, {}
        prep = self.child("prep", "prep")
        return prep, {"capture": str(self.work / "prep" / "capture.jsonl")}

    def expected_digests(self) -> dict:
        if self.args.seed is not None or self.args.duration_s is not None:
            return {}
        with open(BENCH_DIR / "digests.json", encoding="utf-8") as fh:
            return json.load(fh)[self.args.workload]

    def check_pass(self, checks, result: dict, prep, label: str, reference=None) -> dict:
        """Check one pass's outputs, against the invariants or, when a
        reference (digests, counts) is given, against that; returns the
        outputs' digests."""
        names = ck.ANALYZE_OUTPUTS if prep else ck.SIM_OUTPUTS
        found = ck.digests(result["out"], names)
        if reference is None:
            ck.check_digests(checks, label, found, self.expected_digests())
            if prep:
                ck.check_analyze_outputs(checks, self.work / "prep", result["out"], prep["counts"], result)
            else:
                ck.check_sim_outputs(checks, self.args.workload, result["out"], result["counts"])
        else:
            found_ref, counts_ref = reference
            ck.check_same(checks, f"{label} outputs equal the reference", found, found_ref)
            ck.check_same(checks, f"{label} counts equal the reference", result["counts"], counts_ref)
        return found

    # -- untraced run: end-to-end metrics ------------------------------------------

    def measure(self, checks) -> tuple:
        prep, extra = self.prep()
        setups = [self.child("setup", f"setup{k}")["setup_s"] for k in range(SETUP_PROBES)]
        run = self.child("run", "run", **extra)
        setups.append(run["setup_s"])
        passes = run["passes"]
        found = self.check_pass(checks, passes[0], prep, "pass 1")
        for k, later in enumerate(passes[1:], start=2):
            self.check_pass(checks, later, prep, f"pass {k}", (found, passes[0]["counts"]))

        # the slow tail of each run: see "Timing statistics" in README.md
        if prep:
            records = prep["counts"]["capture_counters"]["records"]
            throughput = records / max(p["analyze_s"] for p in passes)
            command = max(p["report_s"] for p in passes)
            details = {
                "analyze_records_per_s_median": (
                    statistics.median(records / p["analyze_s"] for p in passes), "1/s"),
                "report_sampled_s_median": (statistics.median(p["report_s"] for p in passes), "s"),
            }
        else:
            steps = [s for p in passes for s in p["steps_ms"]]
            step_s = percentile(steps, STEP_PERCENTILE) / 1000.0
            seconds = len(passes[0]["steps_ms"])
            throughput = passes[0]["rows"] / seconds / step_s
            command = step_s * seconds
            details = {
                "sim_frames_per_s_median": (
                    statistics.median(p["rows"] / p["wall_s"] for p in passes), "1/s"),
                "sim_wall_s_median": (statistics.median(p["wall_s"] for p in passes), "s"),
                "sim_step_ms_p50": (statistics.median(steps), "ms"),
                f"sim_step_ms_p{STEP_PERCENTILE}": (step_s * 1000.0, "ms"),
                "sim_step_ms_p98": (percentile_98(steps), "ms"),
                "step_samples": (len(steps), "count"),
            }
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": throughput,
            "command_s": command,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        details["passes"] = (len(passes), "count")
        details["setup_samples"] = (len(setups), "count")
        return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details

    # -- traced run: per-layer metrics ---------------------------------------------

    def trace(self, checks) -> tuple:
        prep, extra = self.prep()
        plain = self.child("run", "plain", seconds=0, **extra)
        traced = self.child("run", "traced", seconds=0, trace=True, **extra)
        first, second = plain["passes"][0], traced["passes"][0]
        found = self.check_pass(checks, first, prep, "untraced pass")
        self.check_pass(checks, second, prep, "traced pass", (found, first["counts"]))

        layers = dict.fromkeys(PER_LAYER, 0)
        layers.update(traced["layers"])
        counts = first["counts"]
        if not prep:
            events = counts["events_processed"]
            copies = counts["copies"]
            layers.update({
                "simnet.events_dispatched": events,
                "simnet.dispatch_ratio": events / layers["simnet.events_scheduled"],
                "simnet.host_us_per_event": 1e6 * first["wall_s"] / events,
                "simnet.dropped_copies": counts["capture_counters"]["dropped_copies"],
                "tcplite.first_copy_ratio": copies.get("FIRST", 0) / sum(copies.values()),
                "tcplite.dup_data_segments": counts["dup_data_segments"],
                "tcplite.protocol_errors": counts["protocol_errors"],
                "tcplite.connections": counts["connections"],
                "dcs.capture_bytes": counts["capture_bytes"],
                "dcs.measurement_bytes": counts["measurement_bytes"],
                "sim.step_ms_p50": statistics.median(first["steps_ms"]),
                "sim.step_ms_p98": percentile_98(first["steps_ms"]),
            })
            for cls, n in copies.items():
                layers[f"tcplite.copies.{cls}"] = n
            for key in ("rows", "duplicate_frames", "resync_bytes", "crc_errors"):
                layers[f"dcs.{key}"] = counts["ingest_counters"].get(key, 0)
        layers["proc.cpu_ratio"] = first["cpu_s"] / first["wall_s"]
        layers["trace.overhead_s"] = second["wall_s"] - first["wall_s"]

        WORK_DIR.mkdir(exist_ok=True)
        with open(self.trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.args.workload, "seed": self.args.seed, **traced["trace"]}, fh)
        details = {"trace_file": (str(self.trace_path.relative_to(ROOT)), "path")}
        if not prep:
            for share, profiled in PROFILE_SHARES.items():
                details[f"{share} share; cProfile of paper_like ~{profiled}%"] = (
                    layers[f"share.{share}_pct"], "%")
        return {k: (v, unit_of(k)) for k, v in layers.items()}, details


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def percentile_98(values: list) -> float:
    return percentile(values, 98)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", help="scenario seed (default: the bundled scenario's own)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # shortens the scenario for smoke tests; output digests are then not pinned
    parser.add_argument("--duration-s", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wamsbench" / "__init__.py").is_file():
        print(f"error: no wamsbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    checks = ck.Checks()
    try:
        metrics, details = (runner.trace if args.trace else runner.measure)(checks)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed or 'bundled'}, trace {args.trace}")
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"  {name:<48} {value:>14.6g} {unit}" if isinstance(value, float)
              else f"  {name:<48} {value!s:>14} {unit}")
    print(f"  checks: {checks.attempted} attempted, {checks.failed} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
