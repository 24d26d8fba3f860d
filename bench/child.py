"""One benchmark child process: set up, then run one workload's passes.

``run.py`` starts this file once per measurement with a JSON spec as its
only argument and reads back the JSON it writes to ``<out>/result.json``.
A fresh process per workload keeps ``ru_maxrss`` and set-up time to that
workload alone.

Modes:
  setup    import wamsbench and load the scenario, then report how long
           that took since the parent started the process
  prep     run the ``simulate`` command's steps (simulation, then the
           summary) to make the capture that ``analyze_lossy`` reads
  run      timed passes of the workload, as many as fit into ``seconds``
           at their nominal length (at least one); with ``trace`` the
           program is instrumented first
"""

import contextlib
import dataclasses
import io
import json
import os
import resource
import sys
import time
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# workload -> (bundled scenario, duration override in simulated seconds).
# analyze_lossy reads a 400 s capture: five analyzer passes then fit in
# one run, where the full 1000 s capture fits two, and the median of five
# is what keeps the analyzer figures steady on a shared host.
WORKLOADS = {
    "sim_lossy": ("lossy_0p3", None),
    "sim_lossless": ("lossless", 600),
    "analyze_lossy": ("lossy_0p3", 400),
}
# typical host seconds of one pass on a 2-vCPU 2.0 GHz Xeon VM
NOMINAL_PASS_S = {"sim_lossy": 20, "sim_lossless": 10, "analyze_lossy": 5}
SAMPLE_SIZE = 300
SAMPLE_SEED = "audit"

# (metric name, module, attribute path, records a phase span)
TRACE_TARGETS = [
    ("simnet.core", "simnet", "Simulator.run_until", False),
    ("simnet.schedule", "simnet", "Simulator.schedule", False),
    ("simnet.cancel", "simnet", "Simulator.cancel", False),
    ("simnet.link", "simnet", "Link.transmit", False),
    ("simnet.jitter", "simnet", "JitterSpec.sample", False),
    ("tcplite.connect", "sim", "connect_pair", False),
    ("tcplite.send", "tcplite", "Connection.send", False),
    ("tcplite.deliver", "tcplite", "Connection.deliver_segment", False),
    ("tcplite.rto_update", "tcplite", "Connection.rto_update", False),
    ("frame.encode", "fdr", "encode_frame", False),
    ("frame.decode", "dcs", "decode_frame", False),
    ("fdr.measure", "fdr", "SignalGenerator.measure", False),
    ("dcs.ingest", "dcs", "IngestState.deliver", False),
    ("dcs.assembler", "dcs", "FrameAssembler.feed", False),
    ("dcs.log", "dcs", "LogWriter.write", False),
    ("dcs.to_json", "dcs", "CaptureRecord.to_json", False),
    ("dcs.to_json", "dcs", "MeasurementRow.to_json", False),
    ("sim.write_record", "sim", "_SimulationRun.write_record", False),
    ("simulate", "sim", "run_simulation", True),
    ("load", "analyzer", "load_capture", True),
    ("summarize", "analyzer", "summarize", True),
    ("delays", "analyzer", "one_way_delays", True),
    ("series", "analyzer", "throughput_series", True),
    ("write", "analyzer", "write_summary_csv", True),
    ("write", "analyzer", "write_delay_series_csv", True),
    ("write", "analyzer", "write_throughput_series_csv", True),
    ("stats.sample", "stats", "random_sample", False),
    ("scenario.load", "scenario", "load_scenario", False),
]


def instrument(tracer, modules: dict) -> None:
    """Wrap every TRACE_TARGETS function at the name it is looked up by."""
    for name, module, path, phase in TRACE_TARGETS:
        owner = modules[module]
        *classes, attribute = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.patch(owner, attribute, name, phase=phase)


def install_step_clock(simulator_cls, steps: list) -> None:
    """Make ``Simulator.run_until`` advance in 1-simulated-second slices,
    appending each slice's host milliseconds to ``steps``.

    The event order is unchanged: each slice processes exactly the
    events a single call would process in that second.
    """
    original = simulator_cls.run_until
    clock = time.perf_counter_ns

    def run_until(self, t_end_us: int) -> int:
        if t_end_us <= self.now_us:
            return original(self, t_end_us)
        processed = 0
        while self.now_us < t_end_us:
            stop = min((self.now_us // 1_000_000 + 1) * 1_000_000, t_end_us)
            start = clock()
            processed += original(self, stop)
            steps.append((clock() - start) / 1e6)
        return processed

    simulator_cls.run_until = run_until


def wrap_after(owner, attribute: str, observe) -> None:
    """Call ``observe(args, result)`` after every call of owner.attribute."""
    original = getattr(owner, attribute)

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        observe(args, result)
        return result

    setattr(owner, attribute, observed)


class Child:
    def __init__(self, spec: dict):
        self.spec = spec
        self.out = spec["out"]
        self.tracer = None
        self.steps: list = []
        self.pairs: list = []
        self.loaded = Counter()
        self.pending_peak = 0

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Import the program and load the scenario; returns seconds since
        the parent started this process."""
        sys.path.insert(0, os.path.join(ROOT, "src"))
        span = contextlib.nullcontext()
        if self.spec.get("trace"):
            from tracer import Tracer

            self.tracer = Tracer()
            span = self.tracer.span("setup")
        with span:
            from wamsbench import analyzer, cli, dcs, fdr, scenario, sim, simnet, stats, tcplite

            self.cli, self.sim, self.analyzer = cli, sim, analyzer
            if self.tracer is not None:
                modules = dict(
                    analyzer=analyzer, dcs=dcs, fdr=fdr, scenario=scenario, sim=sim,
                    simnet=simnet, stats=stats, tcplite=tcplite,
                )
                instrument(self.tracer, modules)
                wrap_after(simnet.Simulator, "schedule", self._observe_schedule)
            name, duration = WORKLOADS[self.spec["workload"]]
            changes = {}
            if self.spec.get("seed") is not None:
                changes["seed"] = self.spec["seed"]
            duration = self.spec.get("duration_s") or duration
            if duration:
                changes["duration_s"] = duration
            self.scenario = dataclasses.replace(scenario.load_scenario(name), **changes)
        ready_ns = time.monotonic_ns()
        install_step_clock(simnet.Simulator, self.steps)
        wrap_after(sim, "connect_pair", lambda args, pair: self.pairs.append(pair))
        wrap_after(analyzer, "load_capture", self._observe_load)
        return (ready_ns - self.spec["t0_ns"]) / 1e9

    def _observe_schedule(self, args, result) -> None:
        self.pending_peak = max(self.pending_peak, args[0].pending())

    def _observe_load(self, args, capture) -> None:
        self.loaded["records"] += len(capture.records)
        self.loaded["skipped_lines"] += capture.skipped_lines

    # -- passes ---------------------------------------------------------------

    def prep(self) -> dict:
        """The ``simulate`` command's work, for a chosen seed."""
        result = self.sim.run_simulation(self.scenario, self.out)
        capture = self.analyzer.load_capture(result.capture_path)
        summary = self.analyzer.summarize(capture)
        self.analyzer.write_summary_csv(summary, os.path.join(self.out, "summary.csv"))
        return {"counts": self._sim_counts(result)}

    def passes(self) -> list:
        """Run as many passes as ``seconds`` holds at the workload's nominal
        pass time, at least one; the count depends on nothing measured, so
        every run of a workload does the same work."""
        one_pass = self._analyze_pass if self.spec["workload"].startswith("analyze") else self._sim_pass
        count = max(1, int(self.spec["seconds"] // NOMINAL_PASS_S[self.spec["workload"]]))
        return [one_pass(os.path.join(self.out, f"pass{k}")) for k in range(count)]

    def _sim_pass(self, out: str) -> dict:
        del self.steps[:], self.pairs[:]
        cpu = time.process_time()
        start = time.perf_counter()
        result = self.sim.run_simulation(self.scenario, out)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        return {
            "out": out,
            "wall_s": wall,
            "cpu_s": cpu,
            "rows": result.rows,
            "steps_ms": self.steps[: self.scenario.duration_s],
            "counts": self._sim_counts(result),
        }

    def _sim_counts(self, result) -> dict:
        copies = Counter()
        dup = errors = 0
        for pair in self.pairs:
            for conn in pair:
                copies.update({cls.value: n for cls, n in conn.wire_copies.items()})
                dup += conn.dup_data_segments
                errors += conn.protocol_errors
        return {
            "events_processed": result.events_processed,
            "capture_counters": result.capture_counters,
            "ingest_counters": result.ingest_counters,
            "devices": [dataclasses.asdict(d) for d in result.devices],
            "connections": len(self.pairs),
            "copies": dict(sorted(copies.items())),
            "dup_data_segments": dup,
            "protocol_errors": errors,
            "capture_bytes": os.path.getsize(result.capture_path),
            "measurement_bytes": os.path.getsize(result.measurements_path),
        }

    def _analyze_pass(self, out: str) -> dict:
        capture = self.spec["capture"]
        sample = min(SAMPLE_SIZE, self.scenario.duration_s)
        self.loaded.clear()
        table = io.StringIO()
        span = self.tracer.span if self.tracer is not None else (lambda name: contextlib.nullcontext())
        cpu = time.process_time()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), span("analyze"):
            analyze_rc = self.cli.main(["analyze", capture, "--out-dir", out])
        middle = time.perf_counter()
        with contextlib.redirect_stdout(table), span("report"):
            report_rc = self.cli.main(
                ["report", capture, "--sample-size", str(sample), "--sample-seed", SAMPLE_SEED]
            )
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(table.getvalue())
        return {
            "out": out,
            "wall_s": end - start,
            "cpu_s": cpu,
            "analyze_s": middle - start,
            "report_s": end - middle,
            "counts": {"exit_codes": [analyze_rc, report_rc], "loaded": dict(self.loaded)},
        }

    # -- per-layer figures ----------------------------------------------------

    def layer_figures(self) -> dict:
        """Per-layer metrics that only the traced pass can give."""
        t = self.tracer
        figures = {
            "simnet.events_scheduled": t.calls("simnet.schedule"),
            "simnet.events_canceled": t.calls("simnet.cancel"),
            "simnet.pending_peak": self.pending_peak,
            "simnet.core_self_s": t.self_s("simnet.core"),
            "simnet.schedule.self_s": t.self_s("simnet.schedule"),
            "analyzer.load.records": self.loaded["records"],
            "analyzer.skipped_lines": self.loaded["skipped_lines"],
            "analyzer.delays.calls": t.calls("delays"),
            "analyzer.series.calls": t.calls("series"),
            "scenario.load_s": t.self_s("scenario.load"),
            "stats.sample.self_s": t.self_s("stats.sample"),
            "dcs.log.writes": t.calls("dcs.log"),
        }
        for name in ("simnet.link", "simnet.jitter", "tcplite.send", "tcplite.deliver",
                     "frame.encode", "frame.decode", "fdr.measure", "dcs.ingest",
                     "sim.write_record"):
            figures[f"{name}.calls"] = t.calls(name)
            figures[f"{name}.self_s"] = t.self_s(name)
        figures["tcplite.rto_update.calls"] = t.calls("tcplite.rto_update")
        for name in ("dcs.assembler", "dcs.log", "dcs.to_json"):
            figures[f"{name}.self_s"] = t.self_s(name)
        for name in ("load", "summarize", "delays", "series", "write"):
            figures[f"analyzer.{name}.self_s"] = t.self_s(name)
        simulate = t.total_s("simulate")
        shares = {
            "capture_logging": ("sim.write_record", "dcs.log", "dcs.to_json"),
            "ingest": ("dcs.ingest", "dcs.assembler", "frame.decode"),
            "event_core": ("simnet.core", "simnet.schedule", "simnet.cancel"),
            "channel": ("simnet.link", "simnet.jitter"),
        }
        for share, names in shares.items():
            part = sum(t.self_s(n) for n in names)
            figures[f"share.{share}_pct"] = 100.0 * part / simulate if simulate else 0.0
        return figures


def main() -> int:
    spec = json.loads(sys.argv[1])
    child = Child(spec)
    result = {"setup_s": child.setup()}
    if spec["mode"] == "prep":
        result.update(child.prep())
    elif spec["mode"] == "run":
        result["passes"] = child.passes()
        if child.tracer is not None:
            result["layers"] = child.layer_figures()
            result["trace"] = child.tracer.to_dict()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    os.makedirs(spec["out"], exist_ok=True)
    with open(os.path.join(spec["out"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
