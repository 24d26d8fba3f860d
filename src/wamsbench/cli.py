"""Command-line front end.

Subcommands:
    simulate    run a scenario through the simulated network, write logs
    serve       run a real-socket concentrator
    emulate     run N real-socket device clients against a concentrator
    analyze     compute metrics and series CSVs from a capture log
    samplesize  minimum-sample-size calculator
    report      print the metrics table for a capture; writes no output
                files (a load may leave the capture's column cache)

Exit codes: 0 success, 2 usage or validation error, 1 runtime failure.
analyze and report also exit 1 on a capture whose integrity trailer is
missing or disagrees with the parsed counts, unless --allow-incomplete.
Set WAMS_LOG_LEVEL (DEBUG/INFO/WARNING/ERROR) to tune diagnostics.
"""

import argparse
import logging
import math
import os
import signal
import sys
import threading
from pathlib import Path

from . import analyzer, stats
from .dcs import LiveDcsServer
from .fdr import GRID_MS, LiveEmulator, emulate
from .scenario import ScenarioError, builtin_scenarios, load_scenario
from .sim import run_simulation

log = logging.getLogger(__name__)

USAGE_ERROR = 2
RUNTIME_ERROR = 1
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a Ctrl-C


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_checked(args):
    """Shared loader for analyze/report: checks the integrity trailer
    (the load logs its own skipped-lines warning); None when the capture
    is incomplete and --allow-incomplete was not given."""
    capture = analyzer.load_capture(args.capture)
    problems = capture.integrity_problems()
    level = "warning" if args.allow_incomplete else "error"
    for problem in problems:
        print(f"{level}: {args.capture}: {problem}", file=sys.stderr)
    if problems and not args.allow_incomplete:
        print(
            "error: not reporting on an incomplete capture; see --allow-incomplete",
            file=sys.stderr,
        )
        return None
    return capture


def _print_table(capture, summary) -> None:
    problems = capture.integrity_problems()
    if problems:
        print(f"INCOMPLETE CAPTURE, figures cover only the parsed records: {'; '.join(problems)}")
    print(analyzer.format_table(summary))


def _sample_indices(capture, size, seed):
    if size is None:
        return None
    if size < 1:
        raise ValueError(f"--sample-size must be at least 1, got {size}")
    population = capture.population_slots()
    if size > population:
        raise ValueError(
            f"sample size {size} exceeds population of {population} slots"
        )
    return stats.random_sample(population, size, seed=seed)


# -- subcommand handlers ----------------------------------------------------


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out_dir)
    result = run_simulation(scenario, out_dir)
    capture = analyzer.load_capture(result.capture_path)
    summary = analyzer.summarize(capture)
    analyzer.write_summary_csv(summary, out_dir / "summary.csv")
    print(f"scenario {scenario.name}: {result.rows} measurement rows")
    print(analyzer.format_table(summary))
    return 0


def cmd_analyze(args) -> int:
    capture = _load_checked(args)
    if capture is None:
        return RUNTIME_ERROR
    # both processing times are checked here, before any file is written
    delays = analyzer.delay_rows(capture, args.t_fdr_ms, args.t_dcs_ms)
    summary = analyzer.summarize(capture, t_fdr_ms=args.t_fdr_ms)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.capture).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    analyzer.write_summary_csv(summary, out_dir / "summary.csv")
    analyzer.write_throughput_series_csv(capture.slot_table().series(), out_dir / "throughput_series.csv")
    analyzer.write_delay_series_csv(delays, out_dir / "delay_series.csv")
    _print_table(capture, summary)
    return 0


def cmd_report(args) -> int:
    capture = _load_checked(args)
    if capture is None:
        return RUNTIME_ERROR
    indices = _sample_indices(capture, args.sample_size, args.sample_seed)
    summary = analyzer.summarize(capture, sample_indices=indices, t_fdr_ms=args.t_fdr_ms)
    _print_table(capture, summary)
    return 0


def _read_presample(path: str) -> list:
    values = []
    for token in Path(path).read_text().split():
        try:
            values.append(_finite_float(token))
        except argparse.ArgumentTypeError as err:
            raise ValueError(f"presample file {path}: {err}") from None
    if not values:
        raise ValueError(f"presample file {path} holds no values")
    return values


def cmd_samplesize(args) -> int:
    metrics = [(f"s={s:g}", s) for s in args.s or []]
    for path in args.presample_file or []:
        s = stats.presample_std(_read_presample(path))
        print(f"{path}: S = {s:.6f}")
        metrics.append((path, s))
    if not metrics:
        raise ValueError("give at least one --s or --presample-file")
    z = stats.z_for_confidence(args.confidence)
    minima = []
    for label, s in metrics:
        inputs = stats.SampleSizeInputs(s=s, z=z, e=args.e, n_t=args.population)
        n_min = stats.min_sample_size(inputs)
        minima.append(n_min)
        print(f"{label}: n_min = {n_min:.2f} (need {stats.required_samples(inputs)})")
    combined = stats.combined_min(minima)
    print(f"combined: n_min = {combined:.2f} (need {min(args.population, math.ceil(combined))})")
    return 0


def cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise ValueError(f"--port must be in 0..65535, got {args.port}")
    if args.duration_s is not None and args.duration_s < 1:
        raise ValueError(f"--duration-s must be at least 1, got {args.duration_s}")
    if args.max_conns < 1:
        raise ValueError(f"--max-conns must be at least 1, got {args.max_conns}")
    server = LiveDcsServer(
        host=args.host,
        port=args.port,
        out_dir=args.out_dir,
        max_conns=args.max_conns,
        skew_bound_ms=args.skew_bound_ms,
        duration_s=args.duration_s,
    )
    try:
        server.start()
    except OSError as err:
        # the bind fails with a socket error; creating the out dir or
        # opening a log after it fails with the file's name attached
        if err.filename is not None:
            return _fail(RUNTIME_ERROR, f"cannot open the logs in {args.out_dir}: {err}")
        return _fail(RUNTIME_ERROR, f"cannot listen on {args.host}:{args.port}: {err}")
    # SIGTERM stops the server like Ctrl-C, so both logs get their
    # trailer; it is the only stop signal a background job (SIGINT
    # ignored) can be sent short of SIGKILL.  Installed before the
    # banner, so whoever waits for the banner may send it at once.
    stopping = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: stopping.set())
    print(f"listening on {server.host}:{server.port}", flush=True)
    try:
        stopping.wait(args.duration_s)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
    server.stop()
    print(f"wrote {server.ingest.counters.get('rows', 0)} measurement rows")
    return 0


def cmd_emulate(args) -> int:
    if not 1 <= args.port <= 65535:
        raise ValueError(f"--port must be in 1..65535, got {args.port}")
    if args.devices < 1:
        raise ValueError(f"--devices must be at least 1, got {args.devices}")
    if args.connect_attempts < 1:
        raise ValueError(f"--connect-attempts must be at least 1, got {args.connect_attempts}")
    if args.duration_s < 1:
        raise ValueError(f"--duration-s must be at least 1, got {args.duration_s}")
    # a live device waits out t_fdr before it measures the next frame, so
    # t_fdr of a grid interval or more puts each frame further behind
    if not 0 <= args.t_fdr_ms < GRID_MS:
        raise ValueError(f"--t-fdr-ms must be in [0, {GRID_MS}), got {args.t_fdr_ms}")
    if args.first_device < 0:
        raise ValueError(f"--first-device must be at least 0, got {args.first_device}")
    last_device = args.first_device + args.devices - 1
    if last_device > analyzer.MAX_DEVICE_ID:
        raise ValueError(
            f"--first-device + --devices - 1 must be at most {analyzer.MAX_DEVICE_ID}, got {last_device}"
        )
    emulators = [
        LiveEmulator(dev, args.host, args.port, args.duration_s, args.t_fdr_ms, args.connect_attempts)
        for dev in range(args.first_device, args.first_device + args.devices)
    ]
    interrupted = False
    try:
        outcomes = emulate(emulators)
    except KeyboardInterrupt:
        # Ctrl-C: each device's counts so far, and no traceback
        interrupted = True
        outcomes = [emu.failed_reason is None for emu in emulators]
    ok = True
    for emu, outcome in zip(emulators, outcomes):
        print(
            f"device {emu.device_id}: generated {emu.frames_generated} frames, "
            f"sent {emu.frames_sent}"
        )
        if not outcome:
            ok = False
            if emu.failed_reason:
                print(f"device {emu.device_id}: {emu.failed_reason}", file=sys.stderr)
    if interrupted:
        return INTERRUPTED
    return 0 if ok else RUNTIME_ERROR


# -- parser -----------------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


ALLOW_INCOMPLETE_HELP = (
    "report on a capture whose integrity trailer is missing or disagrees with "
    "its contents (default: exit 1); the table is marked"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wamsbench",
        description="Desk-scale testbench for synchrophasor telemetry over impaired networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario on the simulated network")
    p.add_argument(
        "scenario",
        help=f"scenario file path or bundled name ({', '.join(builtin_scenarios())})",
    )
    p.add_argument("out_dir", help="directory for capture.jsonl, measurements.jsonl, summary.csv")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("analyze", help="compute metrics and series CSVs from a capture log")
    p.add_argument("capture", help="path to capture.jsonl")
    p.add_argument("--out-dir", help="output directory (default: alongside the capture)")
    p.add_argument("--t-fdr-ms", type=_finite_float, help="device processing time (default: log header)")
    p.add_argument("--t-dcs-ms", type=_finite_float, help="concentrator processing time (default: log header)")
    p.add_argument("--allow-incomplete", action="store_true", help=ALLOW_INCOMPLETE_HELP)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("report", help="print the metrics table for a capture")
    p.add_argument("capture", help="path to capture.jsonl")
    p.add_argument("--t-fdr-ms", type=_finite_float)
    p.add_argument("--sample-size", type=int, help="summarize a random subset of 1 s slots")
    p.add_argument("--sample-seed", default="sample", help="seed for slot selection")
    p.add_argument("--allow-incomplete", action="store_true", help=ALLOW_INCOMPLETE_HELP)
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("samplesize", help="minimum sample size for a target error bound")
    p.add_argument("--s", type=_finite_float, action="append", help="pre-sample standard deviation (repeatable)")
    p.add_argument(
        "--presample-file",
        action="append",
        help="file of measured values; S is computed from it (repeatable)",
    )
    p.add_argument("--confidence", type=float, default=0.95, help="confidence level (default 0.95)")
    p.add_argument("--e", type=_finite_float, default=0.02, help="acceptable sampling error (default 0.02)")
    p.add_argument("--population", type=int, default=86400, help="population size (default 86400)")
    p.set_defaults(handler=cmd_samplesize)

    p = sub.add_parser("serve", help="run a real-socket concentrator")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port (printed on start)")
    p.add_argument("--out-dir", default=".", help="directory for the log files")
    p.add_argument("--max-conns", type=int, default=64)
    p.add_argument("--skew-bound-ms", type=_finite_float, default=10.0)
    p.add_argument("--duration-s", type=int, help="stop after this long (default: until interrupted)")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("emulate", help="stream frames from N emulated devices")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--devices", type=int, default=1)
    p.add_argument("--first-device", type=int, default=1, help="device id of the first emulator")
    p.add_argument("--duration-s", type=int, default=10)
    p.add_argument("--t-fdr-ms", type=_finite_float, default=0.0)
    p.add_argument("--connect-attempts", type=int, default=5)
    p.set_defaults(handler=cmd_emulate)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("WAMS_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, analyzer.CaptureError, ValueError) as err:
        return _fail(USAGE_ERROR, str(err))
    except OSError as err:
        return _fail(RUNTIME_ERROR, str(err))


if __name__ == "__main__":
    sys.exit(main())
