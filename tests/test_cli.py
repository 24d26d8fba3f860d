"""Command-line behavior: exit codes, file outputs, printed figures."""

import json
import math
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict

import pytest

import oracle_logs
from wamsbench import analyzer, cli
from wamsbench.analyzer import load_capture
from wamsbench.dcs import LiveDcsServer

MINI = """\
[scenario]
name = mini
seed = cli-mini
duration_s = 4
epoch_utc_ms = 1700000000000
devices = 2

[uplink]
t_p_ms = 30.0

[device]
p_seg = 0.2
"""


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One simulate invocation shared by the read-only tests."""
    root = tmp_path_factory.mktemp("mini")
    scenario = root / "mini.scenario"
    scenario.write_text(MINI)
    out = root / "sim"
    assert cli.main(["simulate", str(scenario), str(out)]) == 0
    return out


class TestSimulate:
    def test_writes_the_three_outputs(self, mini_run):
        for name in ("capture.jsonl", "measurements.jsonl", "summary.csv"):
            assert (mini_run / name).exists()

    def test_prints_table_and_row_count(self, mini_run, tmp_path, capsys):
        scenario = tmp_path / "again.scenario"
        scenario.write_text(MINI)
        assert cli.main(["simulate", str(scenario), str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "80 measurement rows" in out
        assert "avg_delay_ms" in out

    def test_invalid_scenario_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("[scenario]\nname = x\nseed = s\nduration_s = 0\ndevices = 1\n")
        assert cli.main(["simulate", str(bad), str(tmp_path / "out")]) == 2
        assert "duration_s" in capsys.readouterr().err

    def test_unknown_bundled_name_is_a_usage_error(self, tmp_path):
        assert cli.main(["simulate", "no-such", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "anchor,line",
        [
            ("devices = 2\n", "skew_bound_ms = 1e305\n"),
            ("devices = 2\n", "t_dcs_ms = 1e300\n"),
            ("p_seg = 0.2\n", "t_fdr_ms = 1e300\n"),  # under [device]
        ],
    )
    def test_header_value_the_analyzer_refuses_is_a_usage_error(self, anchor, line, tmp_path, capsys):
        scenario = tmp_path / "bad.scenario"
        scenario.write_text(MINI.replace(anchor, anchor + line))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(scenario), str(out)]) == 2
        key, value = line.split(" = ")
        assert capsys.readouterr().err == f"error: {key} must be a finite number of magnitude below 2**63, got {float(value)!r}\n"
        assert not out.exists() or list(out.iterdir()) == []

    def test_negative_skew_bound_is_a_usage_error(self, tmp_path, capsys):
        # a negative bound would flag every delay at or above it
        scenario = tmp_path / "bad.scenario"
        scenario.write_text(MINI.replace("devices = 2\n", "devices = 2\nskew_bound_ms = -500\n"))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(scenario), str(out)]) == 2
        assert capsys.readouterr().err == "error: skew_bound_ms must be null or at least 0, got -500.0\n"
        assert not out.exists() or list(out.iterdir()) == []

    def test_per_device_t_fdr_ms_is_a_usage_error(self, tmp_path, capsys):
        # the capture header carries one t_fdr_ms, the [device] default
        scenario = tmp_path / "bad.scenario"
        scenario.write_text(MINI + "\n[device 2]\nt_fdr_ms = 1e300\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", str(scenario), str(out)]) == 2
        assert capsys.readouterr().err == "error: [device 2] t_fdr_ms: set only under [device], for every device\n"
        assert not out.exists()

    def test_summary_load_leaves_the_column_cache(self, mini_run):
        assert (mini_run / "capture.jsonl.columns").exists()


class TestAnalyze:
    def test_summary_matches_simulate_inline_byte_for_byte(self, mini_run, tmp_path):
        out = tmp_path / "an"
        code = cli.main(["analyze", str(mini_run / "capture.jsonl"), "--out-dir", str(out)])
        assert code == 0
        assert (out / "summary.csv").read_bytes() == (mini_run / "summary.csv").read_bytes()

    def test_writes_series_csvs(self, mini_run, tmp_path):
        out = tmp_path / "an"
        cli.main(["analyze", str(mini_run / "capture.jsonl"), "--out-dir", str(out)])
        delay = (out / "delay_series.csv").read_text().splitlines()
        tp = (out / "throughput_series.csv").read_text().splitlines()
        assert delay[0] == "device,frame_seq,frame_timestamp,arrival_time,t_ci_ms,t_ete_ms,flagged"
        assert len(delay) == 1 + 80
        assert tp[0] == "device,window_start_s,kbit_per_s"
        assert len(tp) == 1 + 2 * 4

    def test_corrupt_line_warns_and_completes(self, mini_run, tmp_path, caplog):
        lines = (mini_run / "capture.jsonl").read_text().splitlines()
        mangled = tmp_path / "mangled.jsonl"
        mangled.write_text("\n".join([lines[0], "{truncated", *lines[1:]]) + "\n")
        code = cli.main(["analyze", str(mangled), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert caplog.messages == [f"{mangled}: skipped 1 corrupt lines"]

    def test_missing_file_is_a_runtime_error(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "gone.jsonl")]) == 1

    def test_window_is_not_an_option(self, mini_run, tmp_path, capsys):
        # throughput is per 1-second window only
        out = tmp_path / "an"
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", str(mini_run / "capture.jsonl"), "--out-dir", str(out), "--window", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --window 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--sample-size", "4"], ["--sample-seed", "audit"]])
    def test_sampling_is_not_an_option(self, mini_run, tmp_path, capsys, option):
        # a sampled summary is report --sample-size; analyze never sampled
        # its series
        out = tmp_path / "an"
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", str(mini_run / "capture.jsonl"), "--out-dir", str(out), *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    @pytest.mark.parametrize(
        "command,option", [("analyze", "--t-fdr-ms"), ("analyze", "--t-dcs-ms"), ("report", "--t-fdr-ms")]
    )
    def test_processing_time_must_be_finite(self, mini_run, tmp_path, capsys, command, option, value):
        argv = [command, str(mini_run / "capture.jsonl"), f"{option}={value}"]
        if command == "analyze":
            argv += ["--out-dir", str(tmp_path / "an")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"not a finite number: {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "an").exists()


class TestReport:
    def test_prints_table_without_files(self, mini_run, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["report", str(mini_run / "capture.jsonl")]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "device",
            "avg_throughput_kbps",
            "avg_delay_ms",
            "max_delay_ms",
            "retx_pct",
            "fast_retx_pct",
            "wasted_bw_pct",
        ]
        assert list(tmp_path.iterdir()) == []

    def test_full_sample_equals_unsampled(self, mini_run, capsys):
        assert cli.main(["report", str(mini_run / "capture.jsonl")]) == 0
        full = capsys.readouterr().out
        assert cli.main(["report", str(mini_run / "capture.jsonl"), "--sample-size", "4"]) == 0
        assert capsys.readouterr().out == full

    def test_oversized_sample_is_a_usage_error(self, mini_run, capsys):
        assert cli.main(["report", str(mini_run / "capture.jsonl"), "--sample-size", "5"]) == 2
        captured = capsys.readouterr()
        assert "exceeds population of 4 slots" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_sample_size_below_one_is_a_usage_error(self, mini_run, capsys, size):
        assert cli.main(["report", str(mini_run / "capture.jsonl"), "--sample-size", size]) == 2
        assert f"--sample-size must be at least 1, got {size}" in capsys.readouterr().err

    def test_concentrator_processing_time_is_not_an_option(self, mini_run, capsys):
        # no summary figure reads t_dcs_ms; only analyze's delay series does
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", str(mini_run / "capture.jsonl"), "--t-dcs-ms", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t-dcs-ms 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arrivals", [[1e308, 1e308], [1e308, math.inf, 1e308], [math.inf, 1e308, 1e308], [1e308, 1e308, math.inf]],
    ids=["finite", "inf-between", "inf-first", "inf-last"],
)
@pytest.mark.parametrize("command", ["analyze", "report"])
def test_arrivals_whose_delays_summed_past_the_largest_float_are_refused(command, arrivals, tmp_path, capsys, caplog):
    # each arrival breaks the value rule, so its line is skipped and the
    # trailer no longer vouches for the capture
    records = [
        oracle_logs._rec(1.0 + seq, 1, 85, complete=oracle_logs._done(seq, 100 * seq, arrival))
        for seq, arrival in enumerate(arrivals, 1)
    ]
    path = oracle_logs.write_log(tmp_path / "c.jsonl", oracle_logs._header(duration_s=1), records)
    out = tmp_path / "out"
    argv = [command, str(path), *(["--out-dir", str(out)] if command == "analyze" else [])]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert caplog.messages == [f"{path}: skipped {len(arrivals)} corrupt lines"]
    assert captured.err.splitlines() == [
        f"error: {path}: trailer counts records={len(arrivals)}, parsed 0",
        "error: not reporting on an incomplete capture; see --allow-incomplete",
    ]
    assert captured.out == ""
    assert not out.exists()


def _refused(command, path, tmp_path, capsys, *options) -> str:
    """Run ``command`` on the capture at ``path``, which it must refuse
    with exit 2 and one error line, writing nothing; returns that line."""
    out = tmp_path / "out"
    argv = [command, str(path), *options, *(["--out-dir", str(out)] if command == "analyze" else [])]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert not out.exists() or list(out.iterdir()) == []
    return line


@pytest.mark.parametrize(
    "key,value",
    [
        ("duration_s", math.inf), ("duration_s", -1), ("duration_s", 2.5), ("duration_s", "2"),
        ("epoch_utc_ms", "0"), ("epoch_utc_ms", 1.5), ("epoch_utc_ms", 2**63),
        ("t_fdr_ms", "x"), ("t_fdr_ms", math.nan),
        ("skew_bound_ms", math.nan), ("skew_bound_ms", 1e305), ("skew_bound_ms", -500.0),
    ],
)
@pytest.mark.parametrize("command", ["analyze", "report"])
def test_header_value_the_analyzer_cannot_use_is_a_usage_error(command, key, value, tmp_path, capsys):
    header = dict(oracle_logs._header(duration_s=1), **{key: value})
    records = [oracle_logs._rec(110.5, 1, 85, complete=oracle_logs._done(1, 100, 110.5))]
    path = oracle_logs.write_log(tmp_path / "c.jsonl", header, records)
    line = _refused(command, path, tmp_path, capsys)
    assert line.startswith(f"error: {path}: header {key} must be ")
    assert line.endswith(f"got {value!r}")
    assert not (tmp_path / "c.jsonl.columns").exists()


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_measurement_log_is_refused_before_any_file_is_written(command, mini_run, tmp_path, capsys, monkeypatch):
    # analyze without --out-dir writes beside its input: the run's own
    # summary.csv, which a refused load must leave as it is
    run = tmp_path / "run"
    shutil.copytree(mini_run, run)
    # rows repeated past the parser's block size: the header line refuses
    # the log, so the load stops after its first block
    measurements = run / "measurements.jsonl"
    header, rows = measurements.read_text().split("\n", 1)
    measurements.write_text(header + "\n" + rows * (2 * analyzer._BLOCK_BYTES // len(rows) + 1))
    assert measurements.stat().st_size > 2 * analyzer._BLOCK_BYTES
    files = {path.name: path.read_bytes() for path in run.iterdir()}
    blocks = []
    feed = analyzer._Parser.feed
    monkeypatch.setattr(analyzer._Parser, "feed", lambda parser, block: (blocks.append(block), feed(parser, block)))
    assert cli.main([command, str(measurements)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {measurements}: the header names a 'measurements' log, not a capture log\n"
    assert len(blocks) == 1
    assert {path.name: path.read_bytes() for path in run.iterdir()} == files
    assert not (run / "measurements.jsonl.columns").exists()


def test_header_without_a_log_kind_still_loads(tmp_path):
    header = oracle_logs._header(duration_s=1)
    del header["log"]
    records = [oracle_logs._rec(110.5, 1, 85, complete=oracle_logs._done(1, 100, 110.5))]
    path = oracle_logs.write_log(tmp_path / "c.jsonl", header, records)
    assert load_capture(path).integrity_problems() == []


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_negative_skew_bound_in_a_stale_cache_is_a_usage_error(command, tmp_path, capsys, monkeypatch):
    header = dict(oracle_logs._header(duration_s=1), skew_bound_ms=-500.0)
    records = [oracle_logs._rec(110.5, 1, 85, complete=oracle_logs._done(1, 100, 110.5))]
    path = oracle_logs.write_log(tmp_path / "c.jsonl", header, records)
    with monkeypatch.context() as build_without_the_rule:
        build_without_the_rule.setattr(analyzer, "check_header", lambda header: None)
        load_capture(path)  # leaves a cache of the refused header
    assert (tmp_path / "c.jsonl.columns").exists()
    line = _refused(command, path, tmp_path, capsys)
    assert line == f"error: {path}: header skew_bound_ms must be null or at least 0, got -500.0"


@pytest.mark.parametrize(
    "command,option", [("analyze", "--t-fdr-ms"), ("analyze", "--t-dcs-ms"), ("report", "--t-fdr-ms")]
)
def test_processing_time_past_the_value_rule_is_a_usage_error(command, option, mini_run, tmp_path, capsys):
    line = _refused(command, mini_run / "capture.jsonl", tmp_path, capsys, f"{option}=1e300")
    name = option[2:].replace("-", "_")
    assert line == f"error: {name} must be a finite number of magnitude below 2**63, got 1e+300"


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_capture_past_the_slot_table_cap_is_a_usage_error(command, mini_run, tmp_path, capsys, monkeypatch):
    # mini: 4 slots and 2 device ids
    path = tmp_path / "capture.jsonl"
    path.write_bytes((mini_run / "capture.jsonl").read_bytes())
    monkeypatch.setattr(analyzer, "MAX_SERIES_VALUES", 7)
    line = _refused(command, path, tmp_path, capsys)
    assert line == f"error: {path}: 4 1-second slots for 2 device ids is more than 7 slot table values"
    assert "window" not in line
    assert not (tmp_path / "capture.jsonl.columns").exists()
    monkeypatch.setattr(analyzer, "MAX_SERIES_VALUES", 8)
    assert cli.main(["report", str(path)]) == 0


class TestIntegrityTrailer:
    """analyze and report refuse a capture its trailer does not vouch for."""

    @pytest.fixture()
    def lines(self, mini_run):
        return (mini_run / "capture.jsonl").read_text().splitlines()

    def _argv(self, command, tmp_path, lines):
        path = tmp_path / "capture.jsonl"
        path.write_text("\n".join(lines) + "\n")
        out = ["--out-dir", str(tmp_path / "out")] if command == "analyze" else []
        return [command, str(path), *out]

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_truncated_capture_exits_1(self, lines, tmp_path, capsys, command):
        assert cli.main(self._argv(command, tmp_path, lines[: len(lines) * 2 // 3])) == 1
        captured = capsys.readouterr()
        assert "no integrity trailer" in captured.err
        assert "avg_delay_ms" not in captured.out

    def test_capture_without_trailer_exits_1(self, lines, tmp_path, capsys):
        assert json.loads(lines[-1]).keys() == {"integrity"}
        assert cli.main(self._argv("report", tmp_path, lines[:-1])) == 1
        assert "no integrity trailer" in capsys.readouterr().err

    def test_count_mismatch_exits_1(self, lines, tmp_path, capsys):
        # one delivered uplink copy cut out in place: only the counters
        # can tell, every remaining line parses
        k = next(i for i, line in enumerate(lines) if '"direction":"UPLINK"' in line)
        assert cli.main(self._argv("analyze", tmp_path, lines[:k] + lines[k + 1 :])) == 1
        err = capsys.readouterr().err
        trailer = json.loads(lines[-1])["integrity"]
        assert f"records={trailer['records']}, parsed {trailer['records'] - 1}" in err
        assert f"uplink_copies={trailer['uplink_copies']}" in err
        assert "ack_copies" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_allow_incomplete_marks_the_table(self, lines, tmp_path, capsys, command):
        assert cli.main(self._argv(command, tmp_path, lines[:-1]) + ["--allow-incomplete"]) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err and "no integrity trailer" in captured.err
        marker = [line for line in captured.out.splitlines() if line.startswith("INCOMPLETE CAPTURE")]
        assert len(marker) == 1 and "no integrity trailer" in marker[0]
        assert "avg_delay_ms" in captured.out

    def test_complete_capture_is_not_marked(self, mini_run, capsys):
        assert cli.main(["report", str(mini_run / "capture.jsonl"), "--allow-incomplete"]) == 0
        captured = capsys.readouterr()
        assert "INCOMPLETE" not in captured.out
        assert captured.err == ""


class TestSampleSize:
    def test_published_figures(self, capsys):
        code = cli.main(
            [
                "samplesize",
                "--s",
                "0.908",
                "--s",
                "0.186",
                "--confidence",
                "0.95",
                "--e",
                "0.02",
                "--population",
                "86400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_min = 7246.63 (need 7247)" in out
        assert "n_min = 330.65 (need 331)" in out
        assert "combined: n_min = 7246.63 (need 7247)" in out

    def test_presample_file(self, tmp_path, capsys):
        data = tmp_path / "pre.txt"
        data.write_text("1\n3\n")
        assert cli.main(["samplesize", "--presample-file", str(data)]) == 0
        out = capsys.readouterr().out
        assert "S = 1.000000" in out

    def test_constant_presample_needs_no_samples(self, tmp_path, capsys):
        data = tmp_path / "flat.txt"
        data.write_text("5.0 5.0 5.0\n")
        assert cli.main(["samplesize", "--presample-file", str(data)]) == 0
        out = capsys.readouterr().out
        assert "S = 0.000000" in out
        assert "n_min = 0.00 (need 0)" in out

    def test_no_inputs_is_a_usage_error(self, capsys):
        assert cli.main(["samplesize"]) == 2
        assert "--s" in capsys.readouterr().err

    def test_spread_whose_square_overflows_is_a_usage_error(self, capsys):
        assert cli.main(["samplesize", "--s", "1e200"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: s=1e+200 is too large: z^2 s^2 overflows a double\n"
        assert captured.out == ""

    def test_error_whose_square_underflows_is_a_usage_error(self, capsys):
        assert cli.main(["samplesize", "--s", "0", "--e", "1e-200"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: e=1e-200 is too small: e^2 underflows to 0\n"
        assert captured.out == ""

    def test_population_that_overflows_a_double_is_a_usage_error(self, capsys):
        assert cli.main(["samplesize", "--s", "1.0", "--population", str(10**309)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: n_t={10**309} is too large: n_t overflows a double\n"
        assert captured.out == ""

    def test_untabulated_confidence_is_a_usage_error(self):
        assert cli.main(["samplesize", "--s", "1.0", "--confidence", "0.80"]) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "x"])
    def test_presample_value_that_is_not_a_finite_number_is_a_usage_error(self, tmp_path, capsys, token):
        data = tmp_path / "pre.txt"
        data.write_text(f"1.0\n{token}\n3.0\n")
        assert cli.main(["samplesize", "--presample-file", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"presample file {data}: not a finite number: {token!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--s", "--e"])
    def test_s_and_e_must_be_finite(self, capsys, option, value):
        argv = ["samplesize", "--s", "1.0", f"{option}={value}"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"not a finite number: {value!r}" in captured.err
        assert captured.out == ""


class TestArgparse:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestEmulate:
    def test_closed_port_retries_then_fails(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        code = cli.main(
            [
                "emulate",
                "--port",
                str(dead_port),
                "--devices",
                "1",
                "--duration-s",
                "1",
                "--connect-attempts",
                "2",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "generated 0 frames, sent 0" in captured.out
        assert "connect" in captured.err

    def test_ctrl_c_prints_what_was_sent_and_exits_130(self, capsys, monkeypatch):
        def interrupted(emulators):
            for k, emu in enumerate(emulators):
                emu.frames_generated, emu.frames_sent = 10 + k, 9 + k
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "emulate", interrupted)
        assert cli.main(["emulate", "--port", "9", "--devices", "2", "--first-device", "4"]) == 130
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "device 4: generated 10 frames, sent 9",
            "device 5: generated 11 frames, sent 10",
        ]
        assert captured.err == ""

    @pytest.mark.parametrize("devices", ["0", "-3"])
    def test_devices_below_one_is_a_usage_error(self, capsys, monkeypatch, devices):
        def no_emulate(emulators):
            raise AssertionError("emulate started")

        monkeypatch.setattr(cli, "emulate", no_emulate)
        assert cli.main(["emulate", "--port", "9", "--devices", devices]) == 2
        captured = capsys.readouterr()
        assert f"--devices must be at least 1, got {devices}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--first-device", "-1"], "--first-device must be at least 0, got -1"),
            (["--first-device", "70000"], "--first-device + --devices - 1 must be at most 65535, got 70000"),
            (["--first-device", "65535", "--devices", "2"],
             "--first-device + --devices - 1 must be at most 65535, got 65536"),
        ],
    )
    def test_device_ids_outside_16_bits_are_a_usage_error(self, capsys, monkeypatch, argv, message):
        def no_emulate(emulators):
            raise AssertionError("emulate started")

        monkeypatch.setattr(cli, "emulate", no_emulate)
        assert cli.main(["emulate", "--port", "9", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("port", ["0", "-1", "65536", "70000"])
    def test_port_outside_1_to_65535_is_a_usage_error(self, capsys, monkeypatch, port):
        def no_emulate(emulators):
            raise AssertionError("emulate started")

        monkeypatch.setattr(cli, "emulate", no_emulate)
        assert cli.main(["emulate", "--port", port]) == 2
        captured = capsys.readouterr()
        assert f"--port must be in 1..65535, got {port}" in captured.err
        assert captured.out == ""

    def test_device_ids_up_to_65535_are_emulated(self, capsys, monkeypatch):
        started = []

        def record(emulators):
            started.extend(emulators)
            return [True] * len(emulators)

        monkeypatch.setattr(cli, "emulate", record)
        assert cli.main(["emulate", "--port", "9", "--first-device", "65534", "--devices", "2"]) == 0
        assert [emu.config.device_id for emu in started] == [65534, 65535]
        capsys.readouterr()

    @pytest.mark.parametrize("duration", ["0", "-3"])
    def test_duration_below_one_is_a_usage_error(self, capsys, monkeypatch, duration):
        def no_emulate(emulators):
            raise AssertionError("emulate started")

        monkeypatch.setattr(cli, "emulate", no_emulate)
        assert cli.main(["emulate", "--port", "9", "--duration-s", duration]) == 2
        captured = capsys.readouterr()
        assert f"--duration-s must be at least 1, got {duration}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_processing_time_must_be_finite(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["emulate", "--port", "9", "--t-fdr-ms", value])
        assert exc.value.code == 2
        assert f"not a finite number: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["100", "250", "1e300", "-0.5"])
    def test_processing_time_outside_one_grid_interval_is_a_usage_error(self, capsys, monkeypatch, value):
        # 100 ms is fdr.GRID_MS: a device that waits that long before each
        # measurement falls further behind with every frame
        def no_emulate(emulators):
            raise AssertionError("emulate started")

        monkeypatch.setattr(cli, "emulate", no_emulate)
        assert cli.main(["emulate", "--port", "9", "--t-fdr-ms", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --t-fdr-ms must be in [0, 100), got {float(value)!r}\n"
        assert captured.out == ""

    def test_processing_time_below_one_grid_interval_is_emulated(self, capsys, monkeypatch):
        started = []

        def record(emulators):
            started.extend(emulators)
            return [True] * len(emulators)

        monkeypatch.setattr(cli, "emulate", record)
        assert cli.main(["emulate", "--port", "9", "--t-fdr-ms", "99.9"]) == 0
        assert [emu.config.t_fdr_ms for emu in started] == [99.9]
        capsys.readouterr()

    @pytest.mark.parametrize("attempts", ["0", "-1"])
    def test_connect_attempts_below_one_is_a_usage_error(self, capsys, monkeypatch, attempts):
        def no_emulate(emulators):
            raise AssertionError("emulate started")

        monkeypatch.setattr(cli, "emulate", no_emulate)
        assert cli.main(["emulate", "--port", "9", "--connect-attempts", attempts]) == 2
        captured = capsys.readouterr()
        assert f"--connect-attempts must be at least 1, got {attempts}" in captured.err
        assert captured.out == ""

    def test_devices_share_one_thread(self, tmp_path, monkeypatch):
        server = LiveDcsServer(out_dir=tmp_path)
        server.start()  # its loop thread starts before the patch
        try:

            def no_thread(thread):
                raise AssertionError(f"thread started: {thread!r}")

            monkeypatch.setattr(threading.Thread, "start", no_thread)
            code = cli.main(
                ["emulate", "--port", str(server.port), "--devices", "20", "--duration-s", "2"]
            )
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and server.ingest.counters["rows"] < 400:
                time.sleep(0.05)
        finally:
            server.stop()
        assert code == 0
        assert server.ingest.counters["rows"] == 400
        assert load_capture(tmp_path / "capture.jsonl").slot_table().devices == list(range(1, 21))
        stamps = defaultdict(list)
        for line in (tmp_path / "measurements.jsonl").read_text().splitlines()[1:-1]:
            row = json.loads(line)
            stamps[row["device_id"]].append(row["frame_timestamp"])
        assert sorted(stamps) == list(range(1, 21))
        for series in stamps.values():
            assert all(ts % 100 == 0 for ts in series)
            assert all(b > a for a, b in zip(series, series[1:]))


class TestServe:
    @pytest.mark.parametrize("argv", [["--skew-bound-ms", "nan"], ["--skew-bound-ms", "inf"],
                                      ["--skew-bound-ms", "1e305"], ["--skew-bound-ms", "-5"],
                                      ["--duration-s", "0"], ["--duration-s", "-1"]])
    def test_header_value_a_log_cannot_hold_is_a_usage_error(self, argv, tmp_path, capsys):
        try:
            code = cli.main(["serve", "--port", "0", "--out-dir", str(tmp_path), *argv])
        except SystemExit as exc:  # argparse's refusal
            code = exc.code
        assert code == 2
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("port", ["-1", "65536", "70000"])
    def test_port_outside_0_to_65535_is_a_usage_error(self, capsys, monkeypatch, tmp_path, port):
        def no_server(*args, **kwargs):
            raise AssertionError("server created")

        monkeypatch.setattr(cli, "LiveDcsServer", no_server)
        assert cli.main(["serve", "--port", port, "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert f"--port must be in 0..65535, got {port}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("conns", ["0", "-5"])
    def test_max_conns_below_one_is_a_usage_error(self, capsys, monkeypatch, tmp_path, conns):
        # such a server would refuse every connection
        def no_server(*args, **kwargs):
            raise AssertionError("server created")

        monkeypatch.setattr(cli, "LiveDcsServer", no_server)
        argv = ["serve", "--port", "0", "--out-dir", str(tmp_path), "--max-conns", conns, "--duration-s", "1"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --max-conns must be at least 1, got {conns}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_busy_port_leaves_earlier_logs_as_they_were(self, tmp_path, capsys):
        earlier = tmp_path / "capture.jsonl"
        earlier.write_bytes(b'{"header": {"log": "capture"}}\n{"integrity": {"records": 0}}\n')
        before = earlier.read_bytes()
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            assert cli.main(["serve", "--port", str(port), "--out-dir", str(tmp_path)]) == 1
        assert f"cannot listen on 127.0.0.1:{port}" in capsys.readouterr().err
        assert earlier.read_bytes() == before
        assert list(tmp_path.iterdir()) == [earlier]

    def test_out_dir_that_cannot_be_made_is_named_not_the_port(self, tmp_path, capsys):
        # the bind works; creating the out dir, a regular file, does not
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        assert cli.main(["serve", "--port", "0", "--out-dir", str(not_a_dir), "--duration-s", "1"]) == 1
        err = capsys.readouterr().err
        assert "cannot listen" not in err
        assert f"cannot open the logs in {not_a_dir}" in err
        assert not_a_dir.read_text() == "x"

    def test_sigterm_stops_cleanly_with_sigint_ignored(self, tmp_path):
        # a background job of a non-interactive shell starts with SIGINT
        # ignored, so SIGTERM is what stops it
        serve = subprocess.Popen(
            [sys.executable, "-m", "wamsbench.cli", "serve", "--port", "0", "--out-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert serve.stdout.readline().startswith("listening on ")
            serve.send_signal(signal.SIGTERM)
            out, _ = serve.communicate(timeout=15)
        finally:
            serve.kill()
        assert serve.returncode == 0
        assert "wrote 0 measurement rows" in out
        for name in ("capture.jsonl", "measurements.jsonl"):
            last = (tmp_path / name).read_text().splitlines()[-1]
            assert json.loads(last).keys() == {"integrity"}
