"""Command-line behavior: exit codes, file outputs, printed figures."""

import json
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict

import pytest

from wamsbench import cli
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

    def test_full_sample_equals_unsampled(self, mini_run, tmp_path):
        full = tmp_path / "full"
        sampled = tmp_path / "sampled"
        cli.main(["analyze", str(mini_run / "capture.jsonl"), "--out-dir", str(full)])
        cli.main(
            [
                "analyze",
                str(mini_run / "capture.jsonl"),
                "--out-dir",
                str(sampled),
                "--sample-size",
                "4",
            ]
        )
        assert (full / "summary.csv").read_bytes() == (sampled / "summary.csv").read_bytes()

    def test_oversized_sample_is_a_usage_error(self, mini_run, tmp_path, capsys):
        code = cli.main(
            [
                "analyze",
                str(mini_run / "capture.jsonl"),
                "--out-dir",
                str(tmp_path),
                "--sample-size",
                "5",
            ]
        )
        assert code == 2
        assert "population" in capsys.readouterr().err

    def test_corrupt_line_warns_and_completes(self, mini_run, tmp_path, capsys):
        lines = (mini_run / "capture.jsonl").read_text().splitlines()
        mangled = tmp_path / "mangled.jsonl"
        mangled.write_text("\n".join([lines[0], "{truncated", *lines[1:]]) + "\n")
        code = cli.main(["analyze", str(mangled), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert "skipped 1 corrupt log line" in capsys.readouterr().err

    def test_missing_file_is_a_runtime_error(self, tmp_path):
        assert cli.main(["analyze", str(tmp_path / "gone.jsonl")]) == 1


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

    def test_untabulated_confidence_is_a_usage_error(self):
        assert cli.main(["samplesize", "--s", "1.0", "--confidence", "0.80"]) == 2


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
        assert load_capture(tmp_path / "capture.jsonl").devices() == list(range(1, 21))
        stamps = defaultdict(list)
        for line in (tmp_path / "measurements.jsonl").read_text().splitlines()[1:-1]:
            row = json.loads(line)
            stamps[row["device_id"]].append(row["frame_timestamp"])
        assert sorted(stamps) == list(range(1, 21))
        for series in stamps.values():
            assert all(ts % 100 == 0 for ts in series)
            assert all(b > a for a, b in zip(series, series[1:]))


class TestServe:
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
