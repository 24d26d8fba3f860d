"""Analyzer metrics against hand-built logs and statistical checks.

The heavy lifting lives in oracle_logs.py: synthetic captures whose
metrics were computed by hand, so the analyzer is never graded by the
code that writes real captures.  The tests here run those oracles and
cover the loader's failure modes, sampling validation, output formats,
and a bootstrap agreement check on a real simulated capture.
"""

import csv
import io
import json
import math
import statistics

import pytest

import oracle_logs
from test_sim import JITTERY
from wamsbench import analyzer
from wamsbench.analyzer import (
    DELAY_COLUMNS,
    SUMMARY_COLUMNS,
    CaptureError,
    FrameDelay,
    format_table,
    load_capture,
    one_way_delays,
    summarize,
    throughput_series,
    write_delay_series_csv,
    write_summary_csv,
    write_throughput_series_csv,
)
from wamsbench.scenario import parse_scenario
from wamsbench.sim import run_simulation


@pytest.mark.parametrize("builder", oracle_logs.ALL_ORACLES, ids=lambda b: b.__name__)
def test_hand_built_oracle(builder, tmp_path):
    _, verify = builder(tmp_path / "oracle.jsonl")
    verify(analyzer)


class TestThroughputFigures:
    def _steady_log(self, path, payload, split):
        # 10 frames per second for 10 seconds, all arriving inside the
        # window they were sent in
        records = []
        for k in range(100):
            ts = 50 + 100 * k
            if split:
                records.append(oracle_logs._rec(ts + 10.0, 1, 27))
                records.append(
                    oracle_logs._rec(ts + 11.0, 1, 28, complete=oracle_logs._done(k + 1, ts, ts + 11.0))
                )
            else:
                records.append(
                    oracle_logs._rec(ts + 10.0, 1, payload, complete=oracle_logs._done(k + 1, ts, ts + 10.0))
                )
        oracle_logs.write_log(path, oracle_logs._header(duration_s=10), records)
        return load_capture(path)

    def test_whole_frames_give_7_6_kbps(self, tmp_path):
        cap = self._steady_log(tmp_path / "whole.jsonl", 55, split=False)
        (value,) = throughput_series(cap, window_s=10.0)[1]
        assert value == pytest.approx(7.6, abs=1e-9)

    def test_split_frames_give_10_8_kbps(self, tmp_path):
        cap = self._steady_log(tmp_path / "split.jsonl", 55, split=True)
        (value,) = throughput_series(cap, window_s=10.0)[1]
        assert value == pytest.approx(10.8, abs=1e-9)

    def test_window_must_be_positive(self, tmp_path):
        cap = self._steady_log(tmp_path / "w.jsonl", 55, split=False)
        with pytest.raises(ValueError):
            throughput_series(cap, window_s=0)


class TestLoader:
    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text(json.dumps(oracle_logs._rec(1.0, 1, 55)) + "\n")
        with pytest.raises(CaptureError):
            load_capture(path)

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "base.jsonl")
        lines = path.read_text().splitlines()
        lines[2:2] = ["{not json", "[1,2,3]", '{"direction":"UPLINK"}']
        path.write_text("\n".join(lines) + "\n")
        cap = load_capture(path)
        assert cap.skipped_lines == 3
        assert len(cap.records) == 5
        assert [d.t_ci_ms for d in one_way_delays(cap)] == [10.5, 20.5, 30.5]

    def test_trailing_data_and_bad_frame_entries_are_corrupt(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "base.jsonl")
        lines = path.read_text().splitlines()
        bad_entry = oracle_logs._rec(300.0, 1, 85, complete=[{"frame_seq": 9}])
        lines[2:2] = [lines[1] + " []", lines[1] + lines[1], json.dumps(bad_entry)]
        path.write_text("\n".join(lines) + "\n")
        cap = load_capture(path)
        assert cap.skipped_lines == 3
        assert len(cap.records) == 5

    def test_records_and_frames_are_compact_tuples(self, tmp_path):
        header = oracle_logs._header(duration_s=2)
        records = [
            oracle_logs._rec(250.5, 2, 55, complete=oracle_logs._done(7, 200, 250.5)),
            oracle_logs._rec(None, 1, 55, cls="RTO_RETX"),
            oracle_logs._rec(260.0, 1, 0, direction="ACK", header=52),
            oracle_logs._rec(
                150.25, 1, 110, complete=oracle_logs._done(4, 100, 150.25) + oracle_logs._done(3, 0, 150.25)
            ),
        ]
        cap = load_capture(oracle_logs.write_log(tmp_path / "t.jsonl", header, records))
        assert cap.records == [
            (250.5, 2, "UPLINK", 55, 40, "FIRST"),
            (None, 1, "UPLINK", 55, 40, "RTO_RETX"),
            (260.0, 1, "ACK", 0, 52, "FIRST"),
            (150.25, 1, "UPLINK", 110, 40, "FIRST"),
        ]
        assert cap.frames == [(1, 3, 0, 150.25), (1, 4, 100, 150.25), (2, 7, 200, 250.5)]
        assert cap.counts == {"records": 4, "uplink_copies": 3, "ack_copies": 1, "dropped_copies": 1}

    @pytest.mark.parametrize(
        "field,value",
        [
            ("wall_time", math.nan),
            ("wall_time", math.inf),
            ("wall_time", -math.inf),
            ("wall_time", "300.0"),
            ("wall_time", [300.0]),
            ("payload_bytes", 85.0),
            ("payload_bytes", "85"),
            ("header_bytes", None),
            ("header_bytes", 2**64),
            ("device_id", [7]),
            ("direction", {"UPLINK": 1}),
            ("retransmission_class", ["FIRST"]),
            # the first entry fits, the second does not: neither is kept
            ("frame_complete", oracle_logs._done(9, 290, 300.0) + oracle_logs._done(10.5, 290, 300.0)),
            ("frame_complete", oracle_logs._done(9, 290, 300.0) + oracle_logs._done(10, "290", 300.0)),
        ],
    )
    def test_field_that_does_not_fit_its_column_is_corrupt(self, field, value, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "base.jsonl")
        lines = path.read_text().splitlines()
        bad = oracle_logs._rec(300.0, 7, 85, complete=oracle_logs._done(9, 290, 300.0))
        bad[field] = value
        lines.insert(2, json.dumps(bad))  # NaN and Infinity as Python's json writes them
        path.write_text("\n".join(lines) + "\n")
        cap = load_capture(path)
        assert cap.skipped_lines == 1
        assert cap.counts["records"] == len(cap.records) == 5
        # nothing of the corrupt line is left in any column
        assert cap.devices() == [1]
        assert [d.t_ci_ms for d in one_way_delays(cap)] == [10.5, 20.5, 30.5]
        assert [m.device for m in summarize(cap).devices] == [1]
        assert cap.records.device_ids == [1]

    def test_corrupt_line_hands_out_no_codes(self, tmp_path):
        # new device, direction and class, then a frame entry that does
        # not fit: the three codes go back, and the next line reuses them
        bad = oracle_logs._rec(300.0, 7, 85, cls="ODD", direction="SIDEWAYS", complete=oracle_logs._done(9.5, 1, 300.0))
        records = [
            oracle_logs._rec(110.5, 1, 85, complete=oracle_logs._done(1, 100, 110.5)),
            bad,
            oracle_logs._rec(None, 8, 85, cls="RTO_RETX", direction="ACK"),
        ]
        cap = load_capture(oracle_logs.write_log(tmp_path / "t.jsonl", oracle_logs._header(duration_s=1), records))
        assert cap.skipped_lines == 1
        assert cap.records.device_ids == [1, 8]
        assert cap.records.directions == ["UPLINK", "ACK"]
        assert cap.records.classes == ["FIRST", "RTO_RETX"]
        assert cap.records == [(110.5, 1, "UPLINK", 85, 40, "FIRST"), (None, 8, "ACK", 85, 40, "RTO_RETX")]
        assert analyzer._uplink_totals(cap, 1.0)[1] == {1: {"FIRST": 125}, 8: {}}

    def test_every_wire_device_id_has_a_code(self, tmp_path):
        # the 65536 ids a 16-bit wire field holds, plus a live capture's None
        ids = [*range(2**16), None]
        records = [oracle_logs._rec(None, dev, 0) for dev in ids]
        cap = load_capture(oracle_logs.write_log(tmp_path / "t.jsonl", oracle_logs._header(duration_s=1), records))
        assert cap.skipped_lines == 0
        assert cap.records.device_ids == ids
        assert cap.devices() == ids[:-1]

    @pytest.mark.parametrize("field", ["direction", "retransmission_class"])
    def test_more_than_256_distinct_codes_is_an_error(self, field, tmp_path):
        def log(n):
            records = [oracle_logs._rec(None, 1, 0) for _ in range(n)]
            for k, record in enumerate(records):
                record[field] = f"v{k}"
            return oracle_logs.write_log(tmp_path / f"{n}.jsonl", oracle_logs._header(duration_s=1), records)

        assert len(load_capture(log(256)).records) == 256
        with pytest.raises(analyzer.CaptureError, match=f"more than 256 distinct {field} values"):
            load_capture(log(257))

    def test_line_order_never_matters(self, tmp_path):
        path, _ = oracle_logs.sampling_and_skew(tmp_path / "fwd.jsonl")
        forward = summarize(load_capture(path))
        lines = path.read_text().splitlines()
        shuffled = [lines[0]] + lines[1:-1][::-1] + [lines[-1]]
        reversed_path = tmp_path / "rev.jsonl"
        reversed_path.write_text("\n".join(shuffled) + "\n")
        assert summarize(load_capture(reversed_path)) == forward

    def test_population_derived_when_duration_unknown(self, tmp_path):
        header = oracle_logs._header(duration_s=None)
        records = [oracle_logs._rec(2500.5, 1, 55, complete=oracle_logs._done(1, 100, 2500.5))]
        path = oracle_logs.write_log(tmp_path / "live.jsonl", header, records)
        assert load_capture(path).population_slots() == 3


class TestIntegrity:
    def test_simulated_counts_match_the_trailer(self, tmp_path):
        # uplink loss, so the trailer holds non-zero dropped copies
        result = run_simulation(parse_scenario(JITTERY), tmp_path / "run")
        cap = load_capture(result.capture_path)
        assert cap.counts["dropped_copies"] > 0
        assert cap.counts == {key: cap.integrity[key] for key in analyzer.TRAILER_KEYS}
        assert cap.integrity_problems() == []

    def test_only_disagreeing_keys_are_listed(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "a.jsonl")
        lines = path.read_text().splitlines()
        lines[-1] = json.dumps({"integrity": {"records": 6, "ack_copies": 2, "rows": 99}})
        path.write_text("\n".join(lines) + "\n")
        assert load_capture(path).integrity_problems() == ["trailer counts records=6, parsed 5"]

    def test_missing_trailer_is_a_problem(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "a.jsonl")
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        cap = load_capture(path)
        assert cap.integrity is None
        assert len(cap.integrity_problems()) == 1


class TestSampling:
    @pytest.fixture()
    def cap(self, tmp_path):
        path, _ = oracle_logs.sampling_and_skew(tmp_path / "s.jsonl")
        return load_capture(path)

    def test_out_of_range_indices_are_listed(self, cap):
        with pytest.raises(ValueError) as err:
            summarize(cap, sample_indices=[0, 4, -1])
        assert "[-1, 4]" in str(err.value)

    def test_duplicate_indices_collapse(self, cap):
        assert summarize(cap, sample_indices=[0, 0, 0]) == summarize(cap, sample_indices=[0])


class TestOutputs:
    @pytest.fixture()
    def cap(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "a.jsonl")
        return load_capture(path)

    def test_summary_csv_columns_are_pinned(self, cap, tmp_path):
        out = tmp_path / "summary.csv"
        write_summary_csv(summarize(cap), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "device,avg_throughput_kbps,avg_delay_ms,max_delay_ms,retx_pct,fast_retx_pct,wasted_bw_pct"
        assert lines[1] == "1,1.000,20.500,30.500,0.0000,0.0000,0.0000"

    def test_table_is_aligned(self, cap):
        table = format_table(summarize(cap))
        lines = table.splitlines()
        assert lines[0].split() == SUMMARY_COLUMNS
        assert len(lines) == 2
        # every numeric cell sits right-aligned under its heading
        assert lines[1].endswith("0.0000")

    def test_series_csvs_cover_all_rows(self, cap, tmp_path):
        delay_csv = tmp_path / "delay.csv"
        write_delay_series_csv(one_way_delays(cap), delay_csv)
        assert len(delay_csv.read_text().splitlines()) == 4
        tp_csv = tmp_path / "tp.csv"
        write_throughput_series_csv(throughput_series(cap), 1.0, tp_csv)
        assert tp_csv.read_text().splitlines() == [
            "device,window_start_s,kbit_per_s",
            "1,0,3.000",
            "1,1,0.000",
            "1,2,0.000",
        ]

    @pytest.mark.parametrize(
        "window_s,k,label",
        [
            (0.25, 49_381, "12345.25"),
            (2.5, 40_001, "100002.5"),
            (250.0, 4_000, "1000000"),
            (0.1, 3, "0.3"),  # 3 * 0.1 is 0.30000000000000004
        ],
    )
    def test_throughput_window_labels_keep_every_digit(self, window_s, k, label, tmp_path):
        out = tmp_path / "tp.csv"
        write_throughput_series_csv({1: [0.0] * (k + 1)}, window_s, out)
        labels = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        assert labels[k] == label
        assert len(set(labels)) == k + 1  # no two windows share a label

    @pytest.mark.parametrize("dev,seq", [(1, 2), ("a,b", 'say "x"'), (None, 2.5)])
    def test_delay_csv_is_what_the_csv_module_writes(self, dev, seq, tmp_path):
        delays = [
            FrameDelay(dev, seq, 1_700_000_000_000, 1_700_000_000_101.1464, 101.1464, 101.6464, False),
            FrameDelay(dev, seq, 1_700_000_000_100, 1_700_000_000_099.0, -1.0, -0.5, True),
        ]
        out = tmp_path / "delay.csv"
        write_delay_series_csv(delays, out)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(DELAY_COLUMNS)
        for d in delays:
            writer.writerow(
                [d.device_id, d.frame_seq, d.frame_timestamp]
                + [f"{x:.3f}" for x in (d.arrival_time, d.t_ci_ms, d.t_ete_ms)]
                + [int(d.flagged)]
            )
        assert out.read_text(encoding="utf-8") == expected.getvalue()

    def test_streamed_delay_csv_quotes_ids_as_the_list_one_does(self, tmp_path):
        records = [
            oracle_logs._rec(110.5, "a,b", 85, complete=oracle_logs._done(1, 100, 110.5)),
            oracle_logs._rec(120.5, 'say "x"', 85, complete=oracle_logs._done(1, 100, 120.5)),
        ]
        cap = load_capture(oracle_logs.write_log(tmp_path / "ids.jsonl", oracle_logs._header(duration_s=1), records))
        streamed, listed = tmp_path / "streamed.csv", tmp_path / "listed.csv"
        write_delay_series_csv(analyzer.analyze(cap)[1], streamed)
        write_delay_series_csv(one_way_delays(cap), listed)
        assert streamed.read_bytes() == listed.read_bytes()
        assert '"a,b",1,100,' in streamed.read_text()

    @pytest.mark.parametrize("window_s", [1.0, 2.5])
    def test_analyze_equals_the_separate_analyses(self, cap, window_s):
        summary, delays, series = analyzer.analyze(cap, [0, 2], t_fdr_ms=0.5, window_s=window_s)
        assert summary == summarize(cap, [0, 2], t_fdr_ms=0.5)
        assert delays == one_way_delays(cap, t_fdr_ms=0.5)
        assert series == throughput_series(cap, window_s)

    def test_reanalysis_is_byte_identical(self, cap, tmp_path):
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        write_summary_csv(summarize(cap), first)
        write_summary_csv(summarize(cap), second)
        assert first.read_bytes() == second.read_bytes()


BOOTSTRAP = """
[scenario]
name = lab-bootstrap
duration_s = 40
devices = 1
[uplink]
t_p_ms = 20.0
jitter = lognormal
jitter_median_ms = 6.0
jitter_sigma = 0.5
jitter_cap_ms = 25.0
[device]
p_seg = 0
"""


def test_disjoint_sample_sets_agree(tmp_path):
    """Two disjoint halves of a stationary run estimate the same mean."""
    result = run_simulation(parse_scenario(BOOTSTRAP), tmp_path / "run")
    cap = load_capture(result.capture_path)
    evens = summarize(cap, sample_indices=range(0, 40, 2))
    odds = summarize(cap, sample_indices=range(1, 40, 2))
    delays = [d.t_ci_ms for d in one_way_delays(cap) if not d.flagged]
    sigma = statistics.stdev(delays)
    bound = 3.0 * sigma * math.sqrt(1 / evens.frames_counted + 1 / odds.frames_counted)
    gap = abs(evens.devices[0].avg_delay_ms - odds.devices[0].avg_delay_ms)
    assert gap <= bound
