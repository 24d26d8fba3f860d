"""Analyzer metrics against hand-built logs and statistical checks.

The heavy lifting lives in oracle_logs.py: synthetic captures whose
metrics were computed by hand, so the analyzer is never graded by the
code that writes real captures.  The tests here run those oracles and
cover the loader's failure modes, sampling validation, output formats,
and a bootstrap agreement check on a real simulated capture.
"""

import csv
import dataclasses
import io
import json
import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_logs
from test_sim import JITTERY, OUTAGE
from wamsbench import analyzer, cli, dcs
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
from wamsbench.scenario import load_scenario, parse_scenario
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


def _state(cap) -> tuple:
    """Everything a load gives, typed: the record and frame columns as
    their bytes (so -0.0 and NaN bits count), the rest as repr (so the
    int 1 and True differ)."""
    records = cap.records
    columns = (records.wall_time, records.device, records.direction, records.retx_class,
               records.payload_bytes, records.header_bytes)
    frames = [(repr(dev), *map(bytes, cols)) for dev, *cols in cap.frames.by_device]
    values = (cap.header, cap.integrity, cap.skipped_lines, cap.counts,
              records.device_ids, records.directions, records.classes)
    return tuple(map(bytes, columns)), frames, repr(values)


def _spaced(line: str) -> str:
    """``line`` re-encoded by json with its default spacing, which the
    compact pattern never matches; a line json rejects stays as it is."""
    try:
        return json.dumps(json.loads(line))
    except ValueError:
        return line


class _CountingDecode:
    """Stands in for analyzer._decode and counts the lines it decodes."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.decode = analyzer._decode
        monkeypatch.setattr(analyzer, "_decode", self)

    def __call__(self, line):
        self.calls += 1
        return self.decode(line)


HEADER_LINE = dcs.dumps({"header": oracle_logs._header(duration_s=1)})


def _compact(wall, dev, payload, direction="UPLINK", cls="FIRST", header=40, frames=()):
    """A record line as the simulator writes it; ``frames`` holds
    (frame_seq, frame_timestamp, arrival) triples."""
    rows = [dcs.MeasurementRow(dev, seq, ts, arrival, 50.0, 1.0, 0.0, 0) for seq, ts, arrival in frames]
    return dcs.capture_line(wall, dev, direction, 0, payload, payload, header, cls, rows)


def _write(path, lines, end="\n"):
    path.write_text("".join(line + end for line in [HEADER_LINE, *lines, '{"integrity":{"records":2}}']))
    return path


def _outcome(path) -> tuple:
    """(_state, capture) of the capture at ``path``, or (the error its
    load raised, None)."""
    try:
        cap = load_capture(path)
    except CaptureError as err:
        return repr(err), None
    return _state(cap), cap


def _differential(tmp_path, lines) -> tuple:
    """Load ``lines`` as they are and re-encoded by json: the two loads
    must agree.  Returns the first capture and how many of its lines
    other than the header and the trailer were decoded as JSON."""
    spaced, _ = _outcome(_write(tmp_path / "spaced.jsonl", [_spaced(line) for line in lines]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        decode = _CountingDecode(monkeypatch)
        as_is, cap = _outcome(_write(tmp_path / "as_is.jsonl", lines))
    assert as_is == spaced
    return cap, decode.calls - 2


def _replace(line: str, old: str, new: str) -> str:
    assert old in line
    return line.replace(old, new, 1)


BASE = _compact(1250.5, 3, 55, frames=[(4, 1200, 1250.5)])
# (case, line, whether it is in the compact form)
DIFFERENTIAL_CASES = [
    ("canonical", BASE, True),
    ("minus-zero-int-wall", _replace(BASE, "1250.5,", "-0,"), False),
    ("minus-zero-float-wall", _replace(BASE, "1250.5,", "-0.0,"), True),
    ("minus-zero-arrival", _replace(BASE, ":1250.5}", ":-0.0}"), True),
    ("int-wall", _replace(BASE, "1250.5,", "1250,"), True),
    ("18-digit-int", _replace(BASE, ':55,', ':999999999999999999,'), True),
    ("19-digit-int", _replace(BASE, ':55,', ':1000000000000000000,'), False),
    ("20-digit-int", _replace(BASE, ':55,', ':10000000000000000000,'), False),
    ("2**63", _replace(BASE, ':55,', f':{2**63},'), False),
    ("2**63-1", _replace(BASE, ':55,', f':{2**63 - 1},'), False),
    ("18-digit-int-wall", _replace(BASE, "1250.5,", "123456789012345678,"), True),
    ("19-digit-int-wall", _replace(BASE, "1250.5,", "1234567890123456789,"), False),
    ("301-digit-float", _replace(BASE, "1250.5,", "9" * 301 + ".5,"), True),
    ("302-digit-float", _replace(BASE, "1250.5,", "9" * 302 + ".5,"), False),
    ("400-digit-float", _replace(BASE, "1250.5,", "1" * 400 + ".5,"), False),
    ("long-fraction", _replace(BASE, "1250.5,", "0." + "0" * 400 + "1,"), True),
    ("exponent-1e5", _replace(BASE, "1250.5,", "1e5,"), False),
    ("exponent-1.0E+2", _replace(BASE, ":1250.5}", ":1.0E+2}"), False),
    ("NaN-wall", _replace(BASE, "1250.5,", "NaN,"), False),
    ("Infinity-arrival", _replace(BASE, ":1250.5}", ":Infinity}"), False),
    ("float-payload", _replace(BASE, ':55,', ':55.0,'), False),
    ("empty-frame-list", _replace(BASE, '[{"frame_seq":4,"frame_timestamp":1200,"arrival_time_of_last_byte":1250.5}]', "[]"), False),
    ("two-entries", _compact(1250.5, 3, 110, frames=[(4, 1200, 1250.5), (5, 1300, 1250.5)]), True),
    ("null-wall", _compact(None, 3, 55, cls="RTO_RETX"), True),
    ("null-device", dcs.dumps(dcs.CaptureRecord(1250.5, None, "UPLINK", (0, 55), 55, 0, "FIRST", None).to_json()), True),
    ("escaped-direction", _replace(BASE, '"UPLINK"', '"UP\\u004cINK"'), False),
    ("escaped-quote", _replace(BASE, '"UPLINK"', '"UP\\"LINK"'), False),
    ("non-ascii-direction", _replace(BASE, '"UPLINK"', '"ÜPLINK "'), True),
    ("missing-header-bytes", _replace(BASE, '"header_bytes":40,', ""), False),
    ("missing-seq-range", _replace(BASE, '"seq_range":[0,55],', ""), False),
    ("extra-key", _replace(BASE, "{", '{"note":"x",'), False),
    ("reordered-keys", json.dumps(dict(reversed(json.loads(BASE).items())), separators=(",", ":")), False),
    ("duplicate-key", _replace(BASE, "{", '{"payload_bytes":7,'), False),
    ("padded", "  \t" + BASE + " ", False),
    ("unhashable-device", _replace(BASE, '"device_id":3', '"device_id":[3]'), False),
    ("bool-device", _replace(BASE, '"device_id":3', '"device_id":true'), False),
    ("string-timestamp", _replace(BASE, '"frame_timestamp":1200', '"frame_timestamp":"1200"'), False),
]
NOT_JSON = [
    "{not json",
    BASE[:-1],
    BASE + "x",
    BASE + BASE,
    '{"wall_time":1.0,"device_id":3,',
    "[1,2,3]",
    '"UPLINK"',
    _replace(BASE, ':55,', ':055,'),  # a leading zero
    _replace(BASE, '"UPLINK"', '"UP\tLINK"'),  # a raw control character
]


class TestCompactLines:
    """The loader's compact-line pattern against its JSON path: any line
    json accepts loads exactly as its re-encoding with json's default
    spacing, which the pattern never matches."""

    @pytest.mark.parametrize("case,line,compact", DIFFERENTIAL_CASES, ids=[c[0] for c in DIFFERENTIAL_CASES])
    def test_line_loads_as_its_json_reencoding(self, case, line, compact, tmp_path):
        # the line sits between two runs of compact lines, the first of
        # which hands out new device, direction and class codes
        before = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), _compact(2.5, 2, 0, direction="ACK", cls="FAST_RETX")]
        after = [_compact(3.5, 8, 55, frames=[(2, 1000, 3.5)]), _compact(None, 1, 55)]
        json.loads(line)  # every case is valid JSON
        cap, decoded = _differential(tmp_path, [*before, line, *after])
        assert decoded == (0 if compact else 1)
        if compact:
            assert cap.skipped_lines == 0

    @pytest.mark.parametrize("line", NOT_JSON)
    def test_line_that_is_not_a_record_is_skipped_and_counted(self, line, tmp_path):
        lines = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), line, _compact(2.5, 2, 55)]
        cap, decoded = _differential(tmp_path, lines)
        assert decoded == 1
        assert cap.skipped_lines == 1
        assert cap.records.device_ids == [1, 2]

    def test_corrupt_line_after_a_run_gives_back_only_its_codes(self, tmp_path):
        bad = _compact(9.5, 77, 85, direction="SIDEWAYS", cls="ODD", frames=[(1, 2, 9.5)])
        lines = [_compact(1.5, 1, 55, direction="NEW", cls="C1"), bad.replace('"frame_seq":1', '"frame_seq":1.5'),
                 _compact(2.5, 5, 55, direction="NEXT", cls="C2", frames=[(3, 0, 2.5)])]
        cap, decoded = _differential(tmp_path, lines)
        assert decoded == 1
        assert cap.skipped_lines == 1
        assert cap.records.device_ids == [1, 5]
        assert cap.records.directions == ["NEW", "NEXT"]
        assert cap.records.classes == ["C1", "C2"]
        assert cap.frames == [(5, 3, 0, 2.5)]

    def test_null_device_frames_sort_before_int_ones(self, tmp_path):
        lines = [_compact(1.5, 3, 55, frames=[(1, 0, 1.5)]), _compact(2.5, None, 55, frames=[(7, 100, 2.5)])]
        cap, decoded = _differential(tmp_path, lines)
        assert decoded == 0
        assert cap.frames == [(None, 7, 100, 2.5), (3, 1, 0, 1.5)]

    def test_device_ids_that_do_not_sort_together_are_a_capture_error(self, tmp_path, capsys):
        cap, _ = _differential(tmp_path, [BASE, _replace(BASE, '"device_id":3', '"device_id":"x"')])
        assert cap is None
        with pytest.raises(CaptureError, match="do not sort together"):
            load_capture(tmp_path / "as_is.jsonl")
        assert cli.main(["report", str(tmp_path / "as_is.jsonl")]) == 2
        assert "do not sort together" in capsys.readouterr().err

    def test_blank_lines_and_crlf_line_ends(self, tmp_path):
        lines = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), "", "   ", _compact(None, 2, 55)]
        plain = load_capture(_write(tmp_path / "plain.jsonl", [line for line in lines if line.strip()]))
        with pytest.MonkeyPatch.context() as monkeypatch:
            decode = _CountingDecode(monkeypatch)
            crlf = load_capture(_write(tmp_path / "crlf.jsonl", lines, end="\r\n"))
        assert _state(crlf) == _state(plain)
        assert decode.calls == 2  # blank lines never reach json
        assert crlf.skipped_lines == 0

    def test_last_line_without_newline(self, tmp_path):
        lines = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), _compact(2.5, 1, 55, frames=[(2, 100, 2.5)])]
        path = tmp_path / "cut.jsonl"
        path.write_text("\n".join([HEADER_LINE, *lines]))
        cap = load_capture(path)
        assert cap.frames == [(1, 1, 0, 1.5), (1, 2, 100, 2.5)]
        assert cap.integrity is None

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from(["capture_line", "to_json", "spaced"]),
                st.one_of(st.none(), st.floats(-1e20, 1e20, allow_nan=False), st.integers(-10**20, 10**20)),
                st.one_of(st.none(), st.integers(0, 2**16), st.integers(-10**19, 10**19)),
                st.sampled_from(["UPLINK", "ACK", "ÜP", " "]),
                st.one_of(st.integers(0, 1500), st.integers(-2**64, 2**64)),
                st.sampled_from(["FIRST", "RTO_RETX", "FAST_RETX"]),
                st.lists(
                    st.tuples(
                        st.integers(-2**63, 2**63),
                        st.integers(0, 2**62),
                        st.one_of(st.floats(0, 1e15, allow_nan=False), st.integers(0, 10**18)),
                    ),
                    max_size=3,
                ),
            ),
            max_size=30,
        )
    )
    def test_mixed_lines_load_as_their_json_reencoding(self, records, tmp_path_factory):
        lines = []
        for form, wall, dev, direction, payload, cls, entries in records:
            if form == "capture_line":
                rows = [dcs.MeasurementRow(dev, *entry, 50.0, 1.0, 0.0, 0) for entry in entries]
                lines.append(dcs.capture_line(wall, dev, direction, 0, 1, payload, 40, cls, rows))
                continue
            complete = [dcs.frame_complete_entry(dcs.MeasurementRow(dev, *e, 50.0, 1.0, 0.0, 0)) for e in entries]
            record = dcs.CaptureRecord(wall, dev, direction, (0, 1), payload, 0, cls, complete or None)
            line = dcs.dumps(record.to_json())
            lines.append(line if form == "to_json" else _spaced(line))
        _differential(tmp_path_factory.mktemp("mixed"), lines)

    def test_multi_block_capture_loads_as_its_json_reencoding(self, tmp_path):
        result = run_simulation(dataclasses.replace(load_scenario("lossy_0p3"), duration_s=60), tmp_path / "run")
        lines = result.capture_path.read_text().splitlines()[1:-1]
        assert sum(map(len, lines)) > 4 * analyzer._BLOCK_CHARS
        cap, decoded = _differential(tmp_path, lines)
        assert decoded == 0
        assert len(cap.records) == len(lines)


# the writer's compact line must reach the pattern: each of these
# captures decodes only its header and trailer as JSON (OUTAGE: a
# concentrator outage, RSTs and redials)
@pytest.mark.parametrize("name", ["lossless", "lossy_0p3", "outage", "paper_like"])
def test_simulated_capture_takes_the_compact_path(name, tmp_path, monkeypatch):
    if name == "outage":
        scenario = parse_scenario(OUTAGE)
    else:
        scenario = dataclasses.replace(load_scenario(name), duration_s=60)
    result = run_simulation(scenario, tmp_path)
    decode = _CountingDecode(monkeypatch)
    cap = load_capture(result.capture_path)
    assert decode.calls == 2
    assert cap.skipped_lines == 0
    assert cap.integrity_problems() == []
    if name in ("lossy_0p3", "paper_like"):
        # dropped copies (null wall times), both retransmission classes
        # and frame_complete lists of several entries
        assert cap.counts["dropped_copies"] > 0
        assert sorted(cap.records.classes) == ["FAST_RETX", "FIRST", "RTO_RETX"]
        assert "},{" in result.capture_path.read_text()


def test_live_capture_takes_the_compact_path(tmp_path, monkeypatch):
    # as the live concentrator writes it: no device id, no header bytes
    def record(wall, start, rows):
        complete = [dcs.frame_complete_entry(row) for row in rows] or None
        size = 55 * len(rows)
        return dcs.CaptureRecord(wall, None, "UPLINK", (start, start + size), size, 0, "FIRST", complete).to_json()

    rows = [dcs.MeasurementRow(3, seq, 1000 * seq, 1000 * seq + 0.25, 50.0, 1.0, 0.0, 0) for seq in range(1, 4)]
    lines = [
        {"header": oracle_logs._header(duration_s=None)},
        record(1000.25, 0, rows[:1]),
        record(2000.5, 55, []),
        record(3000.25, 55, rows[1:]),
        {"integrity": {"records": 3}},
    ]
    path = tmp_path / "live.jsonl"
    path.write_text("".join(dcs.dumps(line) + "\n" for line in lines))
    decode = _CountingDecode(monkeypatch)
    cap = load_capture(path)
    assert decode.calls == 2
    assert cap.records == [(1000.25, None, "UPLINK", 55, 0, "FIRST"), (2000.5, None, "UPLINK", 0, 0, "FIRST"),
                           (3000.25, None, "UPLINK", 110, 0, "FIRST")]
    assert cap.frames == [(None, 1, 1000, 1000.25), (None, 2, 2000, 2000.25), (None, 3, 3000, 3000.25)]


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
