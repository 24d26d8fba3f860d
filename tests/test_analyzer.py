"""Analyzer metrics against hand-built logs and statistical checks.

The heavy lifting lives in oracle_logs.py: synthetic captures whose
metrics were computed by hand, so the analyzer is never graded by the
code that writes real captures.  The tests here run those oracles and
cover the loader's failure modes, sampling validation, output formats,
and a bootstrap agreement check on a real simulated capture.
"""

import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys
import time
import tracemalloc
import zlib
from array import array
from functools import partial
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_logs
import oracle_records
import test_golden
from test_golden import analyzer_captures  # noqa: F401  a fixture, shared
from test_sim import JITTERY, OUTAGE
from wamsbench import analyzer, cli, dcs, stats
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
from wamsbench.scenario import builtin_scenarios, load_scenario, parse_scenario
from wamsbench.sim import run_simulation

SRC = Path(__file__).resolve().parents[1] / "src"


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
        assert throughput_series(cap)[1] == pytest.approx([7.6] * 10, abs=1e-9)

    def test_split_frames_give_10_8_kbps(self, tmp_path):
        cap = self._steady_log(tmp_path / "split.jsonl", 55, split=True)
        assert throughput_series(cap)[1] == pytest.approx([10.8] * 10, abs=1e-9)


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
        assert cap.counts["records"] == 5
        _assert_records_are_the_oracle_s(cap, path)
        assert [d.t_ci_ms for d in one_way_delays(cap)] == [10.5, 20.5, 30.5]

    def test_trailing_data_and_bad_frame_entries_are_corrupt(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "base.jsonl")
        lines = path.read_text().splitlines()
        bad_entry = oracle_logs._rec(300.0, 1, 85, complete=[{"frame_seq": 9}])
        lines[2:2] = [lines[1] + " []", lines[1] + lines[1], json.dumps(bad_entry)]
        path.write_text("\n".join(lines) + "\n")
        cap = load_capture(path)
        assert cap.skipped_lines == 3
        assert cap.counts["records"] == 5
        _assert_records_are_the_oracle_s(cap, path)

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
        path = oracle_logs.write_log(tmp_path / "t.jsonl", header, records)
        cap = load_capture(path)
        assert _record_rows(path) == [
            (250.5, 2, "UPLINK", 55, 40, "FIRST"),
            (None, 1, "UPLINK", 55, 40, "RTO_RETX"),
            (260.0, 1, "ACK", 0, 52, "FIRST"),
            (150.25, 1, "UPLINK", 110, 40, "FIRST"),
        ]
        _assert_records_are_the_oracle_s(cap, path)
        assert _frame_rows(cap) == [(1, 3, 0, 150.25), (1, 4, 100, 150.25), (2, 7, 200, 250.5)]
        assert cap.counts == {"records": 4, "uplink_copies": 3, "ack_copies": 1, "dropped_copies": 1}
        assert _uplink_half(cap) == (
            {1: [1.2, 0.0], 2: [0.76, 0.0]}, {1: {"FIRST": 150, "RTO_RETX": 95}, 2: {"FIRST": 95}}
        )

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
            # byte counts outside the uint16 column (the value rule)
            *((field, count) for field in ("payload_bytes", "header_bytes") for count in (65536, -1)),
            ("device_id", [7]),
            ("direction", {"UPLINK": 1}),
            ("retransmission_class", ["FIRST"]),
            # ids, directions and classes that break the identifier rule
            *(("device_id", dev) for dev in (True, 1.0, -1, 2**16, "1", [1])),
            ("direction", "SIDEWAYS"),
            ("retransmission_class", "ODD"),
            ("device_id", None),  # frames under a null id
            # the first entry fits, the second does not: neither is kept
            ("frame_complete", oracle_logs._done(9, 290, 300.0) + oracle_logs._done(10.5, 290, 300.0)),
            ("frame_complete", oracle_logs._done(9, 290, 300.0) + oracle_logs._done(10, "290", 300.0)),
            # arrivals that break the value rule
            *(("frame_complete", oracle_logs._done(9, 290, arrival))
              for arrival in (math.nan, math.inf, -math.inf, 1e308, 2**63, -2**63, "300.0")),
            # frame numbers outside the uint32 column (the value rule)
            *(("frame_complete", oracle_logs._done(seq, 290, 300.0)) for seq in (2**32, -1)),
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
        assert cap.counts["records"] == 5
        # nothing of the corrupt line is left: the state is that of the
        # clean capture with a line that is not JSON in its place
        lines[2] = "{not json"
        clean = tmp_path / "clean.jsonl"
        clean.write_text("\n".join(lines) + "\n")
        assert _state(cap) == _state(load_capture(clean))
        _assert_records_are_the_oracle_s(cap, path)
        assert _frame_rows(cap) == [(1, 1, 100, 110.5), (1, 2, 200, 220.5), (1, 3, 300, 330.5)]
        assert cap.slot_table().devices == [1]
        assert [d.t_ci_ms for d in one_way_delays(cap)] == [10.5, 20.5, 30.5]
        assert [m.device for m in summarize(cap).devices] == [1]

    def test_widest_byte_counts_and_frame_number_load(self, tmp_path):
        # the largest values the uint16 and uint32 columns hold, and 0
        records = [
            oracle_logs._rec(110.5, 1, 65535, header=65535, complete=oracle_logs._done(2**32 - 1, 100, 110.5)),
            oracle_logs._rec(120.5, 1, 0, header=0, complete=oracle_logs._done(0, 200, 120.5)),
        ]
        path = oracle_logs.write_log(tmp_path / "t.jsonl", oracle_logs._header(duration_s=1), records)
        cap = load_capture(path)
        assert cap.skipped_lines == 0
        assert _record_rows(path) == [(110.5, 1, "UPLINK", 65535, 65535, "FIRST"), (120.5, 1, "UPLINK", 0, 0, "FIRST")]
        _assert_records_are_the_oracle_s(cap, path)
        assert _frame_rows(cap) == [(1, 0, 200, 120.5), (1, 2**32 - 1, 100, 110.5)]
        assert throughput_series(cap) == {1: [2 * 65535 * 8 / 1000]}
        assert _warm(path) == _state(cap)

    def test_corrupt_line_of_a_new_device_leaves_no_device(self, tmp_path):
        # a new device whose frame entry does not fit: the line goes, and
        # with it every trace of the device
        bad = oracle_logs._rec(300.0, 7, 85, complete=oracle_logs._done(9.5, 1, 300.0))
        records = [
            oracle_logs._rec(110.5, 1, 85, complete=oracle_logs._done(1, 100, 110.5)),
            bad,
            oracle_logs._rec(None, 8, 85, cls="RTO_RETX", direction="ACK"),
        ]
        path = oracle_logs.write_log(tmp_path / "t.jsonl", oracle_logs._header(duration_s=1), records)
        cap = load_capture(path)
        assert cap.skipped_lines == 1
        assert _record_rows(path) == [(110.5, 1, "UPLINK", 85, 40, "FIRST"), (None, 8, "ACK", 85, 40, "RTO_RETX")]
        _assert_records_are_the_oracle_s(cap, path)
        assert cap.slot_table().devices == [1, 8]
        assert cap.slot_table().wire_bytes == {1: {"FIRST": 125}, 8: {}}

    def test_every_wire_device_id_loads(self, tmp_path):
        # the 65536 ids a 16-bit wire field holds, plus a live capture's None
        ids = [*range(2**16), None]
        records = [oracle_logs._rec(None, dev, 0) for dev in ids]
        path = oracle_logs.write_log(tmp_path / "t.jsonl", oracle_logs._header(duration_s=1), records)
        cap = load_capture(path)
        assert cap.skipped_lines == 0
        assert cap.counts["records"] == len(ids)
        assert [record[1] for record in _record_rows(path)] == ids
        assert list(cap.slot_table().wire_bytes) == [None, *range(2**16)]
        assert cap.slot_table().devices == ids[:-1]

    def test_record_before_the_header_is_skipped_and_counted(self, tmp_path):
        # the header-first rule: the fold of a record needs the header's
        # epoch, and every writer puts the header first
        path, _ = oracle_logs.simple_delays(tmp_path / "base.jsonl")
        lines = path.read_text().splitlines()
        early = json.dumps(oracle_logs._rec(150.5, 2, 85, complete=oracle_logs._done(1, 100, 150.5)))
        path.write_text("\n".join([early, *lines]) + "\n")
        cap = load_capture(path)
        assert cap.skipped_lines == 1
        assert cap.counts["records"] == 5
        assert cap.integrity_problems() == []
        clean = tmp_path / "clean.jsonl"
        clean.write_text("\n".join(["{not json", *lines]) + "\n")
        assert _state(cap) == _state(load_capture(clean))
        _assert_records_are_the_oracle_s(cap, path)

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

    def test_negative_payload_is_a_corrupt_line_report_refuses(self, tmp_path, capsys):
        # a hand-built capture whose first copy claims -5000 bytes: the
        # line is skipped, so the trailer disagrees and report exits 1
        records = [
            oracle_logs._rec(110.5, 1, -5000, complete=oracle_logs._done(1, 100, 110.5)),
            oracle_logs._rec(None, 1, 5000, cls="RTO_RETX"),
            oracle_logs._rec(220.5, 1, 85, complete=oracle_logs._done(2, 200, 220.5)),
        ]
        path = oracle_logs.write_log(tmp_path / "neg.jsonl", oracle_logs._header(duration_s=1), records)
        assert cli.main(["report", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "trailer counts records=3, parsed 2" in err
        assert cli.main(["report", str(path), "--allow-incomplete"]) == 0
        out = capsys.readouterr().out
        assert "INCOMPLETE CAPTURE" in out
        assert [cell for cell in out.split() if cell.startswith("-")] == []

    def test_missing_trailer_is_a_problem(self, tmp_path):
        path, _ = oracle_logs.simple_delays(tmp_path / "a.jsonl")
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
        cap = load_capture(path)
        assert cap.integrity is None
        assert len(cap.integrity_problems()) == 1


def _typed(column) -> tuple:
    return column.typecode, bytes(column)


def _record_rows(path) -> list:
    """The records of the capture at ``path``, as the oracle reads them:
    tuples (wall_time, device_id, direction, payload_bytes,
    header_bytes, retransmission_class), with None for a dropped copy's
    wall time and for a null device id."""
    return [tuple(record) for record in oracle_records.read(path).records]


def _uplink_half(cap) -> tuple:
    """(series, wire_bytes) of ``cap``'s slot table, as plain values, in
    the form of oracle_records.uplink_half."""
    table = cap.slot_table()
    return {dev: row.tolist() for dev, row in table.series().items()}, table.wire_bytes


def _assert_records_are_the_oracle_s(cap, path) -> None:
    """The loader's counts, skipped lines, table ids and uplink half and
    frames for the capture at ``path`` are those of the oracle's
    reading of it."""
    oracle = oracle_records.read(path)
    assert (cap.counts, cap.skipped_lines) == (oracle.counts(), oracle.skipped_lines)
    series, wire_bytes = oracle_records.uplink_half(oracle, cap.population_slots())
    assert _uplink_half(cap) == (series, wire_bytes)
    assert list(cap.slot_table().wire_bytes) == list(wire_bytes)  # in the same order
    assert _frame_rows(cap) == sorted(oracle.frames, key=lambda frame: frame[:2])


def _frame_rows(cap) -> list:
    """The frames of ``cap`` as tuples (device_id, frame_seq,
    frame_timestamp, arrival_time), sorted by (device_id, frame_seq)."""
    return [(dev, *row) for dev, *columns in cap.device_frames() for row in zip(*columns)]


def _state(cap) -> tuple:
    """Everything a load gives, typed: the frame columns and the slot
    table's arrays as their typecodes and bytes (so -0.0 and NaN bits
    count), the rest as repr (so the int 1 and True differ)."""
    frames = [(repr(dev), *map(_typed, cols)) for dev, *cols in cap.device_frames()]
    table = cap.slot_table()
    values = (cap.header, cap.integrity, cap.skipped_lines, cap.counts, table.population, table.devices,
              table.wire_bytes, table.flagged)
    arrays = [_typed(getattr(table, name)) for name in analyzer._TABLE_ARRAYS]
    return frames, arrays, repr(values)


def _spaced(line: str) -> str:
    """``line`` re-encoded by json with its default spacing; a line json
    rejects stays as it is."""
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
    (frame_seq, frame_timestamp, arrival) triples, each arriving at
    ``wall`` as every completed frame does."""
    assert all(arrival == wall for _, _, arrival in frames)
    rows = [dcs.MeasurementRow(dev, seq, ts, arrival, 50.0, 1.0, 0.0, 0) for seq, ts, arrival in frames]
    return dcs.capture_line(_json_number(wall), dev, direction, 0, payload, payload, header, cls, rows)


def _json_number(value) -> str:
    return "null" if value is None else repr(value)


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


def _differential(tmp_path, lines):
    """Load ``lines`` as they are and re-encoded by json: the two loads
    must agree, and with the oracle's reading of the records.  Returns
    the first capture, None when its load raised."""
    spaced, _ = _outcome(_write(tmp_path / "spaced.jsonl", [_spaced(line) for line in lines]))
    as_is, cap = _outcome(_write(tmp_path / "as_is.jsonl", lines))
    assert as_is == spaced
    if cap is not None:
        _assert_records_are_the_oracle_s(cap, tmp_path / "as_is.jsonl")
    return cap


def _replace(line: str, old: str, new: str) -> str:
    assert old in line
    return line.replace(old, new, 1)


BASE = _compact(1250.5, 3, 55, frames=[(4, 1200, 1250.5)])
# (case, line, whether it loads as a record)
DIFFERENTIAL_CASES = [
    ("canonical", BASE, True),
    ("minus-zero-int-wall", _replace(BASE, "1250.5,", "-0,"), True),
    ("minus-zero-float-wall", _replace(BASE, "1250.5,", "-0.0,"), True),
    ("minus-zero-arrival", _replace(BASE, ":1250.5}", ":-0.0}"), True),
    ("int-wall", _replace(BASE, "1250.5,", "1250,"), True),
    # the payload column is uint16 (the value rule), so these three no
    # longer fit it
    ("18-digit-int", _replace(BASE, ':55,', ':999999999999999999,'), False),
    ("19-digit-int", _replace(BASE, ':55,', ':1000000000000000000,'), False),
    ("20-digit-int", _replace(BASE, ':55,', ':10000000000000000000,'), False),
    ("2**63", _replace(BASE, ':55,', f':{2**63},'), False),
    ("2**63-1", _replace(BASE, ':55,', f':{2**63 - 1},'), False),
    ("18-digit-int-wall", _replace(BASE, "1250.5,", "123456789012345678,"), True),
    ("19-digit-int-wall", _replace(BASE, "1250.5,", "1234567890123456789,"), True),
    ("301-digit-float", _replace(BASE, "1250.5,", "9" * 301 + ".5,"), True),
    ("302-digit-float", _replace(BASE, "1250.5,", "9" * 302 + ".5,"), True),
    ("400-digit-float", _replace(BASE, "1250.5,", "1" * 400 + ".5,"), False),
    ("long-fraction", _replace(BASE, "1250.5,", "0." + "0" * 400 + "1,"), True),
    ("exponent-1e5", _replace(BASE, "1250.5,", "1e5,"), True),
    ("exponent-1.0E+2", _replace(BASE, ":1250.5}", ":1.0E+2}"), True),
    ("NaN-wall", _replace(BASE, "1250.5,", "NaN,"), False),
    ("Infinity-arrival", _replace(BASE, ":1250.5}", ":Infinity}"), False),
    ("float-payload", _replace(BASE, ':55,', ':55.0,'), False),
    ("empty-frame-list", _replace(BASE, '[{"frame_seq":4,"frame_timestamp":1200,"arrival_time_of_last_byte":1250.5}]', "[]"), True),
    ("two-entries", _compact(1250.5, 3, 110, frames=[(4, 1200, 1250.5), (5, 1300, 1250.5)]), True),
    ("null-wall", _compact(None, 3, 55, cls="RTO_RETX"), True),
    ("null-device", dcs.dumps(dcs.CaptureRecord(1250.5, None, "UPLINK", (0, 55), 55, 0, "FIRST", None).to_json()), True),
    ("escaped-direction", _replace(BASE, '"UPLINK"', '"UP\\u004cINK"'), True),
    ("escaped-quote", _replace(BASE, '"UPLINK"', '"UP\\"LINK"'), False),
    ("non-ascii-direction", _replace(BASE, '"UPLINK"', '"ÜPLINK "'), False),
    # a raw U+2028 and U+0085, at which str.splitlines() splits too
    ("raw-separators-in-direction", _replace(BASE, '"UPLINK"', '"UP\u2028LI\x85NK"'), False),
    ("raw-separators-in-extra-key", _replace(BASE, "{", '{"note":"Ü\u2028x\x85",'), True),
    ("missing-header-bytes", _replace(BASE, '"header_bytes":40,', ""), False),
    ("missing-seq-range", _replace(BASE, '"seq_range":[0,55],', ""), True),
    ("extra-key", _replace(BASE, "{", '{"note":"x",'), True),
    ("reordered-keys", json.dumps(dict(reversed(json.loads(BASE).items())), separators=(",", ":")), True),
    ("duplicate-key", _replace(BASE, "{", '{"payload_bytes":7,'), True),
    ("padded", "  \t" + BASE + " ", True),
    ("unhashable-device", _replace(BASE, '"device_id":3', '"device_id":[3]'), False),
    ("bool-device", _replace(BASE, '"device_id":3', '"device_id":true'), False),
    ("16-bit-device", _replace(BASE, '"device_id":3', '"device_id":65535'), True),
    ("17-bit-device", _replace(BASE, '"device_id":3', '"device_id":65536'), False),
    ("null-device-with-frames", _replace(BASE, '"device_id":3', '"device_id":null'), False),
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
    """Record lines as the capture writers write them, and edge cases of
    them: any line json accepts loads exactly as its re-encoding with
    json's default spacing."""

    @pytest.mark.parametrize("case,line,kept", DIFFERENTIAL_CASES, ids=[c[0] for c in DIFFERENTIAL_CASES])
    def test_line_loads_as_its_json_reencoding(self, case, line, kept, tmp_path):
        # the line sits between two pairs of compact lines
        before = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), _compact(2.5, 2, 0, direction="ACK", cls="FAST_RETX")]
        after = [_compact(3.5, 8, 55, frames=[(2, 1000, 3.5)]), _compact(None, 1, 55)]
        json.loads(line)  # every case is valid JSON
        cap = _differential(tmp_path, [*before, line, *after])
        assert cap.skipped_lines == (0 if kept else 1)
        assert cap.counts["records"] == 4 + kept

    @pytest.mark.parametrize("line", NOT_JSON)
    def test_line_that_is_not_a_record_is_skipped_and_counted(self, line, tmp_path):
        lines = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), line, _compact(2.5, 2, 55)]
        cap = _differential(tmp_path, lines)
        assert cap.skipped_lines == 1
        assert cap.counts["records"] == 2
        assert cap.slot_table().devices == [1, 2]

    @pytest.mark.parametrize("other", ["true", "1.0"])
    def test_report_does_not_depend_on_where_an_id_outside_the_rule_sits(self, other, tmp_path, capsys, caplog):
        # a line whose id equals 1 without being the int 1, before or
        # after a line of device 1: either way it is one skipped line
        one = _compact(1.5, 1, 55, frames=[(1, 0, 1.5)])
        bad = _replace(_compact(2.5, 1, 55, frames=[(2, 100, 2.5)]), '"device_id":1', f'"device_id":{other}')
        outputs = []
        for name, lines in [("before", [bad, one]), ("after", [one, bad])]:
            path = _write(tmp_path / f"{name}.jsonl", lines)
            caplog.clear()
            assert cli.main(["report", str(path), "--allow-incomplete"]) == 0
            out, err = capsys.readouterr()
            assert caplog.messages == [f"{path}: skipped 1 corrupt lines"]
            assert "corrupt" not in err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[-1].split()[0] == "1"

    def test_blank_lines_and_crlf_line_ends(self, tmp_path):
        lines = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), "", "   ", _compact(None, 2, 55)]
        plain = load_capture(_write(tmp_path / "plain.jsonl", [line for line in lines if line.strip()]))
        with pytest.MonkeyPatch.context() as monkeypatch:
            decode = _CountingDecode(monkeypatch)
            crlf = load_capture(_write(tmp_path / "crlf.jsonl", lines, end="\r\n"))
        assert _state(crlf) == _state(plain)
        assert decode.calls == 4  # blank lines never reach json
        assert crlf.skipped_lines == 0

    def test_last_line_without_newline(self, tmp_path):
        lines = [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), _compact(2.5, 1, 55, frames=[(2, 100, 2.5)])]
        path = tmp_path / "cut.jsonl"
        path.write_text("\n".join([HEADER_LINE, *lines]))
        cap = load_capture(path)
        assert _frame_rows(cap) == [(1, 1, 0, 1.5), (1, 2, 100, 2.5)]
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
                # frames a copy completes arrive at its wall time; a dropped copy completes none
                rows = [dcs.MeasurementRow(dev, seq, ts, wall, 50.0, 1.0, 0.0, 0) for seq, ts, _ in entries]
                lines.append(dcs.capture_line(_json_number(wall), dev, direction, 0, 1, payload, 40, cls,
                                              rows if wall is not None else None))
                continue
            complete = [dcs.frame_complete_entry(dcs.MeasurementRow(dev, *e, 50.0, 1.0, 0.0, 0)) for e in entries]
            record = dcs.CaptureRecord(wall, dev, direction, (0, 1), payload, 0, cls, complete or None)
            line = dcs.dumps(record.to_json())
            lines.append(line if form == "to_json" else _spaced(line))
        _differential(tmp_path_factory.mktemp("mixed"), lines)

    def test_multi_block_capture_loads_as_its_json_reencoding(self, tmp_path):
        result = run_simulation(dataclasses.replace(load_scenario("lossy_0p3"), duration_s=60), tmp_path / "run")
        lines = result.capture_path.read_text().splitlines()[1:-1]
        assert sum(map(len, lines)) > 4 * analyzer._BLOCK_BYTES
        cap = _differential(tmp_path, lines)
        assert cap.counts["records"] == len(lines)


# OUTAGE: a concentrator outage, RSTs and redials
@pytest.mark.parametrize("name", ["lossless", "lossy_0p3", "outage", "paper_like"])
def test_simulated_capture_loads_every_line(name, tmp_path):
    if name == "outage":
        scenario = parse_scenario(OUTAGE)
    else:
        scenario = dataclasses.replace(load_scenario(name), duration_s=60)
    result = run_simulation(scenario, tmp_path)
    cap = load_capture(result.capture_path)
    assert cap.skipped_lines == 0
    assert cap.integrity_problems() == []
    if name in ("lossy_0p3", "paper_like"):
        # dropped copies (null wall times), both retransmission classes
        # and frame_complete lists of several entries
        assert cap.counts["dropped_copies"] > 0
        assert {record[5] for record in _record_rows(result.capture_path)} == set(analyzer.CLASSES)
        assert set(analyzer._uplink_wire_bytes(cap.slot_table().wire_bytes)) == set(analyzer.CLASSES)
        assert "},{" in result.capture_path.read_text()


@pytest.mark.parametrize("name", [*builtin_scenarios(), "outage", "jittery"])
def test_uplink_half_of_the_table_is_the_oracle_s_fold(name, tmp_path):
    # every bundled scenario cut to 30 s, a concentrator outage, and
    # uplink loss with jitter and split frames
    if name in ("outage", "jittery"):
        scenario = parse_scenario({"outage": OUTAGE, "jittery": JITTERY}[name])
    else:
        scenario = dataclasses.replace(load_scenario(name), duration_s=30)
    path = run_simulation(scenario, tmp_path).capture_path
    for cap in (load_capture(path), load_capture(path)):  # cold, then warm
        _assert_records_are_the_oracle_s(cap, path)
        series, wire_bytes = _uplink_half(cap)
        assert all(any(row) for row in series.values()) and wire_bytes


def test_live_capture_with_a_far_future_wall_time_is_refused_in_little_memory(tmp_path):
    # without a duration a row grows as windows appear, but not to a
    # window 10**12 s past the epoch: the capture is refused as the slot
    # table it would need is too large
    records = [oracle_logs._rec(110.5, 1, 55, complete=oracle_logs._done(1, 100, 110.5)),
               oracle_logs._rec(1e15, 2, 55)]
    path = oracle_logs.write_log(tmp_path / "live.jsonl", oracle_logs._header(duration_s=None), records)
    tracemalloc.start()
    try:
        with pytest.raises(CaptureError) as err:
            load_capture(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        f"{path}: {10**12 + 1} 1-second slots for 2 device ids is more than "
        f"{analyzer.MAX_SERIES_VALUES} slot table values"
    )
    assert peak < 1 << 20


def test_live_capture_loads_its_records_and_frames(tmp_path):
    # as the live concentrator writes it: no header bytes, and no device
    # id until the connection's first frame is whole
    def record(wall, dev, start, size, rows):
        complete = [dcs.frame_complete_entry(row) for row in rows] or None
        return dcs.CaptureRecord(wall, dev, "UPLINK", (start, start + size), size, 0, "FIRST", complete).to_json()

    rows = [dcs.MeasurementRow(3, seq, 1000 * seq, 1000 * seq + 0.25, 50.0, 1.0, 0.0, 0) for seq in range(1, 4)]
    lines = [
        {"header": oracle_logs._header(duration_s=None)},
        record(1000.0, None, 0, 20, []),
        record(1000.25, 3, 20, 35, rows[:1]),
        record(3000.25, 3, 55, 110, rows[1:]),
        {"integrity": {"records": 3}},
    ]
    path = tmp_path / "live.jsonl"
    path.write_text("".join(dcs.dumps(line) + "\n" for line in lines))
    cap = load_capture(path)
    assert _record_rows(path) == [(1000.0, None, "UPLINK", 20, 0, "FIRST"), (1000.25, 3, "UPLINK", 35, 0, "FIRST"),
                                  (3000.25, 3, "UPLINK", 110, 0, "FIRST")]
    _assert_records_are_the_oracle_s(cap, path)
    assert _frame_rows(cap) == [(3, 1, 1000, 1000.25), (3, 2, 2000, 2000.25), (3, 3, 3000, 3000.25)]
    assert cap.slot_table().devices == [3]


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
        write_throughput_series_csv(throughput_series(cap), tp_csv)
        assert tp_csv.read_text().splitlines() == [
            "device,window_start_s,kbit_per_s",
            "1,0,3.000",
            "1,1,0.000",
            "1,2,0.000",
        ]

    @pytest.mark.parametrize("dev,seq", [(1, 2), (0, 0), (65535, 2**63 - 1)])
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

    def test_streamed_delay_csv_equals_the_listed_one(self, tmp_path):
        records = [
            oracle_logs._rec(110.5, 65535, 85, complete=oracle_logs._done(1, 100, 110.5)),
            oracle_logs._rec(120.5, 0, 85, complete=oracle_logs._done(2, 100, 120.5) + oracle_logs._done(1, 50, 120.5)),
        ]
        cap = load_capture(oracle_logs.write_log(tmp_path / "ids.jsonl", oracle_logs._header(duration_s=1), records))
        streamed, listed = tmp_path / "streamed.csv", tmp_path / "listed.csv"
        write_delay_series_csv(analyzer.delay_rows(cap), streamed)
        write_delay_series_csv(one_way_delays(cap), listed)
        assert streamed.read_bytes() == listed.read_bytes()
        assert [line.split(",")[:2] for line in streamed.read_text().splitlines()[1:]] == [
            ["0", "1"], ["0", "2"], ["65535", "1"]
        ]

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


# -- slot table -----------------------------------------------------------------


def _fold_over_frames(cap, path, sample_indices=None, t_fdr_ms=None) -> tuple:
    """The summary of ``cap``, loaded from ``path``, as a fold over its
    frame columns and the oracle's records, the way summarize computed it
    before the slot table: the reference the table is held to."""
    population = cap.population_slots()
    series, by_class = oracle_records.uplink_half(oracle_records.read(path), population)
    slots = range(population) if sample_indices is None else set(sample_indices)
    t_fdr = cap.t_fdr_ms if t_fdr_ms is None else t_fdr_ms
    flag_below = -cap.skew_bound_ms
    delays, flagged = {}, 0
    for dev, _, stamps, arrivals in cap.device_frames():
        kept = []
        for ts, arrival in zip(stamps, arrivals):
            t_ci = arrival - (ts + t_fdr)
            if t_ci < flag_below:
                flagged += 1
            elif analyzer._slot_of_timestamp(ts, cap.epoch_utc_ms) in slots:
                kept.append(t_ci)
        delays[dev] = kept
    rows = []
    for dev, values in series.items():
        kept = delays.get(dev)
        rows.append((
            dev,
            statistics.fmean(values[i] for i in slots) if population else 0.0,
            statistics.fmean(kept) if kept else math.nan,
            max(kept) if kept else math.nan,
            *analyzer._retx_pcts(by_class[dev]),
        ))
    return _packed((rows, population, len(slots), sum(map(len, delays.values())), flagged))


def _packed(value):
    """``value`` with every float replaced by its bytes, so -0.0 and NaN
    compare bit for bit."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (list, tuple)):
        return type(value)(map(_packed, value))
    return value


def _from_table(cap, sample_indices=None, t_fdr_ms=None) -> tuple:
    summary = summarize(cap, sample_indices, t_fdr_ms)
    rows = [(m.device, m.avg_throughput_kbps, m.avg_delay_ms, m.max_delay_ms, m.retx_pct, m.fast_retx_pct)
            for m in summary.devices]
    assert [m.wasted_bw_pct for m in summary.devices] == [m.retx_pct + m.fast_retx_pct for m in summary.devices]
    return _packed((rows, summary.population_slots, summary.selected_slots, summary.frames_counted,
                    summary.flagged_delays))


def _frames_capture(path, frames, duration_s=3, epoch=0, skew=0.0, t_fdr=0.0):
    """A capture of one delivered copy per (device, frame_seq,
    frame_timestamp, arrival), in the order given."""
    records = [
        oracle_logs._rec(1.0 + abs(ts % 7), dev, 85, complete=oracle_logs._done(seq, ts, arrival))
        for dev, seq, ts, arrival in frames
    ]
    header = oracle_logs._header(duration_s=duration_s, epoch=epoch, skew=skew, t_fdr=t_fdr)
    if duration_s is None:
        del header["duration_s"]
    return oracle_logs.write_log(path, header, records)


def _all_slot_sets(population):
    return [None, [], *([k] for k in range(population)), list(range(0, population, 2)), list(range(population))]


def _assert_table_is_the_fold(path, t_fdr_values=(None,), slot_sets=None):
    """Cold and warm loads of ``path`` summarize every slot set as the
    fold over its frames does, bit for bit."""
    _cache_of(path).unlink(missing_ok=True)
    for cap in (load_capture(path), load_capture(path)):
        population = cap.population_slots()
        for t_fdr_ms in t_fdr_values:
            for slots in slot_sets or _all_slot_sets(population):
                if slots == [] and population:
                    with pytest.raises(ValueError, match=f"^an empty sample of the {population} slots has no average$"):
                        summarize(cap, slots, t_fdr_ms)
                    continue
                assert _from_table(cap, slots, t_fdr_ms) == _fold_over_frames(cap, path, slots, t_fdr_ms)
    assert cap.slot_table() is not None


class TestSlotTable:
    def test_bundled_captures_summarize_as_their_frames(self, analyzer_captures):
        for path, _ in analyzer_captures.values():
            cap = load_capture(path)
            population = cap.population_slots()
            draws = [random.Random(k).sample(range(population), population // (k + 2)) for k in range(4)]
            for t_fdr_ms in (None, 1.5):
                for slots in [None, *draws]:
                    assert _from_table(cap, slots, t_fdr_ms) == _fold_over_frames(cap, path, slots, t_fdr_ms)

    def test_slots_without_frames_or_with_only_flagged_ones(self, tmp_path):
        # slot 0: none; slot 1: two flagged; slot 2: one flagged, one kept
        frames = [(1, 1, 1500, 1490.0), (1, 2, 1600, 1580.0), (1, 3, 2500, 2490.0), (1, 4, 2600, 2612.5),
                  (2, 1, 1500, 1400.0)]
        _assert_table_is_the_fold(_frames_capture(tmp_path / "c.jsonl", frames, skew=5.0), (None, -30.0))

    def test_frames_outside_the_population(self, tmp_path):
        # slot -1 (a timestamp on the epoch), slot 3 and slot 40 of 3
        frames = [(1, 1, 0, 10.0), (1, 2, 500, 512.5), (1, 3, 3500, 3520.0), (1, 4, 40100, 40110.0)]
        _assert_table_is_the_fold(_frames_capture(tmp_path / "c.jsonl", frames), (None, 2.5))

    def test_live_capture_without_a_duration(self, tmp_path):
        frames = [(0, 1, 1000, 1000.25), (3, 1, 2000, 2000.75), (3, 2, 4500, 4501.5)]
        path = _frames_capture(tmp_path / "c.jsonl", frames, duration_s=None)
        assert load_capture(path).population_slots() == 5
        _assert_table_is_the_fold(path, (None, 0.5))

    def test_an_arrival_of_minus_zero_loads_as_zero(self, tmp_path):
        # with the epoch 1 s back, timestamp 0 falls in slot 0, and each
        # -0.0 arrival there is a zero delay
        frames = [(1, 1, 1000, 1000.0), (1, 2, 0, -0.0), (2, 1, 0, -0.0)]
        path = _frames_capture(tmp_path / "c.jsonl", frames, epoch=-1000)
        assert path.read_text().count('"arrival_time_of_last_byte": -0.0') == 2
        _assert_table_is_the_fold(path)
        _cache_of(path).unlink()
        for cap in (load_capture(path), load_capture(path)):  # cold, then warm
            assert _packed([arrival for *_, arrival in _frame_rows(cap)]) == _packed([1000.0, 0.0, 0.0])
            maxima = [m.max_delay_ms for m in summarize(cap).devices]
            assert _packed(maxima) == _packed([0.0, 0.0])
            out = tmp_path / "delay_series.csv"
            write_delay_series_csv(analyzer.delay_rows(cap), out)
            assert out.read_text().splitlines()[2:] == ["1,2,0,0.000,0.000,0.000,0", "2,1,0,0.000,0.000,0.000,0"]

    def test_device_with_records_but_no_frames(self, tmp_path):
        # device 2 only acknowledges: it has a table row, without frames
        lines = [_compact(112.5, 1, 55, frames=[(1, 100, 112.5)]), _compact(2.5, 2, 0, direction="ACK")]
        path = _write(tmp_path / "c.jsonl", lines)
        _assert_table_is_the_fold(path, (None, 2.5))
        _cache_of(path).unlink()
        for cap in (load_capture(path), load_capture(path)):  # cold, then warm
            for table in (cap.slot_table(), cap.slot_table(2.5)):
                assert (table.devices, table.counts.tolist()) == ([1, 2], [1, 0])
            assert cap.slot_table().tops.tolist() == [12.5, 0.0]
            one, two = summarize(cap).devices
            assert (one.device, one.avg_delay_ms, one.max_delay_ms) == (1, 12.5, 12.5)
            assert two.device == 2 and math.isnan(two.avg_delay_ms) and math.isnan(two.max_delay_ms)

    def test_slot_sums_that_round(self, tmp_path):
        # each slot's delays sum to a double only after rounding (1e16 + 1
        # is a tie, and 1e16 has a spacing of 2), and the rounded slot
        # sums, naive or exact, add up to another double than the frames
        # do (3e16 + 4); the skew bound keeps -1e16 unflagged
        delays = [[1e16, 1.0], [1e16, 1.0], [1e16, 1.0], [1.0, 1e16, -1e16]]
        frames = [(1, 10 * slot + k, 1000 * slot + 100 * (k + 1), 1000 * slot + 100 * (k + 1) + delay)
                  for slot, values in enumerate(delays) for k, delay in enumerate(values)]
        path = _frames_capture(tmp_path / "c.jsonl", frames, duration_s=len(delays), skew=1e17)
        cap = load_capture(path)
        t_ci = [d.t_ci_ms for d in one_way_delays(cap)]
        by_slot = [t_ci[k:k + n] for k, n in zip(accumulate([0, *map(len, delays)]), map(len, delays))]
        assert math.fsum(map(sum, by_slot)) != math.fsum(t_ci)
        assert math.fsum(map(math.fsum, by_slot)) != math.fsum(t_ci)
        _assert_table_is_the_fold(path, (None, 0.25))

    @settings(max_examples=150, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3]),
                st.integers(-1500, 5500),
                st.one_of(
                    st.floats(-1e6, 1e6, allow_nan=False),
                    st.floats(-1e300, 1e300, allow_nan=False),
                    # None: an arrival of exactly -0.0, which ts + delay never is
                    st.sampled_from([0.0, -0.0, None, math.nan, math.inf, -math.inf, 2**-1074, 1e-300]),
                ),
            ),
            max_size=40,
        ),
        # an in-range bound that flags only delays below -2**62
        skew=st.sampled_from([0.0, 5.0, 2.0**62]),
        t_fdr=st.sampled_from([None, 0.0, 1.5, -3.25]),
        draws=st.lists(st.sets(st.integers(0, 4), min_size=1), min_size=1, max_size=4),
    )
    def test_hypothesis_drawn_frames_and_sample_sets(self, frames, skew, t_fdr, draws, tmp_path_factory):
        entries = [(dev, seq, ts, -0.0 if delay is None else ts + delay) for seq, (dev, ts, delay) in enumerate(frames)]
        path = _frames_capture(tmp_path_factory.mktemp("drawn") / "c.jsonl", entries, duration_s=5, skew=skew)
        for cap in (load_capture(path), load_capture(path)):
            # NaN, infinite and 1e300-sized arrivals are skipped lines, and -0.0 reads as 0.0
            assert all(math.isfinite(arrival) for *_, arrival in _frame_rows(cap))
            assert _packed(-0.0) not in {_packed(arrival) for *_, arrival in _frame_rows(cap)}
            for slots in [None, *map(sorted, draws)]:
                assert _from_table(cap, slots, t_fdr) == _fold_over_frames(cap, path, slots, t_fdr)


@pytest.mark.parametrize(
    "arrivals", [[1e308, 1e308], [1e308, math.inf, 1e308], [math.inf, 1e308, 1e308], [1e308, 1e308, math.inf]],
    ids=["finite", "inf-between", "inf-first", "inf-last"],
)
def test_arrivals_whose_delays_summed_past_the_largest_float_are_skipped(arrivals, tmp_path):
    frames = [(1, seq, 100 * seq, arrival) for seq, arrival in enumerate(arrivals, 1)]
    cap = load_capture(_frames_capture(tmp_path / "c.jsonl", [*frames, (1, 9, 500, 512.5)]))
    assert cap.skipped_lines == len(arrivals)
    assert _frame_rows(cap) == [(1, 9, 500, 512.5)]
    (m,) = summarize(cap).devices
    assert m.avg_delay_ms == m.max_delay_ms == 12.5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e300, 2**63, -2**63, "1"])
def test_processing_time_that_breaks_the_value_rule_is_a_value_error(value, tmp_path):
    path, _ = oracle_logs.simple_delays(tmp_path / "c.jsonl")
    cap = load_capture(path)
    # delay_rows returns an iterator: it raises at the call, before any row
    calls = [
        *(partial(f, cap, t_fdr_ms=value) for f in (summarize, one_way_delays, analyzer.delay_rows)),
        *(partial(f, cap, t_dcs_ms=value) for f in (one_way_delays, analyzer.delay_rows)),
        partial(cap.slot_table, value),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be a finite number of magnitude below 2\\*\\*63"):
            call()
    # the largest doubles the rule keeps
    limit = math.nextafter(2.0**63, 0)
    assert len(one_way_delays(cap, t_fdr_ms=-limit, t_dcs_ms=limit)) == 3


# -- column cache ---------------------------------------------------------------


def _cache_of(path):
    return path.with_name(path.name + ".columns")


def _no_parse(*args):
    raise AssertionError("parsed a capture, or read columns, where the cache's table should have served")


def _cold(path) -> tuple:
    """_state of a load with no cache beside the capture; the load leaves one."""
    _cache_of(path).unlink(missing_ok=True)
    state = _state(load_capture(path))
    assert _cache_of(path).exists()
    return state


def _warm(path) -> tuple:
    """_state of a load that must read the cache, not parse."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(analyzer, "_Parser", _no_parse)
        return _state(load_capture(path))


@pytest.mark.parametrize("name", ["lossless", "lossy_0p3", "paper_like", "outage"])
def test_warm_load_equals_cold_load(name, tmp_path):
    if name == "outage":
        scenario = parse_scenario(OUTAGE)
    else:
        scenario = dataclasses.replace(load_scenario(name), duration_s=60)
    path = run_simulation(scenario, tmp_path).capture_path
    cold = _cold(path)
    assert _warm(path) == cold


def _skipped_lines_capture(path):
    path, _ = oracle_logs.simple_delays(path)
    lines = path.read_text().splitlines()
    lines[2:2] = ["{not json", '{"direction":"UPLINK"}']
    path.write_text("\n".join(lines) + "\n")
    return path


def _null_device_capture(path):
    # as a live concentrator writes it: records under a null id until a
    # connection's first frame is whole, then under the frame's id
    lines = [_compact(1000.25, None, 20), _compact(1000.5, 3, 35, frames=[(1, 1000, 1000.5)]),
             _compact(2000.5, None, 0), _compact(None, 3, 55, cls="RTO_RETX"),
             _compact(3000.5, 3, 55, frames=[(2, 2000, 3000.5)])]
    return _write(path, lines)


def _json_ids_capture(path):
    # ids at both ends of the 16-bit range, and header values JSON spells
    # in its own way: NaN, Infinity, -0.0, a big int, a line separator
    header = dict(oracle_logs._header(duration_s=2), nan=math.nan, inf=math.inf, zero=-0.0, big=2**70, text="Ü\u2028")
    ids = [65535, 0, 7]
    records = [
        oracle_logs._rec(110.5 + k, dev, 85, complete=oracle_logs._done(k, 100, 110.5 + k)) for k, dev in enumerate(ids)
    ]
    records.append(oracle_logs._rec(None, ids[0], 85, cls="RTO_RETX"))
    return oracle_logs.write_log(path, header, records)


def _number_ids_capture(path):
    # ids in descending file order
    records = [oracle_logs._rec(110.5, dev, 85, complete=oracle_logs._done(1, 100, 110.5)) for dev in (65535, 1, 0)]
    return oracle_logs.write_log(path, oracle_logs._header(duration_s=1), records)


@pytest.mark.parametrize(
    "build", [_skipped_lines_capture, _null_device_capture, _json_ids_capture, _number_ids_capture],
    ids=lambda build: build.__name__.strip("_"),
)
def test_warm_load_of_a_hand_built_capture_equals_cold_load(build, tmp_path):
    path = build(tmp_path / "c.jsonl")
    cold = _cold(path)
    assert _warm(path) == cold


def test_warm_load_still_warns_of_skipped_lines(tmp_path, caplog):
    path = _skipped_lines_capture(tmp_path / "c.jsonl")
    _cold(path)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="wamsbench.analyzer"):
        _warm(path)
    assert caplog.messages == [f"{path}: skipped 2 corrupt lines"]


def _two_device_capture(path):
    return _write(path, [_compact(1.5, 1, 55, frames=[(1, 0, 1.5)]), _compact(2.5, 2, 55, frames=[(1, 0, 2.5)])])


def _wait_past_ctime(*paths):
    """Return once a file touched now gets an mtime past the ctime of
    every one of ``paths``, so a cache written next is not racy."""
    probe = paths[0].with_name("probe")
    probe.touch()
    ctime = max(path.stat().st_ctime_ns for path in paths)
    deadline = time.monotonic() + 10.0
    while probe.stat().st_mtime_ns <= ctime:
        assert time.monotonic() < deadline, "the file clock did not advance"
        time.sleep(0.001)
        os.utime(probe)
    probe.unlink()


def _cached(path) -> tuple:
    """_cold, with a cache that is not racy: a warm load of the same
    capture trusts its identity and parses nothing."""
    _wait_past_ctime(path)
    state = _cold(path)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(analyzer, "_parse", _no_parse)
        assert _warm(path) == state
    return state


def _edit(path):
    """Rewrite the capture at ``path`` in place, at the same size: device
    2's copy moves past the run's one window, so its rate changes."""
    path.write_text(_replace(path.read_text(), '"wall_time":2.5', '"wall_time":2e3'))


def test_capture_edited_in_place_is_reparsed_and_recached(tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    before = _cached(path)
    cached = _cache_of(path).read_bytes()
    stat = path.stat()
    _edit(path)
    # same size and modification time: the ctime tells
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    after = _state(load_capture(path))
    assert after != before
    assert _cache_of(path).read_bytes() != cached
    assert _warm(path) == after == _cold(path)


def _identity_of(path) -> list:
    st = path.stat()
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _same_size_edit(tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    _cached(path)
    _edit(path)
    return path


def _rename_over(tmp_path):
    # a file of the same size and mtime renamed over the capture
    path, other = _two_device_capture(tmp_path / "c.jsonl"), _two_device_capture(tmp_path / "other")
    _edit(other)
    os.utime(other, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns))
    _wait_past_ctime(other)
    _cached(path)
    os.replace(other, path)
    return path


def _copy_with_its_cache(tmp_path):
    # a new inode, the timestamps kept, and the cache copied along: the
    # identity differs, so the copy is parsed and cached anew
    source = _two_device_capture(tmp_path / "c.jsonl")
    _cached(source)
    path = tmp_path / "copy.jsonl"
    shutil.copy2(source, path)
    shutil.copy2(_cache_of(source), _cache_of(path))
    return path


def _another_captures_cache(tmp_path):
    # two captures of one size and mtime: the inode and ctime tell them
    # apart, and the cache copied over is newer than both
    source, path = _two_device_capture(tmp_path / "c.jsonl"), _two_device_capture(tmp_path / "d.jsonl")
    _edit(path)
    os.utime(path, ns=(source.stat().st_atime_ns, source.stat().st_mtime_ns))
    _wait_past_ctime(source, path)
    _cold(source)
    shutil.copyfile(_cache_of(source), _cache_of(path))
    return path


def _racy_cache(tmp_path):
    # a same-size rewrite within the timestamp tick of the cache's
    # writing: the identity recorded is the rewritten capture's, and the
    # cache's mtime is not after the capture's ctime
    path = _two_device_capture(tmp_path / "c.jsonl")
    _cold(path)
    _edit(path)
    identity = _identity_of(path)
    _cache_of(path).write_bytes(_edit_meta(lambda meta: meta.update(identity=identity))(_cache_of(path).read_bytes()))
    os.utime(_cache_of(path), ns=(identity[4], identity[4]))
    return path


STALE_CACHES = {
    "same-size-edit": _same_size_edit,
    "rename-over": _rename_over,
    "copy-with-its-cache": _copy_with_its_cache,
    "another-captures-cache": _another_captures_cache,
    "racy": _racy_cache,
}


@pytest.mark.parametrize("case", sorted(STALE_CACHES))
def test_cache_whose_identity_cannot_be_trusted_is_reparsed(case, tmp_path, monkeypatch):
    path = STALE_CACHES[case](tmp_path)
    parses = _counting(monkeypatch, "_parse")
    state = _state(load_capture(path))
    assert parses == ["_parse"]
    monkeypatch.undo()
    assert state == _cold(path)


def _counting(monkeypatch, name) -> list:
    """Count the calls of analyzer.``name``; returns the list each call
    appends to."""
    calls, real = [], getattr(analyzer, name)

    def call(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(analyzer, name, call)
    return calls


def test_capture_copied_with_its_cache_is_parsed_once_then_warm(tmp_path, monkeypatch):
    path = _copy_with_its_cache(tmp_path)
    _wait_past_ctime(path)
    parses = _counting(monkeypatch, "_parse")
    states = [_state(load_capture(path)) for _ in range(3)]
    assert parses == ["_parse"]
    assert json.loads(_cache_of(path).read_bytes().split(b"\n", 1)[0])["identity"] == _identity_of(path)
    monkeypatch.undo()
    assert states == [_cold(path)] * 3


def test_capture_that_changes_during_the_parse_is_not_cached(tmp_path, monkeypatch):
    path = _two_device_capture(tmp_path / "c.jsonl")
    parse = analyzer._parse

    def growing(*args):
        with open(path, "a") as fh:
            fh.write(_compact(4.5, 1, 55) + "\n")
        return parse(*args)

    monkeypatch.setattr(analyzer, "_parse", growing)
    state = _state(load_capture(path))
    assert not _cache_of(path).exists()
    monkeypatch.undo()
    assert state == _cold(path)


# the CRC-32 that ends each cache section
_CHECK = 4


def _crc32(data: bytes) -> bytes:
    return zlib.crc32(data).to_bytes(_CHECK, "little")


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _sections(data: bytes) -> list:
    """A cache's JSON line, then its table and device sections, each
    section without the check that ends it."""
    line, rest = data.split(b"\n", 1)
    meta = json.loads(line)
    columns = meta["table"]["columns"], *(meta["columns"][k:k + 3] for k in range(0, len(meta["columns"]), 3))
    parts = [line + b"\n"]
    for section in columns:
        size = sum(length * itemsize for _, itemsize, length in section)
        parts.append(rest[:size])
        rest = rest[size + _CHECK:]
    return parts


def _edit_meta(edit, sign=_crc32):
    """A mangler that applies ``edit`` to a cache's JSON line and, with a
    ``sign`` function, ends each section with ``sign`` of the new JSON
    line and the section, as a writer of that JSON would have; with None
    the sections keep their checks."""

    def mangle(data: bytes) -> bytes:
        line, *sections = _sections(data)
        meta = json.loads(line)
        edit(meta)
        head = json.dumps(meta).encode() + b"\n"
        if sign is None:
            return head + data[len(line):]
        return head + b"".join(section + sign(head + section) for section in sections)

    return mangle


def _section_start(data: bytes, section: int) -> int:
    """Where section ``section`` of a cache starts: 1 the table, 2 the
    first device's frames, -1 the last device's."""
    parts = _sections(data)
    section %= len(parts)
    return len(parts[0]) + sum(len(part) + _CHECK for part in parts[1:section])


def _flip_byte(section: int):
    """A mangler that flips a bit of the first byte of a section, as
    _section_start numbers them."""

    def mangle(data: bytes) -> bytes:
        at = _section_start(data, section)
        return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]

    return mangle


def _set_length(column: int, change: int):
    def edit(meta):
        meta["columns"][column][2] += change

    return edit


def _shift_lengths(meta):
    # two 4-byte frame_seqs more, one 8-byte timestamp fewer: the same
    # bytes, cut elsewhere
    _set_length(0, 2)(meta)
    _set_length(1, -1)(meta)


def _grow_frames(meta):
    # far past the file: read without a size check, this asks for 20 TiB
    for column in range(3):
        _set_length(column, 2**40)(meta)


def _trade_lengths(meta):
    # 2**40 more of each of the first device's columns, and as many fewer
    # of the last device's (20 B a row each): the same total size, one
    # length negative
    for column in range(3):
        _set_length(column, 2**40)(meta)
    for column in range(len(meta["columns"]) - 3, len(meta["columns"])):
        _set_length(column, -2**40)(meta)


BAD_CACHES = {
    "empty": lambda data: b"",
    "cut-in-its-json": lambda data: data[:20],
    "cut-short": lambda data: data[:-1],
    "trailing-bytes": lambda data: data + b"\0",
    "garbage": lambda data: bytes(range(256)) * 64,
    "not-json": lambda data: b"{not json\n" + data.split(b"\n", 1)[1],
    "json-list": lambda data: b"[1, 2]\n" + data.split(b"\n", 1)[1],
    "json-too-deep": lambda data: b"[" * 100_000 + b"\n",
    "flipped-first-device-byte": _flip_byte(2),
    "flipped-table-byte": _flip_byte(1),
    "flipped-last-device-byte": _flip_byte(-1),
    "cut-in-a-device-section": lambda data: data[:_section_start(data, -1) + 1],
    "edited-header": _edit_meta(lambda meta: meta["header"].update(t_fdr_ms=1.0), sign=None),
    # caches whose checks hold: only their layout tells
    "other-version": _edit_meta(lambda meta: meta.update(version=analyzer.CACHE_VERSION + 1)),
    "version-3": _edit_meta(lambda meta: meta.update(version=3)),
    "version-4": _edit_meta(lambda meta: meta.update(version=4)),
    "version-5": _edit_meta(lambda meta: meta.update(version=5)),
    "other-byte-order": _edit_meta(lambda meta: meta.update(byteorder={"little": "big"}.get(sys.byteorder, "little"))),
    "other-typecode": _edit_meta(lambda meta: meta["columns"][0].__setitem__(0, "f")),
    "other-itemsize": _edit_meta(lambda meta: meta["columns"][1].__setitem__(1, 4)),
    "unequal-lengths": _edit_meta(_shift_lengths),
    "lengths-past-the-file": _edit_meta(_grow_frames),
    "missing-key": _edit_meta(lambda meta: meta.pop("counts")),
    "other-table-typecode": _edit_meta(lambda meta: meta["table"]["columns"][1].__setitem__(0, "d")),
    "table-of-another-population": _edit_meta(lambda meta: meta["table"].update(population=3)),
}


@pytest.mark.parametrize("case", sorted(BAD_CACHES))
def test_bad_cache_is_ignored_and_rewritten(case, tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    state = _cold(path)
    good = _cache_of(path).read_bytes()
    bad = BAD_CACHES[case](good)
    assert bad != good
    _cache_of(path).write_bytes(bad)
    assert _state(load_capture(path)) == state
    assert _cache_of(path).read_bytes() == good


def test_negative_cache_length_is_refused_before_any_column_is_read(tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    cold = load_capture(path)
    good = _cache_of(path).read_bytes()
    bad = _edit_meta(_trade_lengths)(good)
    assert len(bad) - len(bad.split(b"\n", 1)[0]) == len(good) - len(good.split(b"\n", 1)[0])
    _cache_of(path).write_bytes(bad)
    # read with that length, the first device's section would ask for 20 TiB
    assert _frame_rows(load_capture(path)) == _frame_rows(cold)
    assert _cache_of(path).read_bytes() == good


def _as_version_7(meta):
    # version 7 keyed the cache on the capture's SHA-256 alone
    meta.update(version=7)
    del meta["identity"]


def _as_version_9(path, current: bytes) -> bytes:
    # version 9 kept the records, after the table, in a section of six
    # columns: wall time (NaN for null), device (-1 for null), direction
    # and class as places in their tuples, payload and header bytes
    records = oracle_records.read(path).records
    columns = [
        array("d", [math.nan if r.wall_time is None else r.wall_time for r in records]),
        array("i", [-1 if r.device_id is None else r.device_id for r in records]),
        array("B", [analyzer.DIRECTIONS.index(r.direction) for r in records]),
        array("B", [analyzer.CLASSES.index(r.retransmission_class) for r in records]),
        array("H", [r.payload_bytes for r in records]),
        array("H", [r.header_bytes for r in records]),
    ]
    line, table, *frames = _sections(current)
    meta = json.loads(line)
    meta.update(version=9, columns=[[c.typecode, c.itemsize, len(c)] for c in columns] + meta["columns"])
    head = json.dumps(meta).encode() + b"\n"
    sections = [table, b"".join(map(bytes, columns)), *frames]
    return head + b"".join(section + _crc32(head + section) for section in sections)


def _older_cache(version: int, path, current: bytes) -> bytes:
    """The cache ``current`` of the capture at ``path`` as cache
    ``version`` wrote it: version 7 with no identity and a SHA-256 after
    each section, version 8 with the capture's SHA-256 beside its
    identity, to trust a copied or racy cache by, version 9 with a
    section of records."""
    if version == 7:
        older = _edit_meta(_as_version_7, sign=_sha256)(current)
        assert len(older) - len(older.split(b"\n", 1)[0]) == (
            len(current) - len(current.split(b"\n", 1)[0]) + (32 - _CHECK) * (len(_sections(current)) - 1)
        )
        return older
    if version == 9:
        return _as_version_9(path, current)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return _edit_meta(lambda meta: meta.update(version=8, capture_sha256=digest))(current)


@pytest.mark.parametrize("version", [7, 8, 9])
def test_older_cache_is_ignored_and_rewritten_as_the_current_version(version, tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    state = _cached(path)
    current = _cache_of(path).read_bytes()
    # written after the capture's ctime, with its identity: only the
    # version tells the older cache apart
    _cache_of(path).write_bytes(_older_cache(version, path, current))
    assert _state(load_capture(path)) == state
    assert _cache_of(path).read_bytes() == current
    assert json.loads(current.split(b"\n", 1)[0])["version"] == analyzer.CACHE_VERSION == 10


def test_cache_holds_0_bytes_per_record_and_20_per_frame(analyzer_captures, tmp_path):
    path = tmp_path / "capture.jsonl"
    shutil.copyfile(analyzer_captures["lossy_0p3"][0], path)
    cap = load_capture(path)
    data = _cache_of(path).read_bytes()
    meta_line = data.split(b"\n", 1)[0] + b"\n"
    table = sum(itemsize * length for _, itemsize, length in json.loads(meta_line)["table"]["columns"])
    # one check each for the table and every device's frames; the
    # records are folded into the table, whose size does not grow with them
    checks = _CHECK * (1 + len(list(cap.device_frames())))
    assert cap.counts["records"] > len(_frame_rows(cap)) > 0
    assert len(data) == len(meta_line) + table + 20 * len(_frame_rows(cap)) + checks


class _CountingReads:
    """Stands in for analyzer._read_cached_section and lists the frame
    sections a warm load reads: k device k's frames."""

    def __init__(self, monkeypatch):
        self.sections = []
        self.read = analyzer._read_cached_section
        monkeypatch.setattr(analyzer, "_read_cached_section", self)

    def __call__(self, cache, index):
        self.sections.append(index)
        return self.read(cache, index)


def test_warm_summary_reads_no_column(tmp_path, monkeypatch):
    path, _ = oracle_logs.simple_delays(tmp_path / "c.jsonl")
    cold = _cold(path)
    reads = _CountingReads(monkeypatch)
    cap = load_capture(path)
    assert (cap.population_slots(), cap.integrity_problems(), cap.skipped_lines) == (3, [], 0)
    summaries = [summarize(cap), summarize(cap, [0, 2]), summarize(cap, t_fdr_ms=0.0)]
    assert reads.sections == []
    # another t_fdr_ms folds the frames again: the one device's section
    assert summarize(cap, t_fdr_ms=0.5) != summaries[0]
    assert reads.sections == [0]
    # frames reads the device's section again
    assert _state(cap) == cold
    assert reads.sections == [0, 0]


def test_warm_devices_read_no_column(tmp_path, monkeypatch):
    path = _null_device_capture(tmp_path / "c.jsonl")
    assert load_capture(path).slot_table().devices == [3]  # leaves the cache
    monkeypatch.setattr(analyzer, "_Parser", _no_parse)
    monkeypatch.setattr(analyzer, "_read_cached_section", _no_parse)
    assert load_capture(path).slot_table().devices == [3]


def test_warm_uplink_figures_are_the_record_fold_read_from_the_table(analyzer_captures, tmp_path, monkeypatch):
    path = tmp_path / "capture.jsonl"
    shutil.copyfile(analyzer_captures["lossy_0p3"][0], path)
    cold = load_capture(path)  # leaves the cache
    series, by_class = oracle_records.uplink_half(oracle_records.read(path), cold.population_slots())
    retx = analyzer._retx_pcts(analyzer._uplink_wire_bytes(by_class))
    assert min(retx) > 0
    monkeypatch.setattr(analyzer, "_Parser", _no_parse)
    monkeypatch.setattr(analyzer, "_read_cached_section", _no_parse)
    cap = load_capture(path)
    assert throughput_series(cap) == series
    assert analyzer.retransmission_stats(cap) == retx
    assert analyzer.wasted_bandwidth_pct(cap) == retx[0] + retx[1]


def test_report_at_the_header_t_fdr_reads_no_column(analyzer_captures, tmp_path, capsys, monkeypatch):
    source, sample = analyzer_captures["lossy_0p3"]
    path = tmp_path / "capture.jsonl"
    shutil.copyfile(source, path)
    load_capture(path)  # leaves the cache
    good = _cache_of(path).read_bytes()
    # a read of the first device's frames would find this bit flipped,
    # parse and rewrite the cache
    _cache_of(path).write_bytes(_flip_byte(2)(good))
    reads = _CountingReads(monkeypatch)
    report = ["report", str(path), "--sample-size", str(sample), "--sample-seed", test_golden.REPORT_SEED]
    golden = test_golden.ANALYZER_GOLDEN
    for argv, key, sections in [(report, None, []), ([*report, "--t-fdr-ms", "1.5"], "1.5", [0])]:
        assert cli.main(argv) == 0
        got = test_golden._sha(capsys.readouterr().out.encode())
        assert got == golden[("lossy_0p3", key)][3]
        # the parse that replaced the failed section serves the other devices
        assert reads.sections == sections
        assert (_cache_of(path).read_bytes() == good) == bool(sections)


def test_warm_analyze_reads_each_device_section_once_and_no_record(analyzer_captures, tmp_path, monkeypatch):
    source, _ = analyzer_captures["lossy_0p3"]
    path = tmp_path / "capture.jsonl"
    shutil.copyfile(source, path)
    devices = len(list(load_capture(path).device_frames()))  # leaves the cache
    assert devices == 10
    monkeypatch.setattr(analyzer, "_Parser", _no_parse)
    reads = _CountingReads(monkeypatch)
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path)]) == 0
    assert reads.sections == list(range(devices))
    got = tuple(test_golden._sha((tmp_path / file).read_bytes()) for file in test_golden.ANALYZE_FILES)
    assert got == test_golden.ANALYZER_GOLDEN[("lossy_0p3", None)][:3]


def test_warm_analyze_hands_over_to_a_parse_at_a_bad_device_section(analyzer_captures, tmp_path, monkeypatch):
    source, _ = analyzer_captures["lossy_0p3"]
    path = tmp_path / "capture.jsonl"
    shutil.copyfile(source, path)
    load_capture(path)  # leaves the cache
    good = _cache_of(path).read_bytes()
    # section 7 is the sixth device's frames: sections 1 the table, 2 the
    # first device's frames
    _cache_of(path).write_bytes(_flip_byte(7)(good))
    reads = _CountingReads(monkeypatch)
    assert cli.main(["analyze", str(path), "--out-dir", str(tmp_path)]) == 0
    # the sixth read fails its check; the parse serves the other devices
    assert reads.sections == [0, 1, 2, 3, 4, 5]
    got = tuple(test_golden._sha((tmp_path / file).read_bytes()) for file in test_golden.ANALYZE_FILES)
    assert got == test_golden.ANALYZER_GOLDEN[("lossy_0p3", None)][:3]
    assert _cache_of(path).read_bytes() == good


def test_delay_series_reads_no_column_until_iterated(tmp_path, monkeypatch):
    path = _two_device_capture(tmp_path / "c.jsonl")
    cold = one_way_delays(load_capture(path))  # leaves the cache
    reads = _CountingReads(monkeypatch)
    rows = analyzer.delay_rows(load_capture(path))
    assert reads.sections == []
    assert list(map(FrameDelay._make, rows)) == cold
    assert reads.sections == [0, 1]


def test_warm_summary_at_another_t_fdr_equals_cold(analyzer_captures, tmp_path):
    source, sample = analyzer_captures["lossy_0p3"]
    path = tmp_path / "capture.jsonl"
    shutil.copyfile(source, path)
    cold = load_capture(path)  # leaves the cache
    warm = load_capture(path)
    assert all(section is None for section in warm._sections)
    slots = stats.random_sample(cold.population_slots(), sample, seed="t-fdr")
    for t_fdr_ms in (0.5, -2.0):
        for indices in (None, slots):
            assert repr(summarize(warm, indices, t_fdr_ms=t_fdr_ms)) == repr(summarize(cold, indices, t_fdr_ms=t_fdr_ms))
        warm_table, cold_table = warm.slot_table(t_fdr_ms), cold.slot_table(t_fdr_ms)
        assert [_typed(getattr(warm_table, name)) for name in analyzer._TABLE_ARRAYS] == [
            _typed(getattr(cold_table, name)) for name in analyzer._TABLE_ARRAYS
        ]
    assert all(section is None for section in warm._sections)


def test_deferred_read_without_its_cache_parses_and_recaches(tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    cold = _cold(path)
    good = _cache_of(path).read_bytes()
    cap = load_capture(path)
    _cache_of(path).unlink()
    assert _state(cap) == cold
    assert _cache_of(path).read_bytes() == good


def test_deferred_read_after_the_capture_changed(tmp_path, monkeypatch):
    path = _two_device_capture(tmp_path / "c.jsonl")
    cold = _cached(path)
    # both loads trust the cache, and nothing below may parse
    monkeypatch.setattr(analyzer, "_Parser", _no_parse)
    kept, gone = load_capture(path), load_capture(path)
    _edit(path)
    # the cache still holds the columns of the bytes that were loaded
    assert _state(kept) == cold
    _cache_of(path).unlink()
    # the capture's identity moved: refused before a byte of it is parsed
    with pytest.raises(CaptureError, match="changed after it was loaded"):
        list(gone.device_frames())
    assert not _cache_of(path).exists()


def test_capture_without_trailer_leaves_no_cache(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(f"{HEADER_LINE}\n{_compact(1.5, 1, 55, frames=[(1, 0, 1.5)])}\n")
    assert load_capture(path).integrity is None
    assert os.listdir(tmp_path) == ["c.jsonl"]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="permissions do not bind root")
def test_read_only_directory_loads_and_writes_nothing(tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    state = _cold(path)
    _cache_of(path).unlink()
    tmp_path.chmod(0o555)
    try:
        assert _state(load_capture(path)) == state
        assert os.listdir(tmp_path) == ["c.jsonl"]
    finally:
        tmp_path.chmod(0o755)


def test_cache_that_cannot_be_written_leaves_no_temporary_file(tmp_path):
    path = _two_device_capture(tmp_path / "c.jsonl")
    state = _cold(path)
    _cache_of(path).unlink()
    _cache_of(path).mkdir()  # the rename onto it fails
    assert _state(load_capture(path)) == state
    assert sorted(os.listdir(tmp_path)) == ["c.jsonl", "c.jsonl.columns"]
    assert _cache_of(path).is_dir()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", ["lossy_0p3", "outage"])
def test_golden_outputs_from_cold_and_warm_loads(name, warm, analyzer_captures, tmp_path, capsys, monkeypatch):
    path, sample = analyzer_captures[name]
    load_capture(path)  # leaves the cache
    if warm:
        monkeypatch.setattr(analyzer, "_Parser", _no_parse)

    def run(argv):
        if not warm:
            _cache_of(path).unlink()
        assert cli.main(argv) == 0

    run(["analyze", str(path), "--out-dir", str(tmp_path)])
    got = [test_golden._sha((tmp_path / file).read_bytes()) for file in test_golden.ANALYZE_FILES]
    capsys.readouterr()
    run(["report", str(path), "--sample-size", str(sample), "--sample-seed", test_golden.REPORT_SEED])
    got.append(test_golden._sha(capsys.readouterr().out.encode()))
    assert tuple(got) == test_golden.ANALYZER_GOLDEN[(name, None)]
    if not warm:
        _cache_of(path).unlink()
    figures = test_golden.full_precision_figures(load_capture(path))
    assert test_golden._sha(figures.encode()) == test_golden.FULL_PRECISION_GOLDEN[name]


# a CLI command in a fresh interpreter: argv[1] the src directory, argv[2]
# the command's argv as JSON; prints its exit code, what it printed and
# whether it imported hashlib
COMMAND_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from wamsbench import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"code": code, "stdout": out.getvalue(), "hashlib": "hashlib" in sys.modules}))
"""


@pytest.fixture(scope="module")
def sampled_capture(tmp_path_factory):
    """A 400 s lossless capture, so a sampled report can draw 300 slots."""
    scenario = dataclasses.replace(load_scenario("lossless"), duration_s=400)
    return run_simulation(scenario, tmp_path_factory.mktemp("sampled")).capture_path


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_cold_warm_and_racy_commands_import_no_hashlib(command, sampled_capture, tmp_path):
    # OpenSSL's pages are most of a command's peak RSS above the import of
    # the package: no load hashes the capture, whether it parses (cold,
    # racy) or trusts the cache's identity (warm)
    path = sampled_capture

    def run(name) -> tuple:
        out = tmp_path / name
        argv = {"analyze": ["analyze", str(path), "--out-dir", str(out)],
                "report": ["report", str(path), "--sample-size", "300"]}[command]
        proc = subprocess.run([sys.executable, "-c", COMMAND_CHILD, str(SRC), json.dumps(argv)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert (result["code"], result["hashlib"]) == (0, False)
        written = sorted((file.name, file.read_bytes()) for file in out.iterdir()) if out.exists() else []
        return result["stdout"], written

    def cache_file() -> tuple:
        stat = _cache_of(path).stat()
        return stat.st_ino, stat.st_mtime_ns

    _cache_of(path).unlink(missing_ok=True)
    _wait_past_ctime(path)
    cold = run("cold")
    written = cache_file()
    assert run("warm") == cold
    assert cache_file() == written  # read, not rewritten
    ctime = path.stat().st_ctime_ns
    os.utime(_cache_of(path), ns=(ctime, ctime))
    racy = cache_file()
    assert run("racy") == cold
    assert cache_file() != racy  # parsed and cached anew
