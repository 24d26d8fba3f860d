"""Communication metrics computed from a capture log.

The capture log is the single input: every wire copy is one record,
delivered data copies list the frames they completed, and the header
says when the run started and how long it was configured to last.
Everything in this module is a pure function of that file, so re-running
an analysis always reproduces the same bytes, and the log's line order
never matters.

Metric definitions, chosen once and used everywhere:

  delay        per frame, arrival of its last byte minus (frame
               timestamp + sender processing time).  A capture taken
               against a skewed clock can go slightly negative; delays
               below minus the header's skew bound are flagged and
               excluded from averages.
  throughput   per device and per window, bits of successfully
               delivered uplink data copies (payload plus that copy's
               headers) divided by the window length; kbit/s.  Dropped
               copies never count; a delivered retransmission does,
               because the receiver genuinely got those bytes.
  retx pct     bytes of timeout retransmissions over total uplink bytes
               placed on the wire, every copy counted, delivered or
               not.  Acknowledgement-direction traffic is excluded from
               both sides of the ratio.  Fast-retransmit percentage is
               the same ratio for the other class, and wasted bandwidth
               is their sum by definition.

Integrity: the loader counts records, uplink, ack and dropped copies as
it parses, and Capture.integrity_problems() compares them with the
trailer the writer appended; a capture without a trailer was cut short.

Reporting slots: the sampling workflow treats the run as one population
slot per configured second.  A frame belongs to the slot its timestamp
falls in, where a grid instant on a second boundary belongs to the
second it closes: slot k covers (k, k+1] seconds after the epoch, so a
10 Hz device contributes exactly ten frames per slot.  Throughput
windows are wall-clock aligned: window k covers arrivals in [k, k+1).
"""

import csv
import json
import logging
import math
import re
import statistics
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import compress, groupby, islice, repeat
from operator import itemgetter, le, ne
from pathlib import Path
from typing import NamedTuple, Optional

log = logging.getLogger(__name__)

SUMMARY_COLUMNS = [
    "device",
    "avg_throughput_kbps",
    "avg_delay_ms",
    "max_delay_ms",
    "retx_pct",
    "fast_retx_pct",
    "wasted_bw_pct",
]

# the trailer counters a capture writer keeps, each recomputed on load
TRAILER_KEYS = ("records", "uplink_copies", "ack_copies", "dropped_copies")

_decode = json.JSONDecoder().raw_decode


class CaptureError(Exception):
    """The file is not a usable capture log."""


class _Codes(dict):
    """Value -> small int code for the array ``column``, handing out the
    next code on first sight, and CaptureError once ``column`` cannot
    hold it; the values in code order are list(self).

    ``rows`` is the column appended last for each kept line, so its
    length is the number of the line being parsed, or of the first line
    of a run appended in bulk.  Each code remembers that number, so
    forget(line) can drop the code a line handed out before it was
    rolled back.
    """

    def __init__(self, name: str, column: array, rows: array):
        super().__init__()
        self.name, self.rows = name, rows
        self.limit = 256**column.itemsize
        self.first_lines: list = []

    def __missing__(self, value):
        code = len(self)
        if code == self.limit:
            raise CaptureError(f"more than {self.limit} distinct {self.name} values")
        self[value] = code
        self.first_lines.append(len(self.rows))
        return code

    def forget(self, line: int) -> None:
        # a line hands out at most one code, the newest one
        if self.first_lines and self.first_lines[-1] == line:
            self.popitem()
            self.first_lines.pop()


class _Columns:
    """Equality and repr shared by the column views: a view equals
    another view or a list holding the same tuples in the same order."""

    __slots__ = ()

    def __eq__(self, other):
        if isinstance(other, (list, _Columns)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Records(_Columns):
    """A capture's records in typed columns, one row per record line in
    file order.

    wall_time                    'd'; NaN for a dropped copy (null in
                                 the log: the loader rejects every
                                 non-finite wall time, so NaN is free)
    device, direction,           'I', 'B', 'B' codes into device_ids,
    retx_class                   directions and classes, which list
                                 each distinct value once: any number
                                 of device ids (a live capture's None
                                 is one more), at most 256 directions
                                 and 256 classes
    payload_bytes, header_bytes  'q'

    Iterating yields the tuples (wall_time, device_id, direction,
    payload_bytes, header_bytes, retransmission_class), with None for a
    dropped copy's wall time.
    """

    wall_time: array
    device: array
    direction: array
    retx_class: array
    payload_bytes: array
    header_bytes: array
    device_ids: list
    directions: list
    classes: list

    def __len__(self) -> int:
        return len(self.wall_time)

    def __iter__(self):
        ids, directions, classes = self.device_ids, self.directions, self.classes
        columns = (self.wall_time, self.device, self.direction, self.payload_bytes,
                   self.header_bytes, self.retx_class)
        for wall, dev, direction, payload, header, cls in zip(*columns):
            yield (None if wall != wall else wall, ids[dev], directions[direction],
                   payload, header, classes[cls])

    def direction_code(self, direction) -> int:
        """The code of ``direction``; -1 when no record has it."""
        directions = self.directions
        return directions.index(direction) if direction in directions else -1


@dataclass(frozen=True, eq=False, repr=False)
class Frames(_Columns):
    """A capture's frame_complete entries in typed columns, per device.

    by_device holds (device_id, frame_seq 'q', frame_timestamp 'q',
    arrival 'd') per device that completed a frame, sorted by device id,
    each device's columns sorted by frame_seq.  Iterating yields the
    tuples (device_id, frame_seq, frame_timestamp, arrival_time).
    """

    by_device: list

    def __len__(self) -> int:
        return sum(len(seqs) for _, seqs, _, _ in self.by_device)

    def __iter__(self):
        for dev, seqs, stamps, arrivals in self.by_device:
            yield from zip(repeat(dev), seqs, stamps, arrivals)


@dataclass(frozen=True)
class Capture:
    """A parsed capture log, kept in typed columns.

    records   Records: one row per record line, in file order
    frames    Frames: one row per frame_complete entry, sorted by
              (device_id, frame_seq)
    counts    what the parse found, under the TRAILER_KEYS names
    """

    header: dict
    records: Records
    frames: Frames
    integrity: Optional[dict]
    skipped_lines: int
    counts: dict

    @property
    def epoch_utc_ms(self) -> int:
        return self.header.get("epoch_utc_ms") or 0

    @property
    def skew_bound_ms(self) -> float:
        return self.header.get("skew_bound_ms") or 0.0

    @property
    def t_fdr_ms(self) -> float:
        return self.header.get("t_fdr_ms") or 0.0

    @property
    def t_dcs_ms(self) -> float:
        return self.header.get("t_dcs_ms") or 0.0

    def devices(self) -> list:
        ids = self.records.device_ids
        return sorted(ids[code] for code in set(self.records.device) if ids[code] is not None)

    def population_slots(self) -> int:
        """Number of 1-second population slots this capture covers.

        The configured duration wins; a live capture without one gets
        the smallest slot count covering every frame and arrival.
        """
        duration = self.header.get("duration_s")
        if duration:
            return int(duration)
        epoch = self.epoch_utc_ms
        # both slot numbers grow with their time, so the latest time
        # gives the last slot
        last_frame = max(
            (_slot_of_timestamp(max(stamps), epoch) + 1 for _, _, stamps, _ in self.frames.by_device),
            default=0,
        )
        last_wall = max((wall for wall in self.records.wall_time if wall == wall), default=None)
        last_arrival = 0 if last_wall is None else int((last_wall - epoch) // 1000) + 1
        return max(last_frame, last_arrival)

    def integrity_problems(self) -> list:
        """Why the trailer does not vouch for the parsed contents; empty
        when it is there and every counter it holds agrees."""
        if self.integrity is None:
            return ["no integrity trailer: the capture is truncated or unfinished"]
        return [
            f"trailer counts {key}={self.integrity[key]}, parsed {self.counts[key]}"
            for key in TRAILER_KEYS
            if key in self.integrity and self.integrity[key] != self.counts[key]
        ]


class FrameDelay(NamedTuple):
    device_id: int
    frame_seq: int
    frame_timestamp: int
    arrival_time: float
    t_ci_ms: float
    t_ete_ms: float
    flagged: bool


@dataclass(frozen=True)
class DeviceMetrics:
    device: int
    avg_throughput_kbps: float
    avg_delay_ms: float
    max_delay_ms: float
    retx_pct: float
    fast_retx_pct: float
    wasted_bw_pct: float


@dataclass(frozen=True)
class MetricsSummary:
    devices: tuple
    population_slots: int
    selected_slots: int
    frames_counted: int
    flagged_delays: int


def _slot_of_timestamp(ts_ms: int, epoch_ms: int) -> int:
    # ceil division: a timestamp exactly on a second boundary closes
    # that second rather than opening the next
    return -((ts_ms - epoch_ms) // -1000) - 1


def load_capture(path) -> Capture:
    """Parse a capture log in one pass, skipping corrupt lines with a
    warning and counting what the integrity trailer is checked against.

    A record line counts as corrupt when a field does not fit its
    column: a wall time that is neither null nor a finite number, byte
    counts or frame numbers that are not 64-bit integers, an arrival
    that is not a number, an unhashable device id, direction or class,
    or a missing key.  A capture with more than 256 distinct directions
    or retransmission classes raises CaptureError.

    The file is read in blocks of whole lines.  Record lines in the
    compact form the capture writers produce are matched by one pattern
    and appended to the columns a run at a time; every other line, the
    header and the trailer included, is decoded as JSON on its own.
    Either way a line gives the same values, in file order.
    """
    path = Path(path)
    parser = _Parser()
    with open(path, encoding="utf-8") as fh:
        while block := fh.read(_BLOCK_CHARS):
            if block[-1] != "\n":
                block += fh.readline()  # a block holds whole lines only
            parser.feed(block)
    return parser.capture(path)


_BLOCK_CHARS = 1 << 16

# A record line exactly as dcs.capture_line and
# dumps(CaptureRecord(...).to_json()) write it: fixed key order, no
# spaces, strings without escapes or control characters, and number
# tokens bounded so that converting them cannot fail.  An int has at
# most 18 digits, so it fits 'q', and is never "-0" (json reads the int
# 0, float() would read -0.0); a float has a fraction, no exponent and
# at most 301 integer digits, so it is finite.  Every line the pattern
# matches is therefore valid JSON, and its groups convert to the values
# json decodes.
_INT = r"(?:0|-?[1-9][0-9]{0,17})"
_NUM = r"(?:-?(?:0|[1-9][0-9]{0,300})\.[0-9]+|%s)" % _INT
_STR = r'"([^"\\\x00-\x1f]*)"'


def _entry_pattern(group: str) -> str:
    """A frame_complete entry; ``group`` is "" to capture its three
    numbers, "?:" not to."""
    return r'\{"frame_seq":(%s%s),"frame_timestamp":(%s%s),"arrival_time_of_last_byte":(%s%s)\}' % (
        group, _INT, group, _INT, group, _NUM,
    )


# Patterns are compiled by the first load in a process (re caches them),
# not at import: every CLI command imports this module.
_ENTRY = _entry_pattern("")
# One line of a block: a compact record line, with wall_time, device_id,
# direction, payload_bytes, header_bytes, retransmission_class and the
# frame_complete text in groups 1-7, or any other line, whole, in group 8.
_LINE = (
    r'(?m)^(?:\{"wall_time":(null|%s),"device_id":(null|%s),"direction":%s,"seq_range":\[%s,%s\],'
    r'"payload_bytes":(%s),"header_bytes":(%s),"retransmission_class":%s,'
    r'"frame_complete":(null|\[%s(?:,%s)*\])\}\n|(.*\n|.+))'
    % (_NUM, _INT, _STR, _INT, _INT, _INT, _INT, _STR, _entry_pattern("?:"), _entry_pattern("?:"))
)


def _is_compact(row: tuple) -> bool:
    return not row[7]


class _DeviceTexts(dict):
    """device_id text of a compact record line -> its code in ``codes``.

    A code stays valid here: only the line that handed a code out can
    give it back, and a line that hands one out through this map is kept.
    """

    def __init__(self, codes: _Codes):
        super().__init__()
        self.codes = codes

    def __missing__(self, text):
        code = self[text] = self.codes[None if text == "null" else int(text)]
        return code


class _Parser:
    """The state of one load_capture pass."""

    def __init__(self):
        self.header = self.integrity = None
        self.skipped = self.dropped = 0
        self.walls, self.payloads, self.headers = array("d"), array("q"), array("q")
        self.devices, self.directions, self.classes = array("I"), array("B"), array("B")
        self.record_columns = (self.walls, self.payloads, self.headers, self.devices, self.directions, self.classes)
        self.codes = (
            _Codes("device_id", self.devices, self.walls),
            _Codes("direction", self.directions, self.walls),
            _Codes("retransmission_class", self.classes, self.walls),
        )
        self.device_texts = _DeviceTexts(self.codes[0])
        self.line_pattern, self.entry_pattern = re.compile(_LINE), re.compile(_ENTRY)
        # device code -> (frame_seq, frame_timestamp, arrival)
        self.frame_columns = defaultdict(lambda: (array("q"), array("q"), array("d")))

    def feed(self, block: str) -> None:
        """Parse a block of whole lines."""
        rows = self.line_pattern.findall(block)
        if not any(map(itemgetter(7), rows)):
            self._records([*zip(*rows)])
            return
        # each maximal run of compact record lines, and of other lines,
        # in file order
        for compact, run in groupby(rows, _is_compact):
            if compact:
                self._records([*zip(*run)])
            else:
                self._lines(map(itemgetter(7), run))

    def _records(self, columns) -> None:
        """Append a run of compact record lines, given as the columns of
        their _LINE groups."""
        walls, device_ids, directions, payloads, headers, classes, completes, _ = columns
        _, direction_codes, class_codes = self.codes
        devices = array("I", map(self.device_texts.__getitem__, device_ids))
        self.devices.extend(devices)
        self.directions.extend(map(direction_codes.__getitem__, directions))
        self.classes.extend(map(class_codes.__getitem__, classes))
        self.payloads.extend(map(int, payloads))
        self.headers.extend(map(int, headers))
        # one findall per device over the run's frame_complete texts;
        # the stable sort keeps each device's lines in file order
        with_frames = compress(zip(devices, completes), map(ne, completes, repeat("null")))
        for dev, lines in groupby(sorted(with_frames, key=itemgetter(0)), itemgetter(0)):
            seqs, stamps, arrivals = zip(*self.entry_pattern.findall("".join(map(itemgetter(1), lines))))
            frame_seqs, frame_stamps, frame_arrivals = self.frame_columns[dev]
            frame_seqs.extend(map(int, seqs))
            frame_stamps.extend(map(int, stamps))
            frame_arrivals.extend(map(float, arrivals))
        # the wall column last, as in _lines, so that a code handed out
        # above remembers a line number below every later line's
        dropped = walls.count("null")
        if dropped:
            nan = math.nan
            self.walls.extend([nan if wall == "null" else float(wall) for wall in walls])
            self.dropped += dropped
        else:
            self.walls.extend(map(float, walls))

    def _lines(self, lines) -> None:
        """Parse lines one at a time as JSON: the header, the trailer,
        and record lines in any other form."""
        nan = math.nan
        walls, frame_columns = self.walls, self.frame_columns
        add_wall, add_payload, add_header = walls.append, self.payloads.append, self.headers.append
        add_device, add_direction, add_class = self.devices.append, self.directions.append, self.classes.append
        device_codes, direction_codes, class_codes = self.codes
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode(line)
            except json.JSONDecodeError:
                self.skipped += 1
                continue
            if end != len(line) or obj.__class__ is not dict:
                self.skipped += 1
                continue
            if "header" in obj:
                if self.header is None and isinstance(obj["header"], dict):
                    self.header = obj["header"]
                else:
                    self.skipped += 1
                continue
            if "integrity" in obj:
                if isinstance(obj["integrity"], dict):
                    self.integrity = obj["integrity"]
                else:
                    self.skipped += 1
                continue
            frame_cols = None
            try:
                wall = obj["wall_time"]
                if wall is None:
                    wall = nan
                elif wall * 0.0 != 0.0:  # NaN or infinite; a str raises TypeError
                    raise ValueError(wall)
                add_payload(obj["payload_bytes"])
                add_header(obj["header_bytes"])
                dev = device_codes[obj["device_id"]]
                add_device(dev)
                add_direction(direction_codes[obj["direction"]])
                add_class(class_codes[obj["retransmission_class"]])
                complete = obj.get("frame_complete")
                if complete:
                    frame_cols = seqs, stamps, arrivals = frame_columns[dev]
                    kept = len(seqs)
                    for e in complete:
                        seqs.append(e["frame_seq"])
                        stamps.append(e["frame_timestamp"])
                        arrivals.append(e["arrival_time_of_last_byte"])
            except (KeyError, TypeError, ValueError, OverflowError):
                # undo this line's appends; the wall column is appended
                # last, so it holds the count of the lines kept
                kept_records = len(walls)
                for column in self.record_columns:
                    del column[kept_records:]
                for codes in self.codes:
                    codes.forget(kept_records)
                if frame_cols is not None:
                    for column in frame_cols:
                        del column[kept:]
                self.skipped += 1
                continue
            add_wall(wall)
            if wall is nan:
                self.dropped += 1

    def capture(self, path: Path) -> Capture:
        if self.header is None:
            raise CaptureError(f"{path}: no header line, not a capture log")
        if self.skipped:
            log.warning("%s: skipped %d corrupt lines", path, self.skipped)
        device_codes, direction_codes, class_codes = self.codes
        records = Records(
            self.walls, self.devices, self.directions, self.classes, self.payloads, self.headers,
            list(device_codes), list(direction_codes), list(class_codes),
        )
        counts = dict(
            records=len(self.walls),
            uplink_copies=self.directions.count(records.direction_code("UPLINK")),
            ack_copies=self.directions.count(records.direction_code("ACK")),
            dropped_copies=self.dropped,
        )
        by_device = [
            (records.device_ids[code], *_sorted_by_seq(*columns))
            for code, columns in self.frame_columns.items()
            if columns[0]
        ]
        try:
            # what Capture.devices() sorts, so that it cannot fail either
            sorted(dev for dev in device_codes if dev is not None)
        except TypeError:
            raise CaptureError("device ids of types that do not sort together") from None
        # a null device, as a live record has before its stream's first frame, sorts first
        by_device.sort(key=lambda entry: (entry[0] is not None, entry[0]))
        return Capture(self.header, records, Frames(by_device), self.integrity, self.skipped, counts)


def _sorted_by_seq(seqs, stamps, arrivals) -> tuple:
    """One device's frame columns ordered by frame_seq; equal numbers
    keep file order, and columns already in order are kept as they are."""
    if all(map(le, seqs, islice(seqs, 1, None))):
        return seqs, stamps, arrivals
    order = sorted(range(len(seqs)), key=seqs.__getitem__)
    return tuple(array(column.typecode, [column[i] for i in order]) for column in (seqs, stamps, arrivals))


class DelaySeries(_Columns):
    """The per-frame delay series of a capture, computed from its frame
    columns each time it is read; iterating yields FrameDelay tuples in
    (device, frame_seq) order."""

    __slots__ = ("frames", "t_fdr_ms", "t_dcs_ms", "flag_below")

    def __init__(self, capture: Capture, t_fdr_ms: Optional[float] = None, t_dcs_ms: Optional[float] = None):
        self.frames = capture.frames
        self.t_fdr_ms = capture.t_fdr_ms if t_fdr_ms is None else t_fdr_ms
        self.t_dcs_ms = capture.t_dcs_ms if t_dcs_ms is None else t_dcs_ms
        self.flag_below = -capture.skew_bound_ms

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self):
        make = FrameDelay._make
        for dev, seqs, stamps, arrivals in self.frames.by_device:
            yield from map(make, self._rows(dev, seqs, stamps, arrivals))

    def _rows(self, dev, seqs, stamps, arrivals):
        """One device's delay rows as plain tuples in FrameDelay field
        order."""
        t_fdr, t_dcs, flag_below = self.t_fdr_ms, self.t_dcs_ms, self.flag_below
        for seq, ts, arrival in zip(seqs, stamps, arrivals):
            t_ci = arrival - (ts + t_fdr)
            yield dev, seq, ts, arrival, t_ci, t_ci + t_fdr + t_dcs, t_ci < flag_below


def one_way_delays(
    capture: Capture,
    t_fdr_ms: Optional[float] = None,
    t_dcs_ms: Optional[float] = None,
) -> list:
    """Per-frame delay series, sorted by (device, frame_seq).

    The communication delay counts from the instant the frame left the
    device (timestamp plus the device's processing time) to the arrival
    of its last byte.  The end-to-end figure adds the processing times
    on both sides back on top.
    """
    return list(DelaySeries(capture, t_fdr_ms, t_dcs_ms))


def _uplink_totals(capture: Capture, window_s: float) -> tuple:
    """One pass over the records: per-device delivered kbit/s per window,
    and uplink wire bytes by retransmission class per device id, records
    without a device under None."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    windows = max(1, math.ceil(capture.population_slots() / window_s))
    records = capture.records
    ids, classes = records.device_ids, records.classes
    n_classes = len(classes)
    rates = [[0.0] * windows for _ in ids]
    wire_bytes = [0] * (len(ids) * n_classes)  # device code * n_classes + class code
    uplink = records.direction_code("UPLINK")
    epoch = capture.epoch_utc_ms
    span_ms = 1000.0 * window_s
    floor = math.floor
    columns = (records.wall_time, records.device, records.direction, records.payload_bytes,
               records.header_bytes, records.retx_class)
    for wall, dev, direction, payload, header, cls in zip(*columns):
        if direction != uplink:
            continue
        wire = payload + header
        wire_bytes[dev * n_classes + cls] += wire
        if payload and wall == wall:
            w = floor((wall - epoch) / span_ms)
            if 0 <= w < windows:
                rates[dev][w] += wire * 8 / span_ms
    code_of = {dev: code for code, dev in enumerate(ids)}
    series = {dev: rates[code_of[dev]] for dev in capture.devices()}
    by_class = {}
    for code, dev in enumerate(ids):
        totals = wire_bytes[code * n_classes:(code + 1) * n_classes]
        by_class[dev] = {cls: total for cls, total in zip(classes, totals) if total}
    return series, by_class


def throughput_series(capture: Capture, window_s: float = 1.0) -> dict:
    """Per-device delivered-byte rate in kbit/s, one value per window."""
    return _uplink_totals(capture, window_s)[0]


def _uplink_wire_bytes(by_class: dict) -> Counter:
    """Capture-wide uplink wire bytes by class, from _uplink_totals'
    per-device totals; records without a device count too."""
    totals: Counter = Counter()
    for per_class in by_class.values():
        totals.update(per_class)
    return totals


def _retx_pcts(totals) -> tuple:
    denom = sum(totals.values())
    if denom == 0:
        return 0.0, 0.0
    return (
        100.0 * totals.get("RTO_RETX", 0) / denom,
        100.0 * totals.get("FAST_RETX", 0) / denom,
    )


def retransmission_stats(capture: Capture) -> tuple:
    """(timeout retx %, fast retx %) over all uplink wire bytes."""
    return _retx_pcts(_uplink_wire_bytes(_uplink_totals(capture, window_s=1.0)[1]))


def wasted_bandwidth_pct(capture: Capture) -> float:
    retx, fast = retransmission_stats(capture)
    return retx + fast


def summarize(
    capture: Capture,
    sample_indices=None,
    t_fdr_ms: Optional[float] = None,
    t_dcs_ms: Optional[float] = None,
) -> MetricsSummary:
    """Per-device metric summary, optionally over sampled 1-second slots.

    With sample_indices the averages reproduce the random-sampling
    workflow: only frames whose slot was drawn and only the drawn
    throughput windows contribute.  Retransmission percentages are byte
    ratios over the whole capture either way; sampling a ratio of
    totals is not meaningful.  Passing every index equals not sampling.
    t_dcs_ms enters only the end-to-end delay, which no summary figure
    uses; it is accepted so every analysis takes the same options.

    The averages are statistics.fmean, an exactly rounded sum, so they
    do not depend on the order frames and slots are visited in.
    """
    return _summarize(capture, sample_indices, t_fdr_ms, *_uplink_totals(capture, window_s=1.0))


def analyze(
    capture: Capture,
    sample_indices=None,
    t_fdr_ms: Optional[float] = None,
    t_dcs_ms: Optional[float] = None,
    window_s: float = 1.0,
) -> tuple:
    """Everything the analyze command writes: (summarize(...), the
    DelaySeries of one_way_delays(...), throughput_series(capture,
    window_s)).

    The summary's 1-second windows come from the same pass over the
    records as the series when window_s is 1; the caller then owns that
    series, which the summary does not keep.  The delay series is
    computed as it is read, so no list of FrameDelay is built.
    """
    series, by_class = _uplink_totals(capture, window_s=1.0)
    summary = _summarize(capture, sample_indices, t_fdr_ms, series, by_class)
    if window_s != 1.0:
        series = throughput_series(capture, window_s)
    return summary, DelaySeries(capture, t_fdr_ms, t_dcs_ms), series


def _summarize(capture, sample_indices, t_fdr_ms, series, by_class) -> MetricsSummary:
    """summarize, given _uplink_totals(capture, 1.0)."""
    population = capture.population_slots()
    slots = range(population)
    if sample_indices is not None:
        slots = set(sample_indices)
        bad = sorted(i for i in slots if not 0 <= i < population)
        if bad:
            raise ValueError(f"sample indices out of range [0, {population}): {bad}")

    t_fdr = capture.t_fdr_ms if t_fdr_ms is None else t_fdr_ms
    flag_below = -capture.skew_bound_ms
    epoch = capture.epoch_utc_ms
    per_dev_delays = {}
    flagged = 0
    frames_counted = 0
    for dev, _, stamps, arrivals in capture.frames.by_device:
        delays = array("d")
        add = delays.append
        for ts, arrival in zip(stamps, arrivals):
            t_ci = arrival - (ts + t_fdr)
            if t_ci < flag_below:
                flagged += 1
                continue
            # _slot_of_timestamp, inlined
            if -((ts - epoch) // -1000) - 1 in slots:
                add(t_ci)
        frames_counted += len(delays)
        per_dev_delays[dev] = delays

    rows = []
    for dev, values in series.items():
        throughput = statistics.fmean(values[i] for i in slots) if population else 0.0
        dev_delays = per_dev_delays.get(dev)
        retx, fast = _retx_pcts(by_class[dev])
        rows.append(
            DeviceMetrics(
                device=dev,
                avg_throughput_kbps=throughput,
                avg_delay_ms=statistics.fmean(dev_delays) if dev_delays else math.nan,
                max_delay_ms=max(dev_delays) if dev_delays else math.nan,
                retx_pct=retx,
                fast_retx_pct=fast,
                wasted_bw_pct=retx + fast,
            )
        )
    return MetricsSummary(
        devices=tuple(rows),
        population_slots=population,
        selected_slots=len(slots),
        frames_counted=frames_counted,
        flagged_delays=flagged,
    )


# -- output ----------------------------------------------------------------


def _summary_cells(metrics: DeviceMetrics) -> list:
    return [
        str(metrics.device),
        f"{metrics.avg_throughput_kbps:.3f}",
        f"{metrics.avg_delay_ms:.3f}",
        f"{metrics.max_delay_ms:.3f}",
        f"{metrics.retx_pct:.4f}",
        f"{metrics.fast_retx_pct:.4f}",
        f"{metrics.wasted_bw_pct:.4f}",
    ]


def write_summary_csv(summary: MetricsSummary, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for metrics in summary.devices:
            writer.writerow(_summary_cells(metrics))


def format_table(summary: MetricsSummary) -> str:
    """Console rendering of the summary: one aligned row per device."""
    table = [SUMMARY_COLUMNS] + [_summary_cells(m) for m in summary.devices]
    widths = [max(len(row[col]) for row in table) for col in range(len(SUMMARY_COLUMNS))]
    lines = []
    for i, row in enumerate(table):
        cells = [c.ljust(w) if i == 0 else c.rjust(w) for c, w in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


DELAY_COLUMNS = ["device", "frame_seq", "frame_timestamp", "arrival_time", "t_ci_ms", "t_ete_ms", "flagged"]

# one delay_series.csv row: what csv.writer writes for a FrameDelay whose
# device_id and frame_seq are ints, since str() of a number needs no
# quoting and the figures are formatted as the cells below format them
_DELAY_ROW = "%s,%s,%s,%.3f,%.3f,%.3f,%d\n"


def _delay_cells(d) -> list:
    device_id, frame_seq, frame_timestamp, arrival_time, t_ci_ms, t_ete_ms, flagged = d
    return [
        device_id,
        frame_seq,
        frame_timestamp,
        f"{arrival_time:.3f}",
        f"{t_ci_ms:.3f}",
        f"{t_ete_ms:.3f}",
        int(flagged),
    ]


def write_delay_series_csv(delays, path) -> None:
    """Write FrameDelay tuples, or a DelaySeries streamed from its
    capture's columns."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DELAY_COLUMNS)
        if isinstance(delays, DelaySeries):
            # one pass over plain tuples, checking ids once per device
            # (frame_seq comes from an integer column); the list path
            # below would compute the series twice, once to check it,
            # and build a FrameDelay per row each time
            for dev, *columns in delays.frames.by_device:
                rows = delays._rows(dev, *columns)
                if dev.__class__ is int:
                    fh.writelines(_DELAY_ROW % row for row in rows)
                else:
                    writer.writerows(map(_delay_cells, rows))
        elif all(d[0].__class__ is int and d[1].__class__ is int for d in delays):
            fh.writelines(_DELAY_ROW % d for d in delays)
        else:
            # a capture from elsewhere may hold ids that need quoting
            writer.writerows([_delay_cells(d) for d in delays])


def write_throughput_series_csv(series: dict, window_s: float, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["device", "window_start_s", "kbit_per_s"])
        for dev in sorted(series):
            for k, value in enumerate(series[dev]):
                # every digit: ":g" keeps 6, merging windows of long captures
                writer.writerow([dev, f"{k * window_s:.15g}", f"{value:.3f}"])
