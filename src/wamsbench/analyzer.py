"""Communication metrics computed from a capture log.

The capture log is the single input: every wire copy is one record,
delivered data copies list the frames they completed, and the header
says when the run started and how long it was configured to last.
Everything in this module is a pure function of that file, so re-running
an analysis always reproduces the same bytes, and the order of the record
lines after the header never changes a figure, bit for bit: every sum is
of integers or exactly rounded (math.fsum), and the delay series lists
each device's frames by frame_seq, one completion per frame.

Metric definitions, chosen once and used everywhere:

  delay        per frame, arrival of its last byte minus (frame
               timestamp + sender processing time).  A capture taken
               against a skewed clock can go slightly negative; delays
               below minus the header's skew bound are flagged and
               excluded from averages.
  throughput   per device and per 1-second window, bits of
               successfully delivered uplink data copies (payload plus
               that copy's headers) over that second; kbit/s, the
               window's integer wire bytes times 8 over 1000, one
               correctly rounded division.  Dropped copies never count;
               a delivered retransmission does, because the receiver
               genuinely got those bytes.
  retx pct     bytes of timeout retransmissions over total uplink bytes
               placed on the wire, every copy counted, delivered or
               not.  Acknowledgement-direction traffic is excluded from
               both sides of the ratio.  Fast-retransmit percentage is
               the same ratio for the other class, and wasted bandwidth
               is their sum by definition.

Value rule: every millisecond value read, a frame's arrival, the
header's skew_bound_ms, t_fdr_ms and t_dcs_ms and the t_fdr_ms/t_dcs_ms
arguments, is a finite number of magnitude below 2**63 (MS_LIMIT), the
range of the int64 frame_timestamp column.  So every delay is finite
and below 2**65 in magnitude, and no sum of them can overflow a double.
An arrival of -0.0 reads as 0.0, so no delay is -0.0 and equal delays
are the same double.  The rule also bounds the integers a record holds
by what the wire carries: payload_bytes and header_bytes are ints in
[0, 65535], since one wire copy fits one IP datagram (and a live record
is one recv(4096)), and a frame_seq is an int in [0, 2**32), the frame's
uint32 field; their columns are uint16 and uint32.

Identifier rule: a record's device_id is null or an int in [0, 65535],
the 16-bit id its frames carry; its direction is one of DIRECTIONS and
its retransmission_class one of CLASSES; and a record that completes
frames names its device.  A record line that breaks either rule is a
corrupt line.

Integrity: the loader counts records, uplink, ack and dropped copies as
it parses, and Capture.integrity_problems() compares them with the
trailer the writer appended; a capture without a trailer was cut short.

Slot table: every summary figure and the throughput series are folds
over 1-second slots, kept in a SlotTable per device and slot, and
summaries of any set of slots and the series read that table alone.  The
parse, one pass of _parse, folds each record line into the table's
uplink half as it reads it, so no record is kept, ends by folding the
frame columns into its delay half, and then builds the Capture whole.

One completion per frame: of the completions of one (device,
frame_seq), the loader keeps the one with the smallest (arrival,
frame_timestamp), which a concentrator reading in arrival order keeps,
and counts the rest in Capture.duplicate_completions.

Outputs: the analyze command writes summarize() as summary.csv,
SlotTable.series() as throughput_series.csv and delay_rows() as
delay_series.csv, one row per kept completion; one_way_delays,
throughput_series and retransmission_stats give the same figures as
Python values.

Column cache: load_capture keeps the slot table and the columns of a
finished capture in ``<capture>.columns`` beside it, keyed by the
capture's file identity, so a capture is parsed once however often it
is analyzed.  Each device's frames have a section of their own, so a
summary or a throughput series reads no column and the delay series
holds one device's frames at a time.  The cache only saves
time: a load that cannot trust it parses the file and caches it anew,
and deleting the cache is always safe.

Reporting slots: the sampling workflow treats the run as one population
slot per configured second.  A frame belongs to the slot its timestamp
falls in, where a grid instant on a second boundary belongs to the
second it closes: slot k covers (k, k+1] seconds after the epoch, so a
10 Hz device contributes exactly ten frames per slot.  Throughput
windows are wall-clock aligned: window k covers arrivals in [k, k+1).
"""

import contextlib
import json
import logging
import math
import os
import sys
import zlib
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, starmap
from operator import lt
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

# why the parse skips a line: not JSON; trailing bytes, or not an object;
# a second header, or a header whose value is not an object; a trailer
# whose value is not an object; a record before the header; a record
# that breaks the value or the identifier rule
SKIP_REASONS = ("not_json", "not_one_object", "bad_header", "bad_trailer", "before_header", "bad_record")

# the bound of the value rule: the int64 range of frame_timestamp
MS_LIMIT = 2.0**63

# the identifier rule: the largest device id, and the directions and
# classes a record may hold, each stored as its place in its tuple
MAX_DEVICE_ID = 0xFFFF
DIRECTIONS = ("UPLINK", "ACK")
CLASSES = ("FIRST", "RTO_RETX", "FAST_RETX")
_DIRECTION_INDEX = {value: code for code, value in enumerate(DIRECTIONS)}
_CLASS_INDEX = {value: code for code, value in enumerate(CLASSES)}

_decode = json.JSONDecoder().raw_decode


class CaptureError(Exception):
    """The file is not a usable capture log."""


def _check_ms(name: str, value) -> None:
    """ValueError unless ``value`` is None or a number of magnitude below
    MS_LIMIT: the value rule."""
    try:
        if value is None or -MS_LIMIT < value < MS_LIMIT:
            return
    except TypeError:  # not a number
        pass
    raise ValueError(f"{name} must be a finite number of magnitude below 2**63, got {value!r}")


def check_header(header: dict) -> None:
    """ValueError naming the first header value the analyzer cannot use."""
    for key in ("skew_bound_ms", "t_fdr_ms", "t_dcs_ms"):
        _check_ms(key, header.get(key))
    skew = header.get("skew_bound_ms")
    if skew is not None and skew < 0:
        raise ValueError(f"skew_bound_ms must be null or at least 0, got {skew!r}")
    epoch, duration = header.get("epoch_utc_ms"), header.get("duration_s")
    if epoch is not None and (epoch.__class__ is not int or not -MS_LIMIT < epoch < MS_LIMIT):
        raise ValueError(f"epoch_utc_ms must be null or an int of magnitude below 2**63, got {epoch!r}")
    if duration is not None and (duration.__class__ is not int or duration < 0):
        raise ValueError(f"duration_s must be null, 0 or a positive int, got {duration!r}")


class Capture:
    """A parsed capture log: its SlotTable, and its frames in typed
    columns.

    device_frames()  the frame_complete entries the loader keeps, one
                     per frame, one device's columns per step
    counts           what the parse found, under the TRAILER_KEYS names
    skipped_by_reason
                     the corrupt lines the parse skipped, per SKIP_REASONS
                     name, every reason listed
    skipped_lines    their total
    duplicate_completions
                     the frame completions it left out, one per frame kept

    The frame columns are kept as a list of sections, in the column
    cache's order: section k the frame columns of the k-th frame device
    id.  A parse holds every section; a Capture read from the column
    cache holds its header, counts and SlotTable, and reads a section
    from the cache each time it is used, so device_frames() holds one
    device's frames at a time.  No record is kept: the parse folds each
    record line into the SlotTable as it reads it.
    """

    def __init__(self, header, integrity, skipped_by_reason, duplicate_completions, counts, table, frame_devices,
                 sections, cache=None):
        self.header, self.integrity = header, integrity
        self.skipped_by_reason, self.counts = skipped_by_reason, counts
        self.duplicate_completions = duplicate_completions
        self._table = table  # the SlotTable at the header's t_fdr_ms
        self._frame_devices = frame_devices  # the ids with frames, sorted
        self._sections = sections  # each section's arrays, None while left in the cache
        self._cache = cache  # the _CacheSections a cached load reads its sections from

    @property
    def skipped_lines(self) -> int:
        return sum(self.skipped_by_reason.values())

    @property
    def records(self) -> range:
        """A range as long as the capture's record count.  It only serves
        the benchmark's child process (bench/child.py), which counts
        loaded records with len(capture.records); it goes once the
        benchmark reads counts["records"] instead."""
        return range(self.counts["records"])

    def device_frames(self):
        """Yield (device_id, frame_seq 'I', frame_timestamp 'q', arrival
        'd') per device that completed a frame, sorted by device id (an
        int: a record with frames names its device), each device's
        columns sorted by frame_seq, one completion per frame; reads one
        device's section per step."""
        for k, dev in enumerate(self._frame_devices):
            yield (dev, *self._section(k))

    def _section(self, index: int) -> list:
        """The arrays of frame section ``index``.  A section left in the
        cache is read from it; when it cannot be read or fails its check,
        the capture is parsed again, the cache rewritten, and every
        section replaced by the parse's.  CaptureError when the capture's
        identity is not the one the cache was trusted under, checked
        before the parse reads a byte and again after it: every change to
        the file since the load moved its ctime past that identity's."""
        if self._sections[index] is None:
            cache = self._cache
            try:
                return _read_cached_section(cache, index)
            except _BAD_CACHE:
                pass
            with open(cache.path, "rb") as fh:
                parsed = _parse(cache.path, fh) if _identity(fh) == cache.identity else None
                if parsed is None or _identity(fh) != cache.identity:
                    raise CaptureError(f"{cache.path}: the capture changed after it was loaded")
                _write_cache(cache.cache_path, parsed, cache.identity, fh)
            self._sections = parsed._sections
        return self._sections[index]

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

    def population_slots(self) -> int:
        """Number of 1-second population slots this capture covers.

        The configured duration wins; a live capture without one gets
        the smallest slot count covering every frame and arrival.
        """
        return self._table.population

    def slot_table(self, t_fdr_ms: Optional[float] = None) -> "SlotTable":
        """The SlotTable of this capture at ``t_fdr_ms`` (default: the
        header's).  The header's table is built once, by the parse or
        from the column cache, and kept; another t_fdr_ms folds the frame
        columns again, since it moves every delay by a rounding no table
        can undo."""
        own = self.t_fdr_ms
        if t_fdr_ms is None or (t_fdr_ms.__class__ is own.__class__ and t_fdr_ms == own):
            return self._table
        _check_ms("t_fdr_ms", t_fdr_ms)
        table = self._table
        folded = _fold_delays(self.device_frames(), self.epoch_utc_ms, self.skew_bound_ms, table.population,
                              table.devices, t_fdr_ms)
        return replace(table, **folded)

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
    counts that are not ints in [0, 65535], frame numbers outside
    [0, 2**32) or timestamps that are not 64-bit integers, an arrival
    that breaks the value rule, an id, direction or class that breaks
    the identifier rule, or a missing key.  The header-first rule: a
    record line before the header is corrupt too, since its fold needs
    the header's epoch (every writer puts the header first).

    The file is read in blocks of whole lines, as UTF-8 text with
    universal newlines, and each line is decoded as JSON on its own.
    Each record line is folded into the capture's SlotTable as it is
    read, and the parse ends by folding the frame columns into it, one
    completion per frame; the rest are counted and warned about as
    duplicate completions.

    A capture with a trailer is cached beside it, at
    ``<capture>.columns``: its SlotTable, then its frame columns, keyed
    by the capture's file identity (_identity).  When the cache can be
    trusted for this capture (_read_cache), the table is read from the
    cache instead of parsed, and a device's frame columns when they are
    first used; either way the Capture is the same.  Otherwise the capture is
    parsed and cached anew under its identity now, so a capture copied
    along with its cache is parsed once, and later loads are warm.
    """
    path = Path(path)
    cache_path = path.with_name(path.name + ".columns")
    with open(path, "rb") as fh:
        identity = _identity(fh)
        capture = _read_cache(path, cache_path, identity)
        if capture is None:
            capture = _parse(path, fh)
            _write_cache(cache_path, capture, identity, fh)
    if capture.skipped_lines:
        reasons = ", ".join(f"{reason}={n}" for reason, n in capture.skipped_by_reason.items() if n)
        log.warning("%s: skipped %d corrupt lines (%s)", path, capture.skipped_lines, reasons)
    if capture.duplicate_completions:
        log.warning("%s: left out %d duplicate frame completions", path, capture.duplicate_completions)
    return capture


def _identity(capture_file) -> list:
    """The identity of the open capture file the column cache is keyed
    on: [st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns].  No user
    process can set a ctime: every write, truncate, rename or utime
    moves it to the current time."""
    st = os.fstat(capture_file.fileno())
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


def _parse(path: Path, capture_file) -> Capture:
    """The Capture of the bytes of ``capture_file``, read from where it
    stands in blocks of whole lines, each line decoded as JSON on its
    own: the header, the trailer and the record lines, each record line
    folded as soon as it passes its checks.  CaptureError as soon as the
    header names another kind of log or holds a value the analyzer
    cannot use."""
    limit, max_id, max_values, floor = MS_LIMIT, MAX_DEVICE_ID, MAX_SERIES_VALUES, math.floor
    direction_index, class_index, uplink = _DIRECTION_INDEX, _CLASS_INDEX, _DIRECTION_INDEX["UPLINK"]
    count_types = (int, bool)
    header = integrity = None
    # from the header: its epoch, and how many windows a row may hold
    epoch = windows = None
    skipped = dict.fromkeys(SKIP_REASONS, 0)
    dropped = 0
    copies = [0] * len(DIRECTIONS)  # the records kept, per direction
    last_wall = -math.inf  # the largest finite wall time
    # device id, None for null -> uplink wire bytes per class
    wire_bytes = {}
    # device id -> its uplink wire bytes per 1-second window, grown as
    # windows appear; a null id's row stays empty
    window_bytes = {}
    # device id -> (frame_seq, frame_timestamp, arrival)
    frame_columns = defaultdict(lambda: (array("I"), array("q"), array("d")))
    while block := capture_file.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += capture_file.readline()  # a block holds whole lines only
        text = block.decode("utf-8")
        if "\r" in text:  # universal newlines, as text-mode open() reads
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        # "\n" only: str.splitlines() would also split at characters
        # such as U+2028 that JSON allows raw inside a string
        for line in text.split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode(line)
            except json.JSONDecodeError:
                skipped["not_json"] += 1
                continue
            if end != len(line) or obj.__class__ is not dict:
                skipped["not_one_object"] += 1
                continue
            if "header" in obj:
                if header is None and isinstance(obj["header"], dict):
                    # refused here, so another log is not parsed to its end
                    header = obj["header"]
                    kind = header.get("log", "capture")  # a hand-built header may leave it out
                    if kind != "capture":
                        raise CaptureError(f"{path}: the header names a {kind!r} log, not a capture log")
                    try:
                        check_header(header)
                    except ValueError as err:
                        raise CaptureError(f"{path}: header {err}") from None
                    epoch = header.get("epoch_utc_ms") or 0
                    # a live capture, without a duration, grows its rows as
                    # far as MAX_SERIES_VALUES lets them
                    windows = header.get("duration_s") or math.inf
                else:
                    skipped["bad_header"] += 1
                continue
            if "integrity" in obj:
                if isinstance(obj["integrity"], dict):
                    integrity = obj["integrity"]
                else:
                    skipped["bad_trailer"] += 1
                continue
            if epoch is None:  # the header-first rule
                skipped["before_header"] += 1
                continue
            frame_cols = None
            try:
                wall = obj["wall_time"]
                if wall is not None:
                    if wall * 0.0 != 0.0:  # NaN or infinite; a str raises TypeError
                        raise ValueError(wall)
                    wall = float(wall)
                payload, head = obj["payload_bytes"], obj["header_bytes"]
                # the value rule: ints (a bool is one) in [0, 65535]
                if not (payload.__class__ in count_types and head.__class__ in count_types
                        and 0 <= payload <= 0xFFFF and 0 <= head <= 0xFFFF):
                    raise ValueError((payload, head))
                dev = obj["device_id"]
                if dev is not None and (dev.__class__ is not int or not 0 <= dev <= max_id):  # the identifier rule
                    raise ValueError(dev)
                direction = direction_index[obj["direction"]]
                cls = class_index[obj["retransmission_class"]]
                complete = obj.get("frame_complete")
                if complete:
                    if dev is None:
                        raise ValueError("frames under a null device id")
                    frame_cols = seqs, stamps, arrivals = frame_columns[dev]
                    kept = len(seqs)
                    for e in complete:
                        seqs.append(e["frame_seq"])
                        stamps.append(e["frame_timestamp"])
                        arrival = e["arrival_time_of_last_byte"]
                        if not -limit < arrival < limit:  # the value rule; a str raises TypeError
                            raise ValueError(arrival)
                        arrivals.append(arrival + 0.0)  # -0.0 + 0.0 is 0.0
            except (KeyError, TypeError, ValueError, OverflowError):
                if frame_cols is not None:  # undo this line's frames
                    for column in frame_cols:
                        del column[kept:]
                skipped["bad_record"] += 1
                continue
            copies[direction] += 1
            totals = wire_bytes.get(dev)
            if totals is None:
                totals = wire_bytes[dev] = [0] * len(CLASSES)
                window_bytes[dev] = array("q")
            if wall is None:
                dropped += 1
            elif wall > last_wall:
                last_wall = wall
            if direction != uplink:
                continue
            wire = payload + head
            totals[cls] += wire
            if payload and wall is not None and dev is not None:
                w = floor((wall - epoch) / 1000.0)
                row = window_bytes[dev]
                if len(row) <= w < windows and (w + 1) * len(wire_bytes) <= max_values:
                    row.frombytes(bytes(8 * (w + 1 - len(row))))  # zero bytes up to window w
                if 0 <= w < len(row):
                    row[w] += wire

    if header is None:
        raise CaptureError(f"{path}: no header line, not a capture log")
    uplink_copies, ack_copies = copies
    counts = dict(records=uplink_copies + ack_copies, uplink_copies=uplink_copies, ack_copies=ack_copies,
                  dropped_copies=dropped)
    frame_devices = sorted(dev for dev, (seqs, _, _) in frame_columns.items() if seqs)
    sections = [list(_sorted_by_seq(*frame_columns[dev])) for dev in frame_devices]
    # the completions _sorted_by_seq left out
    duplicates = sum(len(frame_columns[dev][0]) - len(seqs) for dev, (seqs, _, _) in zip(frame_devices, sections))
    population = header.get("duration_s") or _covered_slots(epoch, sections, last_wall)
    if population * max(1, len(wire_bytes)) > MAX_SERIES_VALUES:
        raise CaptureError(
            f"{path}: {population} 1-second slots for {len(wire_bytes)} device ids is more than "
            f"{MAX_SERIES_VALUES} slot table values"
        )
    windows = max(1, population)
    devices = sorted(dev for dev in wire_bytes if dev is not None)
    rates = array("d")
    for dev in devices:
        row = window_bytes.pop(dev)
        del row[windows:]
        rates.extend([wire * 8 / 1000.0 for wire in row])
        rates.frombytes(bytes(8 * (windows - len(row))))
    by_class = {
        dev: {cls: total for cls, total in zip(CLASSES, wire_bytes[dev]) if total}
        for dev in ([None] if None in wire_bytes else []) + devices
    }
    frames = ((dev, *section) for dev, section in zip(frame_devices, sections))
    delays = _fold_delays(frames, epoch, header.get("skew_bound_ms") or 0.0, population, devices,
                          header.get("t_fdr_ms") or 0.0)
    table = SlotTable(population=population, devices=devices, rates=rates, wire_bytes=by_class, **delays)
    return Capture(header, integrity, skipped, duplicates, counts, table, frame_devices, sections)


_BLOCK_BYTES = 1 << 16


def _covered_slots(epoch: int, frame_sections: list, last_wall: float) -> int:
    """The smallest population slot count covering every frame of
    ``frame_sections`` and every arrival up to ``last_wall``, the largest
    finite wall time (-inf when there is none): the population of a live
    capture, which configures no duration."""
    # both slot numbers grow with their time, so the latest time gives
    # the last slot
    last_frame = max((_slot_of_timestamp(max(stamps), epoch) + 1 for _, stamps, _ in frame_sections), default=0)
    last_arrival = 0 if last_wall == -math.inf else int((last_wall - epoch) // 1000) + 1
    return max(last_frame, last_arrival)


def _sorted_by_seq(seqs, stamps, arrivals) -> tuple:
    """One device's frame columns ordered by frame_seq, whatever their
    file order, with one completion per frame_seq: the one with the
    smallest (arrival, frame_timestamp), which a concentrator reading in
    arrival order keeps.  Columns whose frame_seq already rises strictly
    are kept as they are."""
    if all(map(lt, seqs, islice(seqs, 1, None))):
        return seqs, stamps, arrivals
    first = {}  # frame_seq -> the index of its kept completion, in frame_seq order
    for i in sorted(range(len(seqs)), key=lambda i: (seqs[i], arrivals[i], stamps[i])):
        first.setdefault(seqs[i], i)
    return tuple(array(column.typecode, [column[i] for i in first.values()]) for column in (seqs, stamps, arrivals))


# -- column cache --------------------------------------------------------------
#
# A cache file is one line of ASCII JSON, then sections, each ending with
# the CRC-32 of the JSON line and the section's bytes, 4 bytes little-endian:
#
#   JSON     CACHE_VERSION, the byte order, the itemsizes, the capture's
#            identity, the Capture's fields other than its columns, and
#            the frame count of each id of "frame_devices"; under
#            "table", the SlotTable's fields that are not arrays and the
#            length of its partials
#   table    the raw bytes of the SlotTable's arrays, in _TABLE_ARRAYS order
#   frames   one section per device with frames, in the order of the ids
#            listed in "frame_devices": its frame_seq, frame_timestamp
#            and arrival columns
#
# The version fixes every typecode, so a load derives every length from
# the table's fields and the counts.  A load reads the JSON line and the
# table, and leaves the frame sections to Capture._section, which reads
# one each time it is used, so a summary reads no column and a delay
# series one device's frames at a time.  No record has a section: the
# parse folds the records into the table.
#
# The CRC guards against accidental damage to a derived local file; the
# identity says which capture the cache is for.  A load trusts it as git
# trusts the stat data of its index ("racy git"): only when it equals the
# open capture's and the capture's mtime and ctime are both older than
# the cache file's own mtime.  A change within one timestamp tick of the
# cache's writing leaves the times equal, so such a cache is racy.  A
# cache that fails either test is not read: the capture is parsed and
# cached anew under its identity now.

CACHE_VERSION = 14
_CHECK_BYTES = 4  # the CRC-32 that ends each section
_FRAME_TYPECODES = "Iqd"
# this platform's itemsizes of every typecode the cache holds
_ITEMSIZES = {code: array(code).itemsize for code in _FRAME_TYPECODES}
# what reading a cache that is missing, cut short, garbage or of another
# layout can raise; any of them means the capture is parsed instead
_BAD_CACHE = (OSError, EOFError, ValueError, LookupError, TypeError, RecursionError)


class _CacheSections(NamedTuple):
    """Where a cached load finds its frame sections, in Capture's
    section order, each as (offset past the JSON line, frame count), and
    the capture's identity the cache was trusted under."""

    path: Path
    cache_path: Path
    meta_line: bytes
    identity: list
    sections: list


def _section_bytes(typecodes: str, lengths: list) -> int:
    return sum(length * array(code).itemsize for code, length in zip(typecodes, lengths))


def _read_section(fh, typecodes: str, lengths: list, meta_line: bytes) -> list:
    """The arrays of the cache section that starts where ``fh`` stands,
    ``lengths[i]`` items of ``typecodes[i]`` each, read straight into
    arrays of their size; EOFError when the file ends first, ValueError
    unless the CRC-32 that ends the section is that of ``meta_line`` and
    the arrays' bytes."""
    crc, arrays = zlib.crc32(meta_line), []
    for code, length in zip(typecodes, lengths):
        column = array(code, [0]) * length
        with memoryview(column) as view, view.cast("B") as raw:
            if fh.readinto(raw) != len(raw):
                raise EOFError("a cache section is cut short")
        crc = zlib.crc32(column, crc)
        arrays.append(column)
    if fh.read(_CHECK_BYTES) != crc.to_bytes(_CHECK_BYTES, "little"):
        raise ValueError("a cache section fails its check")
    return arrays


def _read_cache(path: Path, cache_path: Path, identity: list) -> Optional[Capture]:
    """The Capture cached at ``cache_path`` for the capture at ``path``,
    whose _identity is ``identity``, with its columns left in the cache;
    None when no whole cache of this version and platform is there, when
    its identity is not ``identity``, or when it is racy.  The capture
    itself is never read."""
    try:
        with open(cache_path, "rb") as fh:
            meta_line = fh.readline()
            meta = json.loads(meta_line)
            if (meta["version"], meta["byteorder"], meta["itemsizes"]) != (CACHE_VERSION, sys.byteorder, _ITEMSIZES):
                return None
            devices, frame_counts, fields = meta["frame_devices"], meta["frame_counts"], meta["table"]
            population, ids = fields["population"], fields["devices"]
            entries = len(ids) * population
            table_lengths = [len(ids) * max(1, population), entries, entries, entries, fields["partials"]]
            if len(frame_counts) != len(devices) or min(table_lengths + frame_counts) < 0:
                return None
            offset = _section_bytes(_TABLE_TYPECODES, table_lengths) + _CHECK_BYTES  # past the JSON line
            sections = []
            for count in frame_counts:
                sections.append((offset, count))
                offset += _section_bytes(_FRAME_TYPECODES, [count] * 3) + _CHECK_BYTES
            cache_stat = os.fstat(fh.fileno())
            if cache_stat.st_size != len(meta_line) + offset:
                return None
            racy = max(identity[3:]) >= cache_stat.st_mtime_ns  # the capture's mtime or ctime is not older
            if meta["identity"] != identity or racy:
                return None
            arrays = _read_section(fh, _TABLE_TYPECODES, table_lengths, meta_line)
        check_header(meta["header"])  # a cache written before a rule the header breaks
        table = SlotTable(population=population, devices=ids, wire_bytes=dict(fields["wire_bytes"]),
                          flagged=fields["flagged"], **dict(zip(_TABLE_ARRAYS, arrays)))
        if (table.part_ends[-1] if entries else 0) != fields["partials"]:  # where the last entry's partials end
            return None
        cache = _CacheSections(path, cache_path, meta_line, identity, sections)
        return Capture(meta["header"], meta["integrity"], meta["skipped_by_reason"], meta["duplicate_completions"],
                       meta["counts"], table, devices, [None] * len(sections), cache)
    except _BAD_CACHE:
        return None


def _read_cached_section(cache: _CacheSections, index: int) -> list:
    """The arrays of frame section ``index`` of ``cache``."""
    offset, count = cache.sections[index]
    with open(cache.cache_path, "rb") as fh:
        fh.seek(len(cache.meta_line) + offset)
        return _read_section(fh, _FRAME_TYPECODES, [count] * 3, cache.meta_line)


def _write_cache(cache_path: Path, capture: Capture, identity: list, capture_file) -> None:
    """Cache a parsed ``capture``'s table and column sections, as it
    holds them, at ``cache_path``, through a temporary file renamed into
    place, keyed on ``identity``, the _identity of ``capture_file`` taken
    before the parse.  Nothing is cached for a capture without a trailer,
    which may still be growing, nor when the capture's identity changed
    during the parse; a cache that cannot be written is left out."""
    table = capture._table
    if capture.integrity is None or _identity(capture_file) != identity:
        return
    arrays = [getattr(table, name) for name in _TABLE_ARRAYS]
    table_fields = dict(
        population=table.population, devices=table.devices,
        # pairs, since a JSON object's keys are strings and an id may be null
        wire_bytes=list(table.wire_bytes.items()),
        flagged=table.flagged, partials=len(table.partials),
    )
    meta = dict(
        version=CACHE_VERSION, byteorder=sys.byteorder, itemsizes=_ITEMSIZES, identity=identity,
        header=capture.header, integrity=capture.integrity, skipped_by_reason=capture.skipped_by_reason,
        duplicate_completions=capture.duplicate_completions,
        counts=capture.counts, frame_devices=capture._frame_devices,
        frame_counts=[len(seqs) for seqs, _, _ in capture._sections],
        table=table_fields,
    )
    meta_line = json.dumps(meta).encode() + b"\n"
    tmp = cache_path.with_name(f"{cache_path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(meta_line)
            for section in (arrays, *capture._sections):
                crc = zlib.crc32(meta_line)
                for column in section:
                    column.tofile(fh)
                    crc = zlib.crc32(column, crc)
                fh.write(crc.to_bytes(_CHECK_BYTES, "little"))
        os.replace(tmp, cache_path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def delay_rows(capture: Capture, t_fdr_ms: Optional[float] = None, t_dcs_ms: Optional[float] = None):
    """An iterator, read once, of the per-frame delay series as plain
    tuples in FrameDelay field order, sorted by (device, frame_seq),
    computed as it is read: starmap and chain let go of a device's
    columns (Capture.device_frames) before the next device's are read.
    ValueError at the call, before any row, when t_fdr_ms or t_dcs_ms
    breaks the value rule."""
    _check_ms("t_fdr_ms", t_fdr_ms)
    _check_ms("t_dcs_ms", t_dcs_ms)
    t_fdr = capture.t_fdr_ms if t_fdr_ms is None else t_fdr_ms
    t_dcs = capture.t_dcs_ms if t_dcs_ms is None else t_dcs_ms
    flag_below = -capture.skew_bound_ms

    def rows(dev, seqs, stamps, arrivals):
        for seq, ts, arrival in zip(seqs, stamps, arrivals):
            t_ci = arrival - (ts + t_fdr)
            yield dev, seq, ts, arrival, t_ci, t_ci + t_fdr + t_dcs, t_ci < flag_below

    return chain.from_iterable(starmap(rows, capture.device_frames()))


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
    return list(map(FrameDelay._make, delay_rows(capture, t_fdr_ms, t_dcs_ms)))


# population slots x device ids one slot table may hold, about 268 MB of
# list slots while it is built: a day of slots for 388 device ids
MAX_SERIES_VALUES = 1 << 25


def throughput_series(capture: Capture) -> dict:
    """Per-device delivered-byte rate in kbit/s, one list of values per
    device with one value per 1-second window, read from the SlotTable."""
    return {dev: row.tolist() for dev, row in capture.slot_table().series().items()}


def _uplink_wire_bytes(by_class: dict) -> Counter:
    """Capture-wide uplink wire bytes by class, from per-device totals
    such as SlotTable.wire_bytes; records without a device count too."""
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
    return _retx_pcts(_uplink_wire_bytes(capture.slot_table().wire_bytes))


def wasted_bandwidth_pct(capture: Capture) -> float:
    retx, fast = retransmission_stats(capture)
    return retx + fast


def summarize(capture: Capture, sample_indices=None, t_fdr_ms: Optional[float] = None) -> MetricsSummary:
    """Per-device metric summary, optionally over sampled 1-second slots.

    With sample_indices the averages reproduce the random-sampling
    workflow: only frames whose slot was drawn and only the drawn
    throughput windows contribute.  Retransmission percentages are byte
    ratios over the whole capture either way; sampling a ratio of
    totals is not meaningful.  Passing every index equals not sampling.

    Each average is an exactly rounded sum (math.fsum) over its count,
    so it does not depend on the order frames and slots are visited in.
    The summary reads only the capture's SlotTable: at the header's
    t_fdr_ms no record or frame is touched.  ValueError when t_fdr_ms
    breaks the value rule, or for an empty sample of a run that has
    slots, which has no average.
    """
    table = capture.slot_table(t_fdr_ms)
    population = table.population
    slots = range(population)
    if sample_indices is not None:
        slots = set(sample_indices)
        bad = sorted(i for i in slots if not 0 <= i < population)
        if bad:
            raise ValueError(f"sample indices out of range [0, {population}): {bad}")
        if population and not slots:
            raise ValueError(f"an empty sample of the {population} slots has no average")

    rates, windows = table.rates, max(1, population)
    rows = []
    for k, dev in enumerate(table.devices):
        base = k * windows
        throughput = math.fsum([rates[base + i] for i in slots]) / len(slots) if population else 0.0
        avg_delay, max_delay = table.delay_figures(k, slots)
        retx, fast = _retx_pcts(table.wire_bytes[dev])
        rows.append(
            DeviceMetrics(
                device=dev,
                avg_throughput_kbps=throughput,
                avg_delay_ms=avg_delay,
                max_delay_ms=max_delay,
                retx_pct=retx,
                fast_retx_pct=fast,
                wasted_bw_pct=retx + fast,
            )
        )
    return MetricsSummary(
        devices=tuple(rows),
        population_slots=population,
        selected_slots=len(slots),
        frames_counted=table.frames_counted(slots),
        flagged_delays=table.flagged,
    )


# -- slot table ------------------------------------------------------------------

# the SlotTable fields kept in arrays, and their typecodes
_TABLE_ARRAYS = ("rates", "counts", "tops", "part_ends", "partials")
_TABLE_TYPECODES = "dqdqd"


@dataclass(frozen=True)
class SlotTable:
    """Every figure a summary and the throughput series read, per device
    and 1-second slot, so a summary of any set of slots costs
    O(devices x slots) and touches no record or frame.  Built once by
    the parse (_parse) and kept in the column cache.

    population  Capture.population_slots()
    devices     the ids with a summary row: every id of a record, null
                left out, sorted
    wire_bytes  device id -> {class: uplink wire bytes}, for every id,
                None included
    flagged     frames whose delay is below minus the skew bound, in any
                slot

    The arrays hold one row per id of ``devices``, in that order.
    rates       'd', max(1, population) 1-second window rates in kbit/s
                per row: the window arrivals' delivered uplink wire
                bytes, added up as integers, times 8 over 1000

    Entry row * population + k of the arrays below describes the frames
    of that row's device the summary counts in slot k: unflagged, with a
    timestamp in slot k.
    counts      'q', how many; 0 for a device without frames there
    tops        'd', their largest delay; 0.0 when there is none
    part_ends   'q', where the entry's partials end in ``partials``;
                they start where the previous entry's end
    partials    'd', doubles whose exact sum is the exact sum of the
                entry's delays, largest first (the rounded sum, then the
                rounded remainders)

    The value rule keeps every delay finite and far below the largest
    float, so no sum overflows, and never -0.0, so equal delays are the
    same double and a max needs no tie-break.  Every array's length
    follows from population and devices, except that of partials: the
    last entry's part_end.
    """

    population: int
    devices: list
    rates: array
    wire_bytes: dict
    flagged: int
    counts: array
    tops: array
    part_ends: array
    partials: array

    def series(self) -> dict:
        """Device id -> its 1-second window rates, a memoryview of its
        row of ``rates``, so no value is copied."""
        windows, rates = max(1, self.population), memoryview(self.rates)
        return {dev: rates[k * windows:(k + 1) * windows] for k, dev in enumerate(self.devices)}

    def frames_counted(self, slots) -> int:
        counts, population = self.counts, self.population
        return sum(counts[row * population + s] for row in range(len(self.devices)) for s in slots)

    def delay_figures(self, row: int, slots) -> tuple:
        """(exactly rounded mean, max()) of the counted delays of the
        device in row ``row`` in ``slots``, bit for bit; (NaN, NaN) when
        it has none there."""
        counts, ends, partials = self.counts, self.part_ends, self.partials
        base = row * self.population
        drawn = [base + s for s in slots if counts[base + s]]
        if not drawn:
            return math.nan, math.nan
        parts = chain.from_iterable(partials[ends[k - 1] if k else 0:ends[k]] for k in drawn)
        return math.fsum(parts) / sum(counts[k] for k in drawn), max(self.tops[k] for k in drawn)


def _fold_delays(frames, epoch: int, skew_bound_ms: float, population: int, devices: list, t_fdr_ms) -> dict:
    """The SlotTable fields that depend on t_fdr_ms, from ``frames``, the
    frame columns as Capture.device_frames() yields them, read one device
    at a time, with a row per id of ``devices``, which holds their ids in
    the same order; ``epoch`` and ``skew_bound_ms`` are the header's."""
    flag_below = -skew_bound_ms
    row_of = {dev: row for row, dev in enumerate(devices)}
    zeros = bytes(8 * len(devices) * population)
    counts, tops, part_ends = array("q", zeros), array("d", zeros), array("q", zeros)
    partials = array("d")
    flagged = 0
    for dev, seqs, stamps, arrivals in frames:
        slots = defaultdict(list)  # slot -> the delays counted there
        for ts, arrival in zip(stamps, arrivals):
            t_ci = arrival - (ts + t_fdr_ms)
            if t_ci < flag_below:
                flagged += 1
                continue
            slot = -((ts - epoch) // -1000) - 1  # _slot_of_timestamp, inlined
            if 0 <= slot < population:
                slots[slot].append(t_ci)
        base = row_of[dev] * population
        for slot in sorted(slots):
            values = slots[slot]
            k = base + slot
            counts[k] = len(values)
            tops[k] = max(values)
            partials.extend(_exact_parts(values))
            part_ends[k] = len(partials)
        del seqs, stamps, arrivals, slots  # before the next device's frames are read
    return dict(
        flagged=flagged,
        counts=counts,
        tops=tops,
        # an entry without frames ends where the one before it does
        part_ends=array("q", accumulate(part_ends, max)),
        partials=partials,
    )


def _exact_parts(values: list) -> list:
    """Doubles whose exact sum is that of ``values``: their rounded sum,
    then the rounded remainders, none for a zero sum."""
    parts, rest = [], list(values)
    total = math.fsum(rest)
    while total:
        parts.append(total)
        rest.append(-total)
        total = math.fsum(rest)
    return parts


# -- output ----------------------------------------------------------------

# The CSV rule: no cell ever needs quoting (ids and counts are ints,
# figures have a fixed number of decimals, column names are plain
# words), so a row is its cells joined by commas, and every line ends
# in "\n".


def _write_csv(path, columns, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(lines)


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
    _write_csv(path, SUMMARY_COLUMNS, (",".join(_summary_cells(m)) + "\n" for m in summary.devices))


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

# one delay_series.csv row of a FrameDelay, by the CSV rule: its
# device_id, frame_seq and frame_timestamp are ints, and its times get
# three decimals
_DELAY_ROW = "%s,%s,%s,%.3f,%.3f,%.3f,%d\n"


def write_delay_series_csv(rows, path) -> None:
    """Write delay rows in FrameDelay field order: FrameDelay tuples, or
    the plain tuples of delay_rows as they are computed."""
    _write_csv(path, DELAY_COLUMNS, (_DELAY_ROW % row for row in rows))


def write_throughput_series_csv(series: dict, path) -> None:
    """One row per device and 1-second window; window k starts k seconds
    after the epoch."""
    _write_csv(
        path,
        ["device", "window_start_s", "kbit_per_s"],
        ("%s,%d,%.3f\n" % (dev, k, value) for dev in sorted(series) for k, value in enumerate(series[dev])),
    )
