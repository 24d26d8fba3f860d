"""An oracle for the analyzer's record parse: a plain, slow reading of a
capture log that keeps every record, and the fold of those records that
the slot table's uplink half holds.

The loader folds each record line as it reads it and keeps no record,
so a test cannot ask it which records a capture holds.  It asks this
module instead, and then checks the loader's counts, table and frames
against what is read here.  Everything here is written from the rules
the analyzer's docstrings state, line by line and field by field, with
no column, no cache and no streaming:

  lines       the file as UTF-8 text with universal newlines, split at
              "\\n" only, each line stripped and, unless blank, decoded
              as one JSON value
  header      the first line holding a "header" object; a second one,
              or one whose value is not an object, is corrupt
  trailer     the last line holding an "integrity" object; one whose
              value is not an object is corrupt
  records     every other object, kept when each field fits its rule
              and it follows the header (the header-first rule)
  frames      one completion per (device_id, frame_seq): of the entries
              of a kept record that complete it, the one with the
              smallest (arrival, frame_timestamp), the one a concentrator
              reading the copies in arrival order keeps; the others are
              duplicate completions
"""

import json
import math
from typing import NamedTuple, Optional

DIRECTIONS = ("UPLINK", "ACK")
CLASSES = ("FIRST", "RTO_RETX", "FAST_RETX")
MS_LIMIT = 2**63


class Record(NamedTuple):
    wall_time: Optional[float]  # None for a dropped copy
    device_id: Optional[int]  # None for a null id
    direction: str
    payload_bytes: int
    header_bytes: int
    retransmission_class: str


class Reading(NamedTuple):
    header: Optional[dict]
    records: list  # Record per kept record line, in file order
    frames: list  # (device_id, frame_seq, frame_timestamp, arrival) per entry, in file order
    skipped_lines: int
    integrity: Optional[dict]

    def kept_frames(self) -> list:
        """The frames the loader keeps, sorted by (device_id, frame_seq):
        per (device_id, frame_seq), the entry with the smallest (arrival,
        frame_timestamp)."""
        kept = {}
        for dev, seq, ts, arrival in self.frames:
            best = kept.get((dev, seq))
            if best is None or (arrival, ts) < (best[3], best[2]):
                kept[dev, seq] = (dev, seq, ts, arrival)
        return sorted(kept.values())

    def duplicate_completions(self) -> int:
        """The entries kept_frames leaves out."""
        return len(self.frames) - len(self.kept_frames())

    def counts(self) -> dict:
        """The trailer's counters, as the loader computes them."""
        directions = [record.direction for record in self.records]
        return {
            "records": len(self.records),
            "uplink_copies": directions.count("UPLINK"),
            "ack_copies": directions.count("ACK"),
            "dropped_copies": sum(record.wall_time is None for record in self.records),
        }


def _is_int(value, low, high) -> bool:
    """An int (a bool is one, as arrays take it) in [low, high)."""
    return type(value) in (int, bool) and low <= value < high


def _wall(value) -> Optional[float]:
    """The wall time as the double it reads as: ValueError unless it is
    null or a number that converts to a finite double."""
    if value is None:
        return None
    if type(value) not in (int, float, bool):
        raise ValueError(value)
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(value) from None
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _frames(dev, complete) -> list:
    """The frame entries of a record line of device ``dev``: ValueError
    unless each one fits its column (frame_seq uint32, frame_timestamp
    int64, an arrival of magnitude below 2**63) and the id is not
    null."""
    if not complete:
        return []
    if dev is None or type(complete) is not list:
        raise ValueError(complete)
    out = []
    for entry in complete:
        if type(entry) is not dict:
            raise ValueError(entry)
        seq, ts, arrival = entry["frame_seq"], entry["frame_timestamp"], entry["arrival_time_of_last_byte"]
        if not (_is_int(seq, 0, 2**32) and _is_int(ts, -2**63, 2**63)):
            raise ValueError(entry)
        if type(arrival) not in (int, float, bool) or not -MS_LIMIT < arrival < MS_LIMIT:
            raise ValueError(arrival)
        out.append((dev, seq, ts, arrival + 0.0))  # -0.0 reads as 0.0
    return out


def _record(obj) -> tuple:
    """(Record, its frame entries) of a decoded record line; ValueError
    or KeyError when it breaks a rule or misses a key."""
    wall = _wall(obj["wall_time"])
    payload, head = obj["payload_bytes"], obj["header_bytes"]
    if not (_is_int(payload, 0, 2**16) and _is_int(head, 0, 2**16)):
        raise ValueError((payload, head))
    dev, direction, cls = obj["device_id"], obj["direction"], obj["retransmission_class"]
    if dev is not None and not (type(dev) is int and 0 <= dev < 2**16):
        raise ValueError(dev)
    if direction not in DIRECTIONS or cls not in CLASSES:
        raise ValueError((direction, cls))
    frames = _frames(dev, obj.get("frame_complete"))
    return Record(wall, dev, direction, payload, head, cls), frames


def read(path) -> Reading:
    """The oracle's reading of the capture log at ``path``."""
    header = integrity = None
    records, frames, skipped = [], [], 0
    with open(path, encoding="utf-8") as fh:  # universal newlines
        text = fh.read()
    for line in text.split("\n"):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if type(obj) is not dict:
            skipped += 1
        elif "header" in obj:
            if header is None and type(obj["header"]) is dict:
                header = obj["header"]
            else:
                skipped += 1
        elif "integrity" in obj:
            if type(obj["integrity"]) is dict:
                integrity = obj["integrity"]
            else:
                skipped += 1
        elif header is None:
            skipped += 1
        else:
            try:
                record, entries = _record(obj)
            except (KeyError, ValueError):
                skipped += 1
                continue
            records.append(record)
            frames.extend(entries)
    return Reading(header, records, frames, skipped, integrity)


def uplink_half(reading: Reading, population: int) -> tuple:
    """(series, wire_bytes) of the records of ``reading`` over
    ``population`` slots, by the analyzer's definitions.

    series      device id -> its max(1, population) 1-second window
                rates in kbit/s: the wire bytes of each delivered uplink
                copy that carries payload, added up as integers in the
                window of its wall time, then times 8 over 1000 once;
                null ids left out
    wire_bytes  device id, None for null -> {class: uplink wire bytes}
                with the classes that have any, for every id of a record
    """
    epoch = reading.header.get("epoch_utc_ms") or 0
    windows = max(1, population)
    ids = sorted({record.device_id for record in reading.records}, key=lambda dev: (dev is not None, dev or 0))
    window_bytes = {dev: [0] * windows for dev in ids if dev is not None}
    wire_bytes = {dev: dict.fromkeys(CLASSES, 0) for dev in ids}
    for record in reading.records:
        if record.direction != "UPLINK":
            continue
        wire = record.payload_bytes + record.header_bytes
        wire_bytes[record.device_id][record.retransmission_class] += wire
        if record.payload_bytes and record.wall_time is not None and record.device_id is not None:
            window = math.floor((record.wall_time - epoch) / 1000.0)
            if 0 <= window < windows:
                window_bytes[record.device_id][window] += wire
    series = {dev: [total * 8 / 1000.0 for total in row] for dev, row in window_bytes.items()}
    return series, {dev: {cls: n for cls, n in totals.items() if n} for dev, totals in wire_bytes.items()}
