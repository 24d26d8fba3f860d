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
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter
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


@dataclass(frozen=True)
class Capture:
    """A parsed capture log, kept as plain tuples.

    records   one tuple per record line, in file order: (wall_time,
              device_id, direction, payload_bytes, header_bytes,
              retransmission_class)
    frames    one tuple per frame_complete entry, sorted by (device_id,
              frame_seq): (device_id, frame_seq, frame_timestamp,
              arrival_time_of_last_byte)
    counts    what the parse found, under the TRAILER_KEYS names
    """

    header: dict
    records: list
    frames: list
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
        devices = {rec[1] for rec in self.records}
        devices.discard(None)
        return sorted(devices)

    def population_slots(self) -> int:
        """Number of 1-second population slots this capture covers.

        The configured duration wins; a live capture without one gets
        the smallest slot count covering every frame and arrival.
        """
        duration = self.header.get("duration_s")
        if duration:
            return int(duration)
        epoch = self.epoch_utc_ms
        last_frame = max((_slot_of_timestamp(ts, epoch) + 1 for _, _, ts, _ in self.frames), default=0)
        last_arrival = max(
            (int((wall - epoch) // 1000) + 1 for wall, *_ in self.records if wall is not None),
            default=0,
        )
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
    warning and counting what the integrity trailer is checked against."""
    path = Path(path)
    header = None
    integrity = None
    records: list = []
    frames: list = []
    skipped = uplink = ack = dropped = 0
    add_record, add_frames = records.append, frames.extend
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                obj, end = _decode(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if end != len(line) or obj.__class__ is not dict:
                skipped += 1
                continue
            if "header" in obj:
                if header is None and isinstance(obj["header"], dict):
                    header = obj["header"]
                else:
                    skipped += 1
                continue
            if "integrity" in obj:
                if isinstance(obj["integrity"], dict):
                    integrity = obj["integrity"]
                else:
                    skipped += 1
                continue
            try:
                rec = (
                    obj["wall_time"],
                    obj["device_id"],
                    obj["direction"],
                    obj["payload_bytes"],
                    obj["header_bytes"],
                    obj["retransmission_class"],
                )
                complete = obj.get("frame_complete")
                if complete:
                    dev = rec[1]
                    complete = [
                        (dev, e["frame_seq"], e["frame_timestamp"], e["arrival_time_of_last_byte"])
                        for e in complete
                    ]
            except (KeyError, TypeError):
                skipped += 1
                continue
            add_record(rec)
            if complete:
                add_frames(complete)
            if rec[2] == "UPLINK":
                uplink += 1
            elif rec[2] == "ACK":
                ack += 1
            if rec[0] is None:
                dropped += 1
    if header is None:
        raise CaptureError(f"{path}: no header line, not a capture log")
    if skipped:
        log.warning("%s: skipped %d corrupt lines", path, skipped)
    frames.sort(key=itemgetter(0, 1))
    counts = dict(records=len(records), uplink_copies=uplink, ack_copies=ack, dropped_copies=dropped)
    return Capture(header, records, frames, integrity, skipped, counts)


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
    t_fdr = capture.t_fdr_ms if t_fdr_ms is None else t_fdr_ms
    t_dcs = capture.t_dcs_ms if t_dcs_ms is None else t_dcs_ms
    flag_below = -capture.skew_bound_ms
    out = []
    add, make = out.append, FrameDelay._make
    for dev, seq, ts, arrival in capture.frames:
        t_ci = arrival - (ts + t_fdr)
        add(make((dev, seq, ts, arrival, t_ci, t_ci + t_fdr + t_dcs, t_ci < flag_below)))
    return out


def _uplink_totals(capture: Capture, window_s: float) -> tuple:
    """One pass over the records: per-device delivered kbit/s per window,
    and per-device uplink wire bytes by retransmission class."""
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    windows = max(1, math.ceil(capture.population_slots() / window_s))
    devices = capture.devices()
    series = {dev: [0.0] * windows for dev in devices}
    by_class = {dev: {} for dev in devices}
    epoch = capture.epoch_utc_ms
    span_ms = 1000.0 * window_s
    floor = math.floor
    for wall, dev, direction, payload, header, cls in capture.records:
        if direction != "UPLINK" or dev is None:
            continue
        wire = payload + header
        totals = by_class[dev]
        totals[cls] = totals.get(cls, 0) + wire
        if payload and wall is not None:
            w = floor((wall - epoch) / span_ms)
            if 0 <= w < windows:
                series[dev][w] += wire * 8 / span_ms
    return series, by_class


def throughput_series(capture: Capture, window_s: float = 1.0) -> dict:
    """Per-device delivered-byte rate in kbit/s, one value per window."""
    return _uplink_totals(capture, window_s)[0]


def _uplink_wire_bytes(records) -> Counter:
    totals: Counter = Counter()
    for _, _, direction, payload, header, cls in records:
        if direction == "UPLINK":
            totals[cls] += payload + header
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
    return _retx_pcts(_uplink_wire_bytes(capture.records))


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
    """Everything the analyze command writes: (summarize(...),
    one_way_delays(...), throughput_series(capture, window_s)).

    The summary's 1-second windows come from the same pass over the
    records as the series when window_s is 1; the caller then owns that
    series, which the summary does not keep.
    """
    series, by_class = _uplink_totals(capture, window_s=1.0)
    summary = _summarize(capture, sample_indices, t_fdr_ms, series, by_class)
    if window_s != 1.0:
        series = throughput_series(capture, window_s)
    return summary, one_way_delays(capture, t_fdr_ms, t_dcs_ms), series


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
    per_dev_delays = defaultdict(list)
    flagged = 0
    frames_counted = 0
    for dev, _, ts, arrival in capture.frames:
        t_ci = arrival - (ts + t_fdr)
        if t_ci < flag_below:
            flagged += 1
            continue
        # _slot_of_timestamp, inlined
        if -((ts - epoch) // -1000) - 1 in slots:
            frames_counted += 1
            per_dev_delays[dev].append(t_ci)

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


def _delay_cells(d: FrameDelay) -> list:
    return [
        d.device_id,
        d.frame_seq,
        d.frame_timestamp,
        f"{d.arrival_time:.3f}",
        f"{d.t_ci_ms:.3f}",
        f"{d.t_ete_ms:.3f}",
        int(d.flagged),
    ]


def write_delay_series_csv(delays, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DELAY_COLUMNS)
        if all(d[0].__class__ is int and d[1].__class__ is int for d in delays):
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
