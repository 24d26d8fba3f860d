"""Random scenarios keep every cross-log invariant.

The bundled scenarios and the few hand-written ones (test_sim's OUTAGE
and JITTERY) pin exact figures; here Hypothesis writes scenario text
over the whole space the simulator accepts (Claessen and Hughes,
"QuickCheck", ICFP 2000) and checks only what must hold for every run:
how the capture, the measurements log, the device counters, the
loader and an independent reading of the capture agree with each other.
A fault that shows only with outages, high loss, split frames or jitter
caps past the retransmission timeout fails here.  The draws are
derandomized, so a failure replays.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_records
from test_analyzer import _assert_records_are_the_oracle_s, _cache_of, _no_parse, _state, _wait_past_ctime
from wamsbench import analyzer
from wamsbench.analyzer import load_capture, summarize
from wamsbench.frame import FRAME_LEN
from wamsbench.scenario import parse_scenario
from wamsbench.sim import run_simulation


@st.composite
def _jitter(draw, prefix: str) -> list:
    """The jitter keys of a channel: each kind, capped at up to 400 ms,
    past the 200 ms minimum retransmission timeout."""
    kind = draw(st.sampled_from(["constant", "exponential", "lognormal"]))
    cap = draw(st.sampled_from([0.0, 5.0, 30.0, 150.0, 400.0]))
    median = draw(st.sampled_from([0.0, 2.0, 8.0, 40.0]))
    if kind == "constant":
        median = min(median, cap)
    elif cap == 0.0:
        median = 0.0
    return [f"{prefix}jitter = {kind}", f"{prefix}jitter_median_ms = {median}",
            f"{prefix}jitter_sigma = {draw(st.sampled_from([0.0, 0.4, 1.0]))}", f"{prefix}jitter_cap_ms = {cap}"]


_T_P_MS = st.sampled_from([0.0, 10.0, 50.0, 120.0, 300.0])
_R_BPS = st.sampled_from([9_600.0, 19_200.0, 64_000.0, 384_000.0])
_P_LOSS = st.sampled_from([0.0, 0.01, 0.05, 0.2])
_P_SEG = st.sampled_from([0, 0.15, 1])


@st.composite
def scenario_text(draw) -> str:
    """A scenario file: 1-4 devices for 3-25 s, an uplink of any jitter
    kind and loss up to 0.2, a lossy downlink, p_seg of 0, 0.15 or 1,
    t_fdr_ms of 0 or 1.5, an outage or none, and per-device overrides."""
    devices = draw(st.integers(1, 4))
    duration = draw(st.integers(3, 25))
    scenario = ["[scenario]", "name = random", f"duration_s = {duration}", f"devices = {devices}"]
    if draw(st.booleans()):
        start = draw(st.integers(0, duration - 1))
        scenario.append(f"dcs_outages = {start}-{draw(st.integers(start + 1, duration + 2))}")
    uplink = ["[uplink]", f"t_p_ms = {draw(_T_P_MS)}", f"r_bps = {draw(_R_BPS)}", f"p_loss = {draw(_P_LOSS)}",
              *draw(_jitter(""))]
    downlink = ["[downlink]", f"t_p_ms = {draw(_T_P_MS)}", f"p_loss = {draw(_P_LOSS)}"]
    device = ["[device]", f"p_seg = {draw(_P_SEG)}", f"t_fdr_ms = {draw(st.sampled_from([0, 1.5]))}"]
    overrides = []
    for dev in draw(st.sets(st.integers(1, devices), max_size=2)):
        overrides += [f"[device {dev}]", f"p_seg = {draw(_P_SEG)}", f"uplink_t_p_ms = {draw(_T_P_MS)}",
                      f"uplink_p_loss = {draw(_P_LOSS)}", *draw(_jitter("uplink_"))]
    return "\n".join(scenario + uplink + downlink + device + overrides) + "\n"


def _log(path) -> tuple:
    """(trailer, the records between it and the header) of a JSON-lines
    log, each decoded."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return lines[-1]["integrity"], lines[1:-1]


def _first_copy_payload(reading) -> Counter:
    """Device id -> the payload bytes of its first uplink copies in the
    oracle's ``reading`` of a capture."""
    payload = Counter()
    for record in reading.records:
        if record.direction == "UPLINK" and record.retransmission_class == "FIRST":
            payload[record.device_id] += record.payload_bytes
    return payload


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=scenario_text())
def test_random_scenario_keeps_every_invariant(text, tmp_path_factory):
    scenario = parse_scenario(text)
    result = run_simulation(scenario, tmp_path_factory.mktemp("run"))
    again = run_simulation(scenario, tmp_path_factory.mktemp("again"))
    # two runs of one scenario write identical bytes
    for path, other in [(result.capture_path, again.capture_path),
                        (result.measurements_path, again.measurements_path)]:
        assert path.read_bytes() == other.read_bytes()

    # the trailer equals the loaded counts; no line is skipped, and no
    # frame is completed twice
    path = result.capture_path
    _cache_of(path).unlink(missing_ok=True)
    _wait_past_ctime(path)  # so a warm load trusts the cache the cold one writes
    cap = load_capture(path)
    assert cap.skipped_by_reason == dict.fromkeys(analyzer.SKIP_REASONS, 0)
    assert cap.skipped_lines == 0
    assert cap.duplicate_completions == 0
    assert cap.counts == {key: cap.integrity[key] for key in analyzer.TRAILER_KEYS}
    assert cap.integrity_problems() == []
    # the table's uplink half, the frames and the counts equal the
    # oracle's reading of the capture
    _assert_records_are_the_oracle_s(cap, path)
    # a warm load, and its summary, equal the cold one
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(analyzer, "_parse", _no_parse)
        warm = load_capture(path)
        assert _state(warm) == _state(cap)
        assert summarize(warm) == summarize(cap)

    # the measurement rows are the capture's frame_complete entries, as
    # multisets, and no frame has two rows
    trailer, rows = _log(result.measurements_path)
    rows = [(row["device_id"], row["frame_seq"], row["frame_timestamp"], row["arrival_time"]) for row in rows]
    assert trailer["rows"] == len(rows) == result.rows
    reading = oracle_records.read(path)
    assert Counter(rows) == Counter(reading.frames)
    assert len({row[:2] for row in rows}) == len(rows)

    # per device: every generated frame was sent or dropped offline, each
    # sent frame put one first copy on the wire, and no more rows than
    # sent frames
    per_device = Counter(row[0] for row in rows)
    first_payload = _first_copy_payload(reading)
    for dev in result.devices:
        assert dev.frames_generated == dev.frames_sent + dev.frames_dropped_offline
        assert first_payload[dev.device_id] == FRAME_LEN * dev.frames_sent
        assert per_device[dev.device_id] <= dev.frames_sent
