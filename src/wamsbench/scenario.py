"""Scenario files: flat INI text describing one simulated deployment.

A scenario names the fleet (device count, signal shape, per-device
overrides), the channel in each direction, and the run framing (seed,
duration, epoch).  The format is deliberately hand-editable; every key
has a default, and unknown keys and sections are errors so typos fail
loudly instead of silently meaning nothing.

Sections:
  [scenario]   run framing: name, seed, duration_s, epoch_utc_ms,
               devices, t_dcs_ms, skew_bound_ms, dcs_outages
  [uplink]     device-to-concentrator channel defaults
  [downlink]   concentrator-to-device channel defaults
  [device]     defaults for every device (timing, signal, p_seg)
  [device N]   overrides for device N: any [device] key except t_fdr_ms,
               plus channel fields prefixed uplink_ / downlink_ (e.g.
               uplink_t_p_ms).  The capture header carries one t_fdr_ms,
               which the analyzer subtracts from every device's delays,
               so t_fdr_ms is set once, under [device].
"""

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .fdr import DisturbanceEvent, FdrConfig, SignalModel
from .simnet import ChannelParams, JitterSpec


# Simulated wall times are exact integer microseconds divided by 1000.0,
# which equals their 3-decimal rounding only below 2**43 ms; this bound
# (about the year 2109) leaves more than a century of run time under it.
MAX_EPOCH_UTC_MS = 2**42


class ScenarioError(Exception):
    """Scenario file invalid; message names the offending section/key."""


@dataclass(frozen=True)
class DeviceSpec:
    config: FdrConfig
    uplink: ChannelParams
    downlink: ChannelParams


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: str
    duration_s: int
    epoch_utc_ms: int
    t_dcs_ms: float
    default_t_fdr_ms: float
    skew_bound_ms: float
    devices: tuple
    outages: tuple

    @property
    def frames_expected(self) -> int:
        return len(self.devices) * self.duration_s * 10


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


class _Section:
    """One INI section with typed, defaulted, consumed-once access."""

    def __init__(self, name: str, data: dict):
        self.name = name
        self.data = dict(data)

    def _take(self, key, default, conv):
        if key not in self.data:
            return default
        raw = self.data.pop(key)
        try:
            return conv(raw)
        except (TypeError, ValueError) as err:
            raise ScenarioError(f"[{self.name}] {key}: {err}") from None

    def take_str(self, key: str, default: Optional[str] = None):
        return self._take(key, default, str)

    def take_int(self, key: str, default: Optional[int] = None):
        return self._take(key, default, int)

    def take_float(self, key: str, default: Optional[float] = None):
        return self._take(key, default, _finite_float)

    def finish(self) -> None:
        if self.data:
            stray = ", ".join(sorted(self.data))
            raise ScenarioError(f"[{self.name}]: unknown key(s): {stray}")


def _parse_jitter(sec: _Section, prefix: str = "") -> JitterSpec:
    kind = sec.take_str(prefix + "jitter", "constant")
    median = sec.take_float(prefix + "jitter_median_ms", 0.0)
    sigma = sec.take_float(prefix + "jitter_sigma", 0.0)
    cap = sec.take_float(prefix + "jitter_cap_ms", 0.0)
    try:
        return JitterSpec(kind, median, sigma, cap)
    except ValueError as err:
        raise ScenarioError(f"[{sec.name}] {prefix}jitter: {err}") from None


def _parse_channel(sec: _Section, base: ChannelParams, prefix: str = "") -> ChannelParams:
    has_jitter = any(k.startswith(prefix + "jitter") for k in sec.data)
    t_p = sec.take_float(prefix + "t_p_ms", base.t_p_ms)
    r = sec.take_float(prefix + "r_bps", base.r_ul_bps)
    p_loss = sec.take_float(prefix + "p_loss", base.p_loss)
    jitter = _parse_jitter(sec, prefix) if has_jitter else base.jitter
    try:
        return ChannelParams(t_p_ms=t_p, r_ul_bps=r, jitter=jitter, p_loss=p_loss)
    except ValueError as err:
        label = prefix.rstrip("_") or "channel"
        raise ScenarioError(f"[{sec.name}] {label}: {err}") from None


def _parse_disturbances(sec: _Section, epoch_utc_ms: int) -> tuple:
    raw = sec.take_str("disturbance", "")
    events = []
    for item in filter(None, (part.strip() for part in raw.split(";"))):
        try:
            at_s, step_hz, tau_s = (float(x) for x in item.split(":"))
            events.append(
                DisturbanceEvent(
                    at_utc_ms=epoch_utc_ms + round(at_s * 1000),
                    step_hz=step_hz,
                    tau_s=tau_s,
                )
            )
        except ValueError as err:
            raise ScenarioError(
                f"[{sec.name}] disturbance: {item!r} (want at_s:step_hz:tau_s): {err}"
            ) from None
    return tuple(events)


def _device_fields(sec: _Section, defaults: dict, epoch_utc_ms: int) -> dict:
    fields = dict(defaults)
    fields["p_seg"] = sec.take_float("p_seg", fields["p_seg"])
    for key in ("f_nominal", "f_wander_amp", "f_wander_period_s", "noise_sigma", "v_nominal"):
        fields[key] = sec.take_float(key, fields[key])
    dist = _parse_disturbances(sec, epoch_utc_ms)
    if dist:
        fields["disturbances"] = dist
    return fields


def _parse_outages(sec: _Section) -> tuple:
    raw = sec.take_str("dcs_outages", "")
    windows = []
    for item in filter(None, (part.strip() for part in raw.split(","))):
        try:
            start_s, _, end_s = item.partition("-")
            window = (float(start_s), float(end_s))
        except ValueError as err:
            raise ScenarioError(f"[scenario] dcs_outages: {item!r}: {err}") from None
        if not 0 <= window[0] < window[1]:
            raise ScenarioError(f"[scenario] dcs_outages: {item!r}: want 0 <= start < end")
        windows.append(window)
    return tuple(windows)


def parse_scenario(text: str, name_hint: str = "scenario") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ScenarioError(f"not parseable as INI: {err}") from None

    def section(name: str) -> _Section:
        return _Section(name, parser[name] if parser.has_section(name) else {})

    sc = section("scenario")
    name = sc.take_str("name", name_hint)
    seed = sc.take_str("seed", name)
    duration_s = sc.take_int("duration_s", 60)
    epoch_utc_ms = sc.take_int("epoch_utc_ms", 1_700_000_000_000)
    n_devices = sc.take_int("devices", 1)
    t_dcs_ms = sc.take_float("t_dcs_ms", 0.0)
    skew_bound_ms = sc.take_float("skew_bound_ms", 0.0)
    outages = _parse_outages(sc)
    sc.finish()
    if duration_s <= 0:
        raise ScenarioError("[scenario] duration_s: must be positive")
    if not 1 <= n_devices <= 65_535:
        raise ScenarioError("[scenario] devices: must be in 1..65535")
    if epoch_utc_ms % 100 != 0 or epoch_utc_ms < 0:
        raise ScenarioError("[scenario] epoch_utc_ms: must be a non-negative multiple of 100")
    if epoch_utc_ms >= MAX_EPOCH_UTC_MS:
        raise ScenarioError(f"[scenario] epoch_utc_ms: must be below 2**42 ({MAX_EPOCH_UTC_MS})")

    up_sec = section("uplink")
    uplink = _parse_channel(up_sec, ChannelParams(r_ul_bps=384_000.0))
    up_sec.finish()
    down_sec = section("downlink")
    downlink = _parse_channel(down_sec, ChannelParams(r_ul_bps=7_200_000.0))
    down_sec.finish()

    dev_sec = section("device")
    t_fdr_ms = dev_sec.take_float("t_fdr_ms", 0.0)
    # the defaults are FdrConfig's p_seg and SignalModel's fields
    base_fields = _device_fields(dev_sec, dict(vars(SignalModel()), p_seg=FdrConfig.p_seg), epoch_utc_ms)
    dev_sec.finish()

    known = {"scenario", "uplink", "downlink", "device"}
    by_id = {}
    for sec_name in parser.sections():
        if sec_name in known:
            continue
        parts = sec_name.split()
        if len(parts) != 2 or parts[0] != "device" or not parts[1].isdigit():
            raise ScenarioError(f"[{sec_name}]: unknown section")
        dev_id = int(parts[1])
        if not 1 <= dev_id <= n_devices:
            raise ScenarioError(f"[{sec_name}]: device id outside 1..{n_devices}")
        by_id[dev_id] = section(sec_name)

    devices = []
    for dev_id in range(1, n_devices + 1):
        sec = by_id.get(dev_id, _Section(f"device {dev_id}", {}))
        if "t_fdr_ms" in sec.data:
            raise ScenarioError(f"[{sec.name}] t_fdr_ms: set only under [device], for every device")
        fields = _device_fields(sec, base_fields, epoch_utc_ms)
        dev_up = _parse_channel(sec, uplink, prefix="uplink_")
        dev_down = _parse_channel(sec, downlink, prefix="downlink_")
        sec.finish()
        p_seg = fields.pop("p_seg")
        try:
            config = FdrConfig(device_id=dev_id, t_fdr_ms=t_fdr_ms, p_seg=p_seg, signal=SignalModel(**fields))
        except ValueError as err:
            raise ScenarioError(f"[device {dev_id}]: {err}") from None
        devices.append(DeviceSpec(config=config, uplink=dev_up, downlink=dev_down))

    return Scenario(
        name=name,
        seed=seed,
        duration_s=duration_s,
        epoch_utc_ms=epoch_utc_ms,
        t_dcs_ms=t_dcs_ms,
        default_t_fdr_ms=t_fdr_ms,
        skew_bound_ms=skew_bound_ms,
        devices=tuple(devices),
        outages=outages,
    )


def builtin_scenarios() -> list:
    root = resources.files("wamsbench") / "scenarios"
    return sorted(p.name[: -len(".scenario")] for p in root.iterdir() if p.name.endswith(".scenario"))


def load_scenario(ref: str) -> Scenario:
    """Load a scenario by file path or bundled name."""
    path = Path(ref)
    if path.is_file():
        return parse_scenario(path.read_text(encoding="utf-8"), name_hint=path.stem)
    candidate = resources.files("wamsbench") / "scenarios" / f"{ref}.scenario"
    if candidate.is_file():
        return parse_scenario(candidate.read_text(encoding="utf-8"), name_hint=ref)
    raise ScenarioError(
        f"no scenario file at {ref!r}; bundled scenarios: {', '.join(builtin_scenarios())}"
    )
