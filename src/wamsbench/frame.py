"""Measurement frame type and its 55-byte wire codec.

On-wire layout (all multi-byte fields big-endian):

    | Offset | Size | Field          | Encoding                        |
    |--------|------|----------------|---------------------------------|
    | 0      | 2    | magic          | 0xAA01                          |
    | 2      | 2    | device_id      | uint16                          |
    | 4      | 4    | frame_seq      | uint32                          |
    | 8      | 8    | utc_timestamp  | uint64, ms since Unix epoch     |
    | 16     | 8    | frequency      | IEEE 754 binary64, Hz           |
    | 24     | 8    | voltage_mag    | IEEE 754 binary64, per-unit     |
    | 32     | 8    | voltage_angle  | IEEE 754 binary64, degrees      |
    | 40     | 1    | status         | uint8 bitfield                  |
    | 41     | 12   | reserved       | zero fill                       |
    | 53     | 2    | crc            | CRC-16/CCITT-FALSE over [0:53)  |

Total length is exactly 55 bytes.  The magic prefix makes the stream
self-delimiting so a receiver can resynchronize after corruption; the
CRC (poly 0x1021, init 0xFFFF, no reflection, no final xor) covers
everything before it.  Reserved bytes are written as zeros and ignored
on decode.

The real recorder's field layout is not public, so this layout is a
documented stand-in with the same total length.
"""

import binascii
import math
import struct
from typing import NamedTuple

FRAME_LEN = 55
MAGIC = 0xAA01
MAGIC_BYTES = b"\xaa\x01"

_BODY = struct.Struct(">HHIQdddB12x")  # everything the CRC covers
_CRC = struct.Struct(">H")
_CRC_OFFSET = _BODY.size
_INF = math.inf


class FrameError(Exception):
    """Base class for frame codec failures."""


class FrameEncodeError(FrameError):
    """A field is outside its encodable range; names the offending field."""


class FrameDecodeError(FrameError):
    """Base class for decode failures."""


class FramingError(FrameDecodeError):
    """Magic prefix missing; the caller should resynchronize the stream."""


class ChecksumError(FrameDecodeError):
    """CRC mismatch over an otherwise well-framed record."""


class FdrFrame(NamedTuple):
    """One synchrophasor measurement record.

    ``utc_timestamp`` is integer milliseconds since the Unix epoch; in
    steady streaming consecutive frames from one device are exactly
    100 ms apart.  ``voltage_angle`` is degrees in [-180, 180).
    """

    device_id: int
    frame_seq: int
    utc_timestamp: int
    frequency: float
    voltage_mag: float
    voltage_angle: float
    status: int = 0


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, unreflected)."""
    return binascii.crc_hqx(data, 0xFFFF)


def _check_int(name: str, value: int, lo: int, hi: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FrameEncodeError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise FrameEncodeError(f"{name}={value} outside [{lo}, {hi}]")


def _check_real(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FrameEncodeError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise FrameEncodeError(f"{name}={value!r} is not finite")


def encode_frame(frame: FdrFrame) -> bytes:
    """Serialize ``frame`` to its exact 55-byte wire form.

    Raises FrameEncodeError naming the first field found out of range.
    Out-of-range angles are rejected rather than silently wrapped.
    """
    device_id, frame_seq, utc, freq, vmag, vangle, status = frame
    # One test for the frames the devices build: exact int and float
    # types, in range and finite.  Anything else (an int frequency, an
    # IntEnum status, a bad value) takes the per-field checks, which
    # accept and reject exactly what they always did.
    if not (
        device_id.__class__ is int
        and frame_seq.__class__ is int
        and utc.__class__ is int
        and status.__class__ is int
        and freq.__class__ is float
        and vmag.__class__ is float
        and vangle.__class__ is float
        and 0 <= device_id <= 0xFFFF
        and 0 <= frame_seq <= 0xFFFFFFFF
        and 0 <= utc <= 0xFFFFFFFFFFFFFFFF
        and 0 <= status <= 0xFF
        and -_INF < freq < _INF
        and -_INF < vmag < _INF
        and -180.0 <= vangle < 180.0
    ):
        _check_int("device_id", device_id, 0, 0xFFFF)
        _check_int("frame_seq", frame_seq, 0, 0xFFFFFFFF)
        _check_int("utc_timestamp", utc, 0, 0xFFFFFFFFFFFFFFFF)
        _check_int("status", status, 0, 0xFF)
        _check_real("frequency", freq)
        _check_real("voltage_mag", vmag)
        _check_real("voltage_angle", vangle)
        if not -180.0 <= vangle < 180.0:
            raise FrameEncodeError(f"voltage_angle={vangle} outside [-180, 180)")
    body = _BODY.pack(MAGIC, device_id, frame_seq, utc, freq, vmag, vangle, status)
    return body + _CRC.pack(crc16(body))


def decode_frame(data: bytes) -> FdrFrame:
    """Decode the frame held in the first 55 bytes of ``data``.

    Raises FramingError when the magic prefix is wrong and ChecksumError
    when the CRC does not match; both leave resynchronization to the
    caller.
    """
    if len(data) < FRAME_LEN:
        raise FramingError(f"need {FRAME_LEN} bytes, got {len(data)}")
    if data[:2] != MAGIC_BYTES:
        raise FramingError(f"bad magic {data[:2].hex()}")
    (crc,) = _CRC.unpack_from(data, _CRC_OFFSET)
    if crc16(data[:_CRC_OFFSET]) != crc:
        raise ChecksumError("crc mismatch")
    # the unpacked fields after the magic, in FdrFrame's field order
    return FdrFrame._make(_BODY.unpack_from(data)[1:])
