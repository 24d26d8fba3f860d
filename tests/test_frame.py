"""Frame codec tests: golden vector, round trips, CRC behavior."""

import enum
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wamsbench.frame import (
    FRAME_LEN,
    ChecksumError,
    FdrFrame,
    FrameEncodeError,
    FramingError,
    crc16,
    decode_frame,
    encode_frame,
)

# Generated once with the codec, then hand-verified field by field against
# the documented offsets and an independent bitwise CRC implementation
# (see crc_reference below).
GOLDEN_FRAME = FdrFrame(
    device_id=3,
    frame_seq=1,
    utc_timestamp=1700000000000,
    frequency=50.0,
    voltage_mag=1.0,
    voltage_angle=0.0,
    status=0,
)
GOLDEN_HEX = (
    "aa010003000000010000018bcfe5680040490000"
    "000000003ff00000000000000000000000000000"
    "0000000000000000000000000015d1"
)


def crc_reference(data: bytes) -> int:
    """Bitwise CRC-16/CCITT-FALSE, independent of the codec's table path."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def random_frame(rng: random.Random) -> FdrFrame:
    return FdrFrame(
        device_id=rng.randrange(0, 0x10000),
        frame_seq=rng.randrange(0, 0x100000000),
        utc_timestamp=rng.randrange(0, 2**63),
        frequency=rng.uniform(45.0, 65.0),
        voltage_mag=rng.uniform(0.0, 2.0),
        voltage_angle=rng.uniform(-180.0, 180.0 - 1e-9),
        status=rng.randrange(0, 256),
    )


def test_crc_check_value():
    # standard check string for CRC-16/CCITT-FALSE
    assert crc16(b"123456789") == 0x29B1
    assert crc_reference(b"123456789") == 0x29B1


def test_golden_vector_encode():
    assert encode_frame(GOLDEN_FRAME).hex() == GOLDEN_HEX


def test_golden_vector_decode():
    assert decode_frame(bytes.fromhex(GOLDEN_HEX)) == GOLDEN_FRAME


def test_golden_vector_crc_matches_independent_implementation():
    raw = bytes.fromhex(GOLDEN_HEX)
    assert int.from_bytes(raw[53:55], "big") == crc_reference(raw[:53])


def test_all_zero_frame_round_trips():
    frame = FdrFrame(0, 0, 0, 0.0, 0.0, 0.0, 0)
    assert decode_frame(encode_frame(frame)) == frame


def test_round_trip_identity_bulk():
    rng = random.Random(0xF0D)
    for _ in range(10_000):
        frame = random_frame(rng)
        encoded = encode_frame(frame)
        assert len(encoded) == FRAME_LEN
        assert decode_frame(encoded) == frame


@settings(max_examples=300, deadline=None)
@given(
    device_id=st.integers(0, 0xFFFF),
    frame_seq=st.integers(0, 0xFFFFFFFF),
    utc=st.integers(0, 2**64 - 1),
    frequency=st.floats(allow_nan=False, allow_infinity=False),
    voltage_mag=st.floats(allow_nan=False, allow_infinity=False),
    angle=st.floats(min_value=-180.0, max_value=math.nextafter(180.0, 0.0)),
    status=st.integers(0, 255),
)
def test_round_trip_identity_property(
    device_id, frame_seq, utc, frequency, voltage_mag, angle, status
):
    frame = FdrFrame(device_id, frame_seq, utc, frequency, voltage_mag, angle, status)
    encoded = encode_frame(frame)
    assert len(encoded) == FRAME_LEN
    decoded = decode_frame(encoded)
    # -0.0 and 0.0 compare equal; bit-exactness is what the codec promises
    assert encode_frame(decoded) == encoded
    assert decoded == frame


def test_single_bit_flip_detected_exhaustively():
    encoded = bytearray(encode_frame(GOLDEN_FRAME))
    for bit in range(FRAME_LEN * 8):
        corrupted = bytearray(encoded)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((ChecksumError, FramingError)):
            decode_frame(bytes(corrupted))


def test_decode_ignores_trailing_bytes():
    raw = bytes.fromhex(GOLDEN_HEX) + b"\xde\xad\xbe\xef"
    assert decode_frame(raw) == GOLDEN_FRAME


def test_decode_short_input_is_framing_error():
    with pytest.raises(FramingError):
        decode_frame(bytes.fromhex(GOLDEN_HEX)[:54])


def test_decode_bad_magic_is_framing_error():
    raw = bytearray(bytes.fromhex(GOLDEN_HEX))
    raw[0] = 0x55
    with pytest.raises(FramingError):
        decode_frame(bytes(raw))


def test_decode_bad_crc_is_checksum_error():
    raw = bytearray(bytes.fromhex(GOLDEN_HEX))
    raw[20] ^= 0x01  # payload bit, magic intact
    with pytest.raises(ChecksumError):
        decode_frame(bytes(raw))


@pytest.mark.parametrize(
    "field,value",
    [
        ("device_id", -1),
        ("device_id", 0x10000),
        ("frame_seq", -1),
        ("frame_seq", 0x100000000),
        ("utc_timestamp", -5),
        ("status", 256),
        ("frequency", float("nan")),
        ("frequency", float("inf")),
        ("voltage_mag", float("-inf")),
        ("voltage_angle", 180.0),
        ("voltage_angle", -180.0001),
        ("voltage_angle", 720.0),
        ("voltage_angle", float("nan")),
    ],
)
def test_encode_rejects_out_of_range_fields(field, value):
    frame = FdrFrame(**{**GOLDEN_FRAME._asdict(), field: value})
    with pytest.raises(FrameEncodeError, match=field):
        encode_frame(frame)


class Status(enum.IntEnum):
    OK = 0
    GPS_UNLOCKED = 3


class Hertz(float):
    pass


# inputs the one-test fast path in encode_frame turns away, which the
# per-field checks must still accept, with the same bytes
@pytest.mark.parametrize(
    "field,value,equivalent",
    [
        ("frequency", 50, 50.0),
        ("voltage_mag", 1, 1.0),
        ("voltage_angle", 0, 0.0),
        ("frequency", Hertz(50.0), 50.0),
        ("status", Status.GPS_UNLOCKED, 3),
    ],
)
def test_encode_accepts_other_numeric_types_as_before(field, value, equivalent):
    frame = FdrFrame(**{**GOLDEN_FRAME._asdict(), field: value})
    same = FdrFrame(**{**GOLDEN_FRAME._asdict(), field: equivalent})
    assert encode_frame(frame) == encode_frame(same)


@pytest.mark.parametrize("field", FdrFrame._fields)
def test_encode_rejects_bool_naming_the_field(field):
    frame = FdrFrame(**{**GOLDEN_FRAME._asdict(), field: True})
    integer = field in ("device_id", "frame_seq", "utc_timestamp", "status")
    kind = "an integer" if integer else "a real number"
    with pytest.raises(FrameEncodeError, match=f"^{field} must be {kind}, got True$"):
        encode_frame(frame)


def test_frame_is_immutable():
    with pytest.raises(AttributeError):
        GOLDEN_FRAME.frequency = 60.0
