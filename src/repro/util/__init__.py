"""Shared low-level utilities: CRC checksums, bitfield packing, id pools."""

from repro.util.bitfields import (
    check_range,
    read_uint,
    write_uint,
)
from repro.util.crc import crc16_ccitt
from repro.util.ids import IdExhaustedError, IdPool, WrappingCounter

__all__ = [
    "IdExhaustedError",
    "IdPool",
    "WrappingCounter",
    "check_range",
    "crc16_ccitt",
    "read_uint",
    "write_uint",
]
