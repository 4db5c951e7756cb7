"""Cyclic redundancy checks used by the Garnet wire formats.

Section 4.3 of the paper notes that "the usual checksums associated with
the data messages" are elided from Figure 2 for simplicity; the Actuation
Service explicitly adds checksums to control messages (Section 4.2). We
use CRC-16/CCITT-FALSE for message checksums (compact enough for the small
control frames).

A table-driven pure-Python implementation is the executable spec
(:func:`crc16_ccitt_reference`), and the checksum itself takes the
stdlib C fast path: :func:`binascii.crc_hqx` is the same 0x1021
MSB-first register update as CRC-16/CCITT-FALSE — seeding it with
0xFFFF (or any chained ``initial``) yields bit-identical checksums.
Equivalence of fast and reference paths, including arbitrary initial
values, is pinned by ``tests/test_util_crc.py``.
"""

from __future__ import annotations

from binascii import crc_hqx as _crc_hqx


def _build_crc16_table(poly: int) -> tuple[int, ...]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ poly) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return tuple(table)


_CRC16_TABLE = _build_crc16_table(0x1021)


def crc16_ccitt_reference(data: bytes, initial: int = 0xFFFF) -> int:
    """Byte-at-a-time CRC-16/CCITT-FALSE; the executable spec for
    :func:`crc16_ccitt`."""
    crc = initial & 0xFFFF
    table = _CRC16_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[((crc >> 8) ^ byte) & 0xFF]
    return crc


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """Return the CRC-16/CCITT-FALSE checksum of ``data``.

    Parameters
    ----------
    data:
        The bytes to checksum (any bytes-like object).
    initial:
        Starting register value; chain calls by passing a previous result.

    Delegates to :func:`binascii.crc_hqx`: "CRC-HQX" is the identical
    polynomial (0x1021), shift direction (MSB-first) and register update
    — the only difference from CRC-16/CCITT-FALSE is convention over the
    *default* seed, which this wrapper supplies.
    """
    return _crc_hqx(data, initial & 0xFFFF)


def crc16_ccitt_unwind(residue: int, stated: int) -> int:
    """The CRC of a frame's body, from the register after the whole frame
    (``residue``: body, then its ``stated`` 16-bit CRC) — no second pass.

    Feeding the stated CRC takes the register from the body's CRC ``C``
    to ``C ^ stated`` shifted through 16 zero bits; the loop runs those
    16 register steps backwards (0x1021 is odd, so each step's feedback
    shows in bit 0).
    """
    for _ in range(16):
        residue = ((residue ^ 0x1021) >> 1) | 0x8000 if residue & 1 else residue >> 1
    return residue ^ stated
