"""CRC implementations against known vectors and algebraic properties."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.crc import crc16_ccitt, crc16_ccitt_reference

CHECK_INPUT = b"123456789"


def test_crc16_known_vector():
    # CRC-16/CCITT-FALSE check value from the standard catalogue.
    assert crc16_ccitt(CHECK_INPUT) == 0x29B1


def test_crc16_empty_is_initial():
    assert crc16_ccitt(b"") == 0xFFFF
    assert crc16_ccitt(b"", initial=0x1234) == 0x1234


def test_crc16_chaining_equals_whole():
    whole = crc16_ccitt(b"hello world")
    chained = crc16_ccitt(b" world", initial=crc16_ccitt(b"hello"))
    assert whole == chained


def test_crc16_detects_single_bit_flip():
    data = bytearray(b"garnet message body")
    reference = crc16_ccitt(bytes(data))
    for index in range(len(data)):
        data[index] ^= 0x01
        assert crc16_ccitt(bytes(data)) != reference
        data[index] ^= 0x01


@given(st.binary(max_size=200))
def test_crc16_is_16_bits(blob):
    assert 0 <= crc16_ccitt(blob) <= 0xFFFF


@given(st.binary(min_size=1, max_size=100), st.integers(0, 7))
def test_crc16_bit_flip_always_detected(blob, bit):
    # A single-bit error is always caught by any CRC with x+1 | poly
    # properties; verify empirically over random inputs.
    corrupted = bytearray(blob)
    corrupted[0] ^= 1 << bit
    assert crc16_ccitt(bytes(corrupted)) != crc16_ccitt(blob)


@pytest.mark.parametrize("func", [crc16_ccitt])
def test_crc_is_deterministic(func):
    assert func(b"same input") == func(b"same input")


# ----------------------------------------------------------------------
# Fast-path vs reference equivalence (the E18 hot-path contract)
# ----------------------------------------------------------------------

def test_crc16_fast_path_matches_reference_across_sizes():
    # The fast path (binascii.crc_hqx) must agree with the byte-at-a-time
    # spec at every size, including the empty buffer and odd lengths.
    for size in range(0, 40):
        blob = bytes(range(size))
        assert crc16_ccitt(blob) == crc16_ccitt_reference(blob)


@given(st.binary(max_size=600), st.integers(0, 0xFFFF))
def test_crc16_fast_matches_reference_with_initials(blob, initial):
    assert crc16_ccitt(blob, initial) == crc16_ccitt_reference(blob, initial)


def test_crc16_fast_accepts_bytearray_and_memoryview():
    blob = bytes(range(64))
    expected = crc16_ccitt_reference(blob)
    assert crc16_ccitt(bytearray(blob)) == expected
    assert crc16_ccitt(memoryview(blob)) == expected
