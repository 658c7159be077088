"""Tests for the parity and interleaved codecs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import DecodeStatus
from repro.ecc.bch import BchCodec
from repro.ecc.hamming import SecdedCodec
from repro.ecc.interleave import InterleavedCodec
from repro.ecc.parity import ParityCodec


class TestParity:
    def test_round_trip(self):
        codec = ParityCodec(32)
        for data in (0, 1, 0xFFFFFFFF, 0x12345678):
            result = codec.decode(codec.encode(data))
            assert result.status is DecodeStatus.CLEAN
            assert result.data == data

    @given(
        data=st.integers(min_value=0, max_value=2**32 - 1),
        position=st.integers(min_value=0, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_detects_any_single_flip(self, data, position):
        codec = ParityCodec(32)
        corrupted = codec.encode(data) ^ (1 << position)
        assert codec.decode(corrupted).status is DecodeStatus.DETECTED

    def test_misses_double_flips(self):
        """Known blind spot: even-weight patterns pass."""
        codec = ParityCodec(32)
        corrupted = codec.encode(0xABCD) ^ 0b11
        assert codec.decode(corrupted).status is DecodeStatus.CLEAN

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ParityCodec(0)


class TestInterleaved:
    def test_geometry(self):
        codec = InterleavedCodec(SecdedCodec(), 4)
        assert codec.data_bits == 128
        assert codec.code_bits == 156

    def test_rejects_single_way(self):
        with pytest.raises(ValueError):
            InterleavedCodec(SecdedCodec(), 1)

    @given(data=st.integers(min_value=0, max_value=2**128 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, data):
        codec = InterleavedCodec(SecdedCodec(), 4)
        result = codec.decode(codec.encode(data))
        assert result.status is DecodeStatus.CLEAN
        assert result.data == data

    def test_corrects_any_4_bit_burst(self):
        codec = InterleavedCodec(SecdedCodec(), 4)
        data = (0xDEADBEEF << 96) | (0x01234567 << 64) | (0x89ABCDEF << 32) | 0x5A5A5A5A
        codeword = codec.encode(data)
        for start in range(0, codec.code_bits - 3):
            result = codec.decode(codeword ^ (0b1111 << start))
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data

    def test_detects_double_error_in_one_lane(self):
        """The ablation's point: 4-way SECDED fails where BCH t=4
        succeeds — two random errors landing in the same lane."""
        codec = InterleavedCodec(SecdedCodec(), 4)
        codeword = codec.encode(12345)
        # Bits 0 and 4 both belong to lane 0.
        result = codec.decode(codeword ^ 0b10001)
        assert result.status is DecodeStatus.DETECTED

    def test_burst_vs_random_contrast_with_bch(self):
        bch = BchCodec(data_bits=32, t=4)
        interleaved = InterleavedCodec(SecdedCodec(), 4)
        # Same-lane double error: BCH corrects, interleaved SECDED cannot.
        bch_word = bch.encode(777) ^ 0b10001
        assert bch.decode(bch_word).status is DecodeStatus.CORRECTED
        il_word = interleaved.encode(777) ^ 0b10001
        assert interleaved.decode(il_word).status is DecodeStatus.DETECTED
