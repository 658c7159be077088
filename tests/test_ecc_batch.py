"""Table-driven codec paths must agree word-for-word with the per-bit reference.

SECDED and BCH run both their scalar ``encode``/``decode`` and their
``encode_batch``/``decode_batch`` kernels through one shared table set,
so checking one against the other would be circular.  Both are checked
against the per-bit ``encode_reference``/``decode_reference`` bodies
the tables are built from (codecs without tables, like parity, are
their own reference).  The contract is exact equality: same codewords,
same decoded data, same status and corrected-bit count per word — over
random inputs and over exhaustive small error patterns.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    BatchDecodeResult,
    BchCodec,
    ParityCodec,
    SecdedCodec,
    status_code,
)
from repro.ecc.base import Codec, DecodeStatus


def reference_encode(codec, words):
    encode = getattr(codec, "encode_reference", codec.encode)
    return np.array([encode(int(w)) for w in words], dtype=np.uint64)


def columns(results):
    return (
        np.array([r.data for r in results], dtype=np.uint64),
        np.array([status_code(r.status) for r in results], dtype=np.uint8),
        np.array([r.corrected_bits for r in results], dtype=np.int64),
    )


def assert_encoders_match_reference(codec, words):
    expected = reference_encode(codec, words)
    np.testing.assert_array_equal(codec.encode_batch(words), expected)
    np.testing.assert_array_equal(
        np.array([codec.encode(int(w)) for w in words], dtype=np.uint64),
        expected,
    )


def assert_decoders_match_reference(codec, codewords):
    decode = getattr(codec, "decode_reference", codec.decode)
    data, status, corrected = columns([decode(int(cw)) for cw in codewords])
    batch = codec.decode_batch(codewords)
    scalar = columns([codec.decode(int(cw)) for cw in codewords])
    for got in ((batch.data, batch.status, batch.corrected_bits), scalar):
        np.testing.assert_array_equal(got[0], data)
        np.testing.assert_array_equal(got[1], status)
        np.testing.assert_array_equal(got[2], corrected)


def flip_random_bits(codec, codewords, counts, rng):
    """XOR ``counts[i]`` distinct random bit positions into word ``i``."""
    out = codewords.copy()
    for i, k in enumerate(counts):
        for bit in rng.choice(codec.code_bits, size=int(k), replace=False):
            out[i] ^= np.uint64(1) << np.uint64(bit)
    return out


@pytest.fixture(scope="module", params=[SecdedCodec, BchCodec, ParityCodec])
def codec(request):
    return request.param()


class TestEncodeBatch:
    def test_matches_scalar_on_random_words(self, codec):
        rng = np.random.default_rng(1)
        words = rng.integers(
            0, 1 << codec.data_bits, size=4096, dtype=np.uint64
        )
        assert_encoders_match_reference(codec, words)

    def test_matches_scalar_on_boundary_words(self, codec):
        top = (1 << codec.data_bits) - 1
        words = np.array(
            [0, 1, top, top - 1, 1 << (codec.data_bits - 1),
             0xDEADBEEF & top],
            dtype=np.uint64,
        )
        assert_encoders_match_reference(codec, words)

    def test_rejects_oversized_words(self, codec):
        with pytest.raises(ValueError):
            codec.encode_batch(np.array([1 << codec.data_bits], dtype=np.uint64))

    def test_accepts_plain_lists(self, codec):
        assert codec.encode_batch([0, 1, 2]).dtype == np.uint64
        np.testing.assert_array_equal(
            codec.encode_batch(np.array([0, 1, 2], dtype=np.int64)),
            codec.encode_batch([0, 1, 2]),
        )
        assert codec.encode_batch([]).dtype == np.uint64
        assert len(codec.encode_batch([])) == 0
        assert len(codec.decode_batch(np.array([]))) == 0

    @given(words=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64
    ))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_scalar(self, codec, words):
        assert_encoders_match_reference(
            codec, np.array(words, dtype=np.uint64)
        )


class TestDecodeBatch:
    def test_clean_round_trip(self, codec):
        rng = np.random.default_rng(2)
        words = rng.integers(
            0, 1 << codec.data_bits, size=2048, dtype=np.uint64
        )
        batch = codec.decode_batch(codec.encode_batch(words))
        np.testing.assert_array_equal(batch.data, words)
        assert bool(batch.ok.all())

    def test_matches_scalar_on_random_corruption(self, codec):
        rng = np.random.default_rng(3)
        words = rng.integers(
            0, 1 << codec.data_bits, size=2048, dtype=np.uint64
        )
        codewords = codec.encode_batch(words)
        # Flip 0..3 random bits per word — spans clean, correctable and
        # detected outcomes for every codec under test.
        n_flips = rng.integers(0, 4, size=codewords.size)
        assert_decoders_match_reference(
            codec, flip_random_bits(codec, codewords, n_flips, rng)
        )


class TestSecdedExhaustivePatterns:
    def test_all_single_and_double_error_patterns(self):
        """Every <= 2-bit pattern on one codeword, both paths vs reference."""
        codec = SecdedCodec()
        base = codec.encode(0xCAFEF00D)
        patterns = [0]
        patterns += [1 << i for i in range(39)]
        patterns += [
            (1 << i) | (1 << j)
            for i, j in itertools.combinations(range(39), 2)
        ]
        assert len(patterns) == 1 + 39 + 741
        codewords = np.uint64(base) ^ np.array(patterns, dtype=np.uint64)
        assert_decoders_match_reference(codec, codewords)

    @given(
        data=st.integers(min_value=0, max_value=2**32 - 1),
        bits=st.lists(
            st.integers(min_value=0, max_value=38),
            min_size=3, max_size=3, unique=True,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_triple_error_patterns(self, data, bits):
        """Triples alias into miscorrections or misses — identically."""
        codec = SecdedCodec()
        pattern = sum(1 << bit for bit in bits)
        codewords = np.array(
            [codec.encode_reference(data) ^ pattern], dtype=np.uint64
        )
        assert_decoders_match_reference(codec, codewords)

    def test_single_errors_on_many_random_words(self):
        codec = SecdedCodec()
        rng = np.random.default_rng(4)
        words = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
        codewords = codec.encode_batch(words)
        positions = rng.integers(0, 39, size=500).astype(np.uint64)
        batch = codec.decode_batch(codewords ^ (np.uint64(1) << positions))
        np.testing.assert_array_equal(batch.data, words)
        assert int(batch.corrected_bits.sum()) == 500


class TestBchPatterns:
    def test_patterns_up_to_correction_capability(self):
        codec = BchCodec()
        rng = np.random.default_rng(5)
        words = rng.integers(0, 1 << 32, size=64, dtype=np.uint64)
        codewords = codec.encode_batch(words)
        for k in range(1, codec.t + 1):
            corrupted = codewords.copy()
            for i in range(corrupted.size):
                for bit in rng.choice(codec.code_bits, size=k, replace=False):
                    corrupted[i] ^= np.uint64(1) << np.uint64(bit)
            batch = codec.decode_batch(corrupted)
            np.testing.assert_array_equal(batch.data, words, err_msg=f"k={k}")
            np.testing.assert_array_equal(batch.corrected_bits, k)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_zero_to_t_plus_two_flips_match_reference(self, t):
        """0..t+2 flips: clean, corrected, detected and miscorrected
        words all decode exactly as the per-bit reference does."""
        codec = BchCodec(data_bits=32, t=t)
        rng = np.random.default_rng(10 + t)
        for k in range(t + 3):
            words = rng.integers(0, 1 << 32, size=64, dtype=np.uint64)
            codewords = flip_random_bits(
                codec, reference_encode(codec, words),
                np.full(words.size, k), rng,
            )
            assert_decoders_match_reference(codec, codewords)


class TestBatchResultApi:
    def test_getitem_recovers_scalar_results(self):
        codec = SecdedCodec()
        codewords = codec.encode_batch(np.arange(8, dtype=np.uint64))
        batch = codec.decode_batch(codewords)
        assert len(batch) == 8
        single = batch[3]
        assert single.status is DecodeStatus.CLEAN
        assert single.data == 3

    def test_base_class_fallback_loops_are_used(self):
        """A codec that overrides nothing still gets working batch
        methods from the ``Codec`` base."""

        class IdentityCodec(Codec):
            name = "identity"
            data_bits = 8
            code_bits = 8

            def encode(self, data):
                self._check_data(data)
                return data

            def decode(self, codeword):
                self._check_codeword(codeword)
                from repro.ecc.base import DecodeResult
                return DecodeResult(
                    data=codeword, status=DecodeStatus.CLEAN, corrected_bits=0
                )

        codec = IdentityCodec()
        words = np.arange(16, dtype=np.uint64)
        np.testing.assert_array_equal(codec.encode_batch(words), words)
        batch = codec.decode_batch(words)
        assert isinstance(batch, BatchDecodeResult)
        np.testing.assert_array_equal(batch.data, words)
