"""(39,32) SECDED extended Hamming codec.

The paper's hardware ECC reference: "We use the (39, 32) SECDED code
implementation to cope with the memory word width" — 32 data bits, six
Hamming check bits and one overall parity bit.  Single errors are
corrected, double errors detected; a triple error aliases into a wrong
single-error correction or a miss, which is exactly why the FIT solver
treats three simultaneous bit errors as the scheme's failure point.

Construction: the classic extended Hamming layout.  Codeword positions
are numbered 1..38 with check bits at the power-of-two positions
(1, 2, 4, 8, 16, 32); the 32 data bits occupy the remaining positions;
bit 39 (index 38) is the overall parity of everything else.

Both paths work in GF(2) matrix form, through one table set per process
(:meth:`repro.ecc.base.Codec._shared_tables`).  The code is linear, so
byte-sliced 256-entry tables turn encoding, data extraction and the
``(overall parity, 6-bit syndrome)`` index into a few XORed lookups per
word, and a 128-entry syndrome table maps that index straight to the
flip mask, status and corrected-bit count of the decision tree.
:meth:`SecdedCodec.encode` / :meth:`SecdedCodec.decode` read the tuple
copies (a few lookups per word instead of a walk over all 39 bits),
``encode_batch`` / ``decode_batch`` the numpy arrays.  The per-bit bodies the tables are built from stay as
:meth:`SecdedCodec.encode_reference` /
:meth:`SecdedCodec.decode_reference`, the oracle both paths are tested
against.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.bitops import parity
from repro.ecc.base import (
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    byte_tables,
    decode_status,
)

_DATA_BITS = 32
_CODE_BITS = 39
_POSITIONS = 38  # Hamming part (positions 1..38)
_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, _POSITIONS + 1) if pos not in _PARITY_POSITIONS
)
assert len(_DATA_POSITIONS) == 32

_U64 = np.uint64


def _parity(value: int) -> int:
    """Return the XOR of all bits of ``value``."""
    return parity(value)


# ----------------------------------------------------------------------
# Per-bit construction (the reference the tables are built from)
# ----------------------------------------------------------------------
def _encode_bits(data: int) -> int:
    """Place the data bits and derive the check bits one bit at a time."""
    word = 0
    syndrome = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        if (data >> i) & 1:
            word |= 1 << (pos - 1)
            syndrome ^= pos
    # Check bits sit at power-of-two positions, so each syndrome bit
    # is produced by exactly one check bit.
    for bit_index, pos in enumerate(_PARITY_POSITIONS):
        if (syndrome >> bit_index) & 1:
            word |= 1 << (pos - 1)
    # Overall parity over the 38 Hamming positions.
    if _parity(word):
        word |= 1 << (_CODE_BITS - 1)
    return word


def _syndrome_bits(codeword: int) -> int:
    """XOR of the 1-based positions of the set Hamming bits."""
    syndrome = 0
    remaining = codeword & ((1 << _POSITIONS) - 1)
    while remaining:
        lsb = remaining & -remaining
        syndrome ^= lsb.bit_length()  # 1-based position number
        remaining ^= lsb
    return syndrome


def _extract_bits(codeword: int) -> int:
    """Pull the 32 data bits out of their codeword positions."""
    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        if (codeword >> (pos - 1)) & 1:
            data |= 1 << i
    return data


def _build_tables() -> dict[str, Any]:
    """The SECDED table set: numpy arrays plus their tuple copies."""
    enc = byte_tables(_encode_bits, _DATA_BITS)
    ext = byte_tables(_extract_bits, _CODE_BITS)
    # Byte k of the codeword contributes (parity << 6) ^ syndrome to
    # the 7-bit decision index by XOR.
    index = byte_tables(
        lambda part: (_parity(part) << 6) | _syndrome_bits(part),
        _CODE_BITS,
    )
    # Decision table: index = (overall parity << 6) | syndrome.  Each
    # entry resolves the per-bit decision tree of decode_reference in
    # one lookup: flip mask, status code and corrected-bit count.
    flip = [0] * 128
    status = [STATUS_DETECTED] * 128
    corrected = [0] * 128
    for syndrome in range(64):
        for overall in (0, 1):
            i = (overall << 6) | syndrome
            if overall == 0 and syndrome == 0:
                status[i] = STATUS_CLEAN
            elif overall == 1 and syndrome == 0:
                # The overall parity bit itself flipped.
                flip[i] = 1 << (_CODE_BITS - 1)
                status[i] = STATUS_CORRECTED
                corrected[i] = 1
            elif overall == 1 and syndrome <= _POSITIONS:
                flip[i] = 1 << (syndrome - 1)
                status[i] = STATUS_CORRECTED
                corrected[i] = 1
            # Remaining cases (even parity with non-zero syndrome, or
            # a syndrome pointing past position 38) stay DETECTED.
    return {
        "_enc_byte_luts": np.array(enc, dtype=_U64),
        "_ext_byte_luts": np.array(ext, dtype=_U64),
        "_index_byte_luts": np.array(index, dtype=np.uint8),
        "_flip_lut": np.array(flip, dtype=_U64),
        "_status_lut": np.array(status, dtype=np.uint8),
        "_corrected_lut": np.array(corrected, dtype=np.int64),
        "_enc_bytes": tuple(map(tuple, enc)),
        "_ext_bytes": tuple(map(tuple, ext)),
        "_index_bytes": tuple(map(tuple, index)),
        "_flips": tuple(flip),
        "_statuses": tuple(decode_status(code) for code in status),
        "_corrections": tuple(corrected),
    }


class SecdedCodec(Codec):
    """Single-error-correcting, double-error-detecting (39,32) codec."""

    data_bits = _DATA_BITS
    code_bits = _CODE_BITS

    def __init__(self) -> None:
        self._tables = self._shared_tables((), _build_tables)
        self.__dict__.update(self._tables)

    # ------------------------------------------------------------------
    # Scalar path (tuple tables)
    # ------------------------------------------------------------------
    def encode(self, data: int) -> int:
        """Encode a 32-bit word into a 39-bit SECDED codeword."""
        self._check_data(data)
        e0, e1, e2, e3 = self._enc_bytes
        return (
            e0[data & 0xFF] ^ e1[(data >> 8) & 0xFF]
            ^ e2[(data >> 16) & 0xFF] ^ e3[data >> 24]
        )

    def decode(self, codeword: int) -> DecodeResult:
        """Decode a 39-bit codeword; correct 1 error, detect 2."""
        self._check_codeword(codeword)
        i0, i1, i2, i3, i4 = self._index_bytes
        index = (
            i0[codeword & 0xFF] ^ i1[(codeword >> 8) & 0xFF]
            ^ i2[(codeword >> 16) & 0xFF] ^ i3[(codeword >> 24) & 0xFF]
            ^ i4[codeword >> 32]
        )
        fixed = codeword ^ self._flips[index]
        x0, x1, x2, x3, x4 = self._ext_bytes
        # Positional construction: keywords cost a third more per word.
        return DecodeResult(
            x0[fixed & 0xFF] ^ x1[(fixed >> 8) & 0xFF]
            ^ x2[(fixed >> 16) & 0xFF] ^ x3[(fixed >> 24) & 0xFF]
            ^ x4[fixed >> 32],
            self._statuses[index],
            self._corrections[index],
        )

    # ------------------------------------------------------------------
    # Per-bit reference path
    # ------------------------------------------------------------------
    def encode_reference(self, data: int) -> int:
        """Per-bit encode, the construction the tables are built from."""
        self._check_data(data)
        return _encode_bits(data)

    def decode_reference(self, codeword: int) -> DecodeResult:
        """Per-bit decode: syndrome walk and the SECDED decision tree."""
        self._check_codeword(codeword)
        syndrome = _syndrome_bits(codeword)
        overall = _parity(codeword)

        if syndrome == 0 and overall == 0:
            return DecodeResult(
                data=_extract_bits(codeword), status=DecodeStatus.CLEAN
            )
        if syndrome == 0 and overall == 1:
            # The overall parity bit itself flipped; data is intact.
            corrected = codeword ^ (1 << (self.code_bits - 1))
            return DecodeResult(
                data=_extract_bits(corrected),
                status=DecodeStatus.CORRECTED,
                corrected_bits=1,
            )
        if overall == 1:
            # Odd number of errors with a non-zero syndrome: take it as
            # a single error at the syndrome position if that position
            # exists; otherwise it must be multi-bit.
            if 1 <= syndrome <= _POSITIONS:
                corrected = codeword ^ (1 << (syndrome - 1))
                return DecodeResult(
                    data=_extract_bits(corrected),
                    status=DecodeStatus.CORRECTED,
                    corrected_bits=1,
                )
            return DecodeResult(
                data=_extract_bits(codeword), status=DecodeStatus.DETECTED
            )
        # Non-zero syndrome with even overall parity: double error.
        return DecodeResult(
            data=_extract_bits(codeword), status=DecodeStatus.DETECTED
        )

    # ------------------------------------------------------------------
    # Batch path (numpy tables)
    # ------------------------------------------------------------------
    def encode_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized encode: byte-sliced generator-matrix gathers."""
        words = self._as_word_array(words, self.data_bits, "data")
        return self._lut_gather(self._enc_byte_luts, words)

    def decode_batch(
        self, codewords: np.ndarray, record: bool = True
    ) -> BatchDecodeResult:
        """Vectorized decode via byte-sliced parity checks + syndrome LUT."""
        codewords = self._as_word_array(codewords, self.code_bits, "codeword")
        index = self._lut_gather(
            self._index_byte_luts, codewords
        ).astype(np.intp)
        corrected_words = codewords ^ self._flip_lut[index]
        data = self._lut_gather(self._ext_byte_luts, corrected_words)
        status = self._status_lut[index]
        if record:
            self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data,
            status=status,
            corrected_bits=self._corrected_lut[index],
        )
