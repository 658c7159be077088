"""Shortened binary BCH codec with configurable correction strength.

OCEAN stores its checkpoints in an "error-protected buffer, with
quadruple error correction capability" (Section V).  The natural code
for 32-bit words and t = 4 is the binary BCH(63, 39) code over GF(2^6)
shortened by 7 positions to (56, 32): 32 data bits, 24 check bits,
corrects any 4 bit errors per word.

Everything is computed, not table-pasted: the generator polynomial is
the LCM of the minimal polynomials of alpha^1 .. alpha^2t, decoding
runs syndrome computation, Berlekamp-Massey and a Chien search.  The
same class also provides t = 1..3 variants for the ablation benches.

Encoding and syndrome computation are GF(2)-linear, so each code
(``data_bits``, ``t``, ``m``) gets one byte-sliced table set per
process (:meth:`repro.ecc.base.Codec._shared_tables`): systematic
encodings, and the 2t syndromes of every byte value packed into one
integer.  :meth:`BchCodec.encode` and :meth:`BchCodec.decode` fold the
tuple copies, a handful of lookups per word where the per-bit bodies
evaluate 2t field sums over every set bit; a non-zero packed syndrome
is unpacked straight into Berlekamp-Massey and the corrected word is
re-verified through the same tables.  The batch kernels read the numpy
copies.  The per-bit bodies the tables are built from stay as
:meth:`BchCodec.encode_reference` / :meth:`BchCodec.decode_reference`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.ecc.base import (
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
    STATUS_CLEAN,
    byte_tables,
    status_code,
)
from repro.ecc.gf2m import GF2m, get_field


def _poly_to_int(poly: list[int]) -> int:
    """Pack a 0/1 coefficient list (lowest first) into an integer."""
    value = 0
    for i, coeff in enumerate(poly):
        if coeff:
            value |= 1 << i
    return value


def _gf2_poly_mod(dividend: int, divisor: int) -> int:
    """Return ``dividend mod divisor`` as GF(2) polynomials in ints."""
    divisor_degree = divisor.bit_length() - 1
    while dividend.bit_length() - 1 >= divisor_degree and dividend:
        shift = (dividend.bit_length() - 1) - divisor_degree
        dividend ^= divisor << shift
    return dividend


def _gf2_poly_lcm_product(polys: list[int]) -> int:
    """Return the product of a de-duplicated set of GF(2) polynomials.

    Minimal polynomials of distinct conjugacy classes are coprime, so
    the LCM is the product of the distinct ones.
    """
    result = 1
    for poly in dict.fromkeys(polys):  # preserves order, drops repeats
        # Multiply result * poly over GF(2).
        product = 0
        temp = result
        position = 0
        while temp:
            if temp & 1:
                product ^= poly << position
            temp >>= 1
            position += 1
        result = product
    return result


def _encode_bits(data: int, generator: int, n_check: int) -> int:
    """Systematic encode by polynomial division, one bit at a time."""
    shifted = data << n_check
    return shifted | _gf2_poly_mod(shifted, generator)


def _syndromes_bits(field: GF2m, t: int, codeword: int) -> list[int]:
    """Evaluate the received polynomial at alpha^1 .. alpha^2t."""
    set_positions = []
    remaining = codeword
    while remaining:
        lsb = remaining & -remaining
        set_positions.append(lsb.bit_length() - 1)
        remaining ^= lsb
    syndromes = []
    for j in range(1, 2 * t + 1):
        value = 0
        for position in set_positions:
            value ^= field.alpha_pow(position * j)
        syndromes.append(value)
    return syndromes


def _build_tables(field: GF2m, t: int, data_bits: int) -> dict[str, Any]:
    """Code parameters and byte-sliced tables of one BCH code.

    * generator — LCM of the minimal polynomials of alpha^1 .. alpha^2t;
    * encode tables — encoding is linear, so the codeword of a data
      word is the XOR of the encodings of its bytes in place;
    * packed-syndrome tables — syndrome computation is linear in the
      received bits and each of the 2t syndromes fits in m bits, so the
      whole syndrome vector of a word is the XOR of per-byte entries.
      All-zero packed syndromes is exactly the CLEAN condition.

    Python-int tuples serve the scalar path at any width; the numpy
    copies (and the Chien exponent rows of the batch decoder) exist
    when codewords and packed syndromes fit in a ``uint64`` lane.
    """
    m = field.m
    n_full = (1 << m) - 1
    minimal_polys = [
        _poly_to_int(field.minimal_polynomial(field.alpha_pow(i)))
        for i in range(1, 2 * t + 1)
    ]
    generator = _gf2_poly_lcm_product(minimal_polys)
    n_check = generator.bit_length() - 1
    k_full = n_full - n_check
    if data_bits > k_full:
        raise ValueError(
            f"data_bits={data_bits} exceeds the code dimension "
            f"k={k_full} of BCH({n_full}, {k_full}) with t={t}"
        )
    code_bits = data_bits + n_check

    def packed_syndromes(part: int) -> int:
        packed = 0
        for j, syndrome in enumerate(_syndromes_bits(field, t, part)):
            packed |= syndrome << (j * m)
        return packed

    enc = byte_tables(lambda d: _encode_bits(d, generator, n_check), data_bits)
    syn = byte_tables(packed_syndromes, code_bits)
    tables: dict[str, Any] = {
        "generator": generator,
        "n_check": n_check,
        "code_bits": code_bits,
        "shortened": n_full - code_bits,
        "_enc_bytes": tuple(map(tuple, enc)),
        "_syn_bytes": tuple(map(tuple, syn)),
        "_enc_byte_luts": None,
        "_syn_byte_luts": None,
    }
    if code_bits > 64:
        return tables
    tables["_enc_byte_luts"] = np.array(enc, dtype=np.uint64)
    if 2 * t * m > 64:
        return tables
    tables.update(
        _syn_byte_luts=np.array(syn, dtype=np.uint64),
        _exp_np=np.array(field.exp, dtype=np.uint64),
        _log_np=np.array(field.log, dtype=np.int64),
        # Chien exponent rows: locator(alpha^{-p}) sums
        # coef_k * alpha^{-p*k}; row k holds (-p*k) mod (2^m - 1) for
        # every position p, so one doubled-exp gather per locator
        # coefficient evaluates all positions at once.
        _chien_neg=np.array(
            [
                [(-position * k) % n_full for position in range(n_full)]
                for k in range(t + 2)
            ],
            dtype=np.int64,
        ),
    )
    return tables


class BchCodec(Codec):
    """Shortened binary BCH codec.

    Parameters
    ----------
    data_bits:
        Payload width; the paper's buffer protects 32-bit words.
    t:
        Number of correctable bit errors per word (4 for OCEAN's
        buffer).
    m:
        Field degree; the code length before shortening is 2^m - 1.
        The default 6 (n = 63) fits 32 data bits for every t <= 4.
    """

    def __init__(self, data_bits: int = 32, t: int = 4, m: int = 6) -> None:
        if t < 1:
            raise ValueError(f"t must be at least 1, got {t}")
        if data_bits <= 0:
            raise ValueError(f"data_bits must be positive, got {data_bits}")
        self.field: GF2m = get_field(m)
        self.n_full = (1 << m) - 1
        self.t = t
        self.data_bits = data_bits
        self._tables = self._shared_tables(
            (data_bits, t, m),
            lambda: _build_tables(self.field, t, data_bits),
        )
        #: ``generator``, ``n_check``, ``code_bits``, ``shortened`` (the
        #: number of implicitly zero positions) and the tables.
        self.__dict__.update(self._tables)

    # ------------------------------------------------------------------
    # Scalar path (tuple tables)
    # ------------------------------------------------------------------
    def encode(self, data: int) -> int:
        """Systematic encode: codeword = data * x^r + remainder."""
        self._check_data(data)
        return self._fold_bytes(self._enc_bytes, data)

    def decode(self, codeword: int) -> DecodeResult:
        """Packed-syndrome screen, then Berlekamp-Massey / Chien."""
        self._check_codeword(codeword)
        packed = self._fold_bytes(self._syn_bytes, codeword)
        if not packed:
            # Positional construction: keywords cost a third more.
            return DecodeResult(
                codeword >> self.n_check, DecodeStatus.CLEAN, 0
            )
        return self._correct(
            codeword,
            self._unpack_syndromes(packed),
            lambda fixed: not self._fold_bytes(self._syn_bytes, fixed),
        )

    # ------------------------------------------------------------------
    # Per-bit reference path
    # ------------------------------------------------------------------
    def encode_reference(self, data: int) -> int:
        """Per-bit systematic encode by polynomial division."""
        self._check_data(data)
        return _encode_bits(data, self.generator, self.n_check)

    def decode_reference(self, codeword: int) -> DecodeResult:
        """Per-bit syndromes / Berlekamp-Massey / Chien decode."""
        self._check_codeword(codeword)
        syndromes = self._syndromes(codeword)
        if not any(syndromes):
            return DecodeResult(
                data=codeword >> self.n_check, status=DecodeStatus.CLEAN
            )
        return self._correct(
            codeword, syndromes,
            lambda fixed: not any(self._syndromes(fixed)),
        )

    # ------------------------------------------------------------------
    # Batch API (numpy tables)
    # ------------------------------------------------------------------
    def encode_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized encode: byte-sliced generator-matrix gathers."""
        if self._enc_byte_luts is None:
            return super().encode_batch(words)
        words = self._as_word_array(words, self.data_bits, "data")
        return self._lut_gather(self._enc_byte_luts, words)

    def decode_batch(
        self, codewords: np.ndarray, record: bool = True
    ) -> BatchDecodeResult:
        """Vectorized clean screen + batched decode of the dirty words.

        At moderate supply voltages almost every stored word is error
        free; those are identified with a handful of gathers (the
        packed syndrome vector of the received polynomial) and returned
        CLEAN without touching the Berlekamp-Massey decoder at all.
        The dirty words then share one numpy Chien search: syndromes
        come pre-unpacked from the screen, Berlekamp-Massey stays a
        (short) scalar recurrence per word, and locator evaluation over
        all 2^m - 1 positions — the former hot loop — is a gather and
        XOR per locator coefficient across the whole dirty set.  The
        decision sequence replicates :meth:`decode` exactly.  Codes
        whose codewords or packed syndromes exceed a ``uint64`` lane
        use the base class's per-word loop.
        """
        if self._syn_byte_luts is None:
            return super().decode_batch(codewords, record=record)
        codewords = self._as_word_array(codewords, self.code_bits, "codeword")
        u64 = np.uint64
        packed = self._lut_gather(self._syn_byte_luts, codewords)
        data = codewords >> u64(self.n_check)
        status = np.full(codewords.shape, STATUS_CLEAN, dtype=np.uint8)
        corrected = np.zeros(codewords.shape, dtype=np.int64)
        dirty = np.nonzero(packed)[0]
        if dirty.size:
            self._decode_dirty(
                codewords, packed, dirty, data, status, corrected
            )
        if record:
            self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data, status=status, corrected_bits=corrected
        )

    def _decode_dirty(
        self,
        codewords: np.ndarray,
        packed: np.ndarray,
        dirty: np.ndarray,
        data: np.ndarray,
        status: np.ndarray,
        corrected: np.ndarray,
    ) -> None:
        """Decode the dirty subset in place, Chien-searching as a batch."""
        detected = status_code(DecodeStatus.DETECTED)
        corrected_code = status_code(DecodeStatus.CORRECTED)
        # Berlekamp-Massey per dirty word (short scalar recurrence on
        # already-computed syndromes); collect the survivors for the
        # batched Chien search.
        candidates = []  # (batch index, codeword, locator, degree)
        for i in dirty:
            locator, degree = self._berlekamp_massey(
                self._unpack_syndromes(int(packed[i]))
            )
            if degree > self.t or degree != len(locator) - 1:
                status[i] = detected
                continue
            candidates.append((int(i), int(codewords[i]), locator, degree))
        if not candidates:
            return
        # Chien search, all candidates at once: evaluate each locator
        # at alpha^{-p} for every position p with one doubled-exp
        # gather per coefficient order (locator[0] is always 1).
        n_cand = len(candidates)
        max_len = max(len(cand[2]) for cand in candidates)
        coeffs = np.zeros((max_len, n_cand), dtype=np.int64)
        for c, (_, _, locator, _) in enumerate(candidates):
            coeffs[: len(locator), c] = locator
        acc = np.ones((n_cand, self.n_full), dtype=np.uint64)
        for k in range(1, max_len):
            coef = coeffs[k]
            nonzero = coef != 0
            if not nonzero.any():
                continue
            logs = np.where(nonzero, self._log_np[coef], 0)
            term = self._exp_np[logs[:, None] + self._chien_neg[k][None, :]]
            acc ^= np.where(nonzero[:, None], term, np.uint64(0))
        # Scalar postlude per candidate: the same decision sequence as
        # decode(), with the corrected word re-verified through the
        # packed-syndrome tables.
        for c, (i, codeword, _, degree) in enumerate(candidates):
            positions = np.nonzero(acc[c] == 0)[0]
            if positions.size != degree or bool(
                (positions >= self.code_bits).any()
            ):
                status[i] = detected
                continue
            fixed = codeword
            for position in positions:
                fixed ^= 1 << int(position)
            if self._fold_bytes(self._syn_bytes, fixed):
                status[i] = detected
                continue
            data[i] = fixed >> self.n_check
            status[i] = corrected_code
            corrected[i] = int(positions.size)

    # ------------------------------------------------------------------
    # Decoder stages
    # ------------------------------------------------------------------
    def _syndromes(self, codeword: int) -> list[int]:
        """Per-bit evaluation of the received polynomial at alpha^1..2t."""
        return _syndromes_bits(self.field, self.t, codeword)

    def _unpack_syndromes(self, packed: int) -> list[int]:
        """Split a packed syndrome vector into its 2t field elements."""
        m = self.field.m
        mask = (1 << m) - 1
        return [(packed >> (j * m)) & mask for j in range(2 * self.t)]

    def _correct(
        self,
        codeword: int,
        syndromes: list[int],
        is_codeword: Callable[[int], bool],
    ) -> DecodeResult:
        """Decode a dirty word from its (non-zero) syndromes.

        Berlekamp-Massey, then a Chien search that must find exactly
        ``degree`` roots, none of them in the shortened (always-zero)
        region; the flipped word must then pass ``is_codeword`` (the
        table fold or the per-bit syndromes, so each path verifies with
        its own machinery).  Anything else is DETECTED.
        """
        locator, degree = self._berlekamp_massey(syndromes)
        if degree <= self.t and degree == len(locator) - 1:
            positions = self._chien_search(locator)
            if len(positions) == degree and all(
                position < self.code_bits for position in positions
            ):
                fixed = codeword
                for position in positions:
                    fixed ^= 1 << position
                if is_codeword(fixed):
                    return DecodeResult(
                        data=fixed >> self.n_check,
                        status=DecodeStatus.CORRECTED,
                        corrected_bits=degree,
                    )
        return DecodeResult(
            data=codeword >> self.n_check, status=DecodeStatus.DETECTED
        )

    def _berlekamp_massey(
        self, syndromes: list[int]
    ) -> tuple[list[int], int]:
        """Return (error locator polynomial, register length L)."""
        field = self.field
        locator = [1]
        previous = [1]
        length = 0
        shift = 1
        prev_discrepancy = 1
        for n, syndrome in enumerate(syndromes):
            discrepancy = syndrome
            for i in range(1, length + 1):
                if i < len(locator) and locator[i]:
                    discrepancy ^= field.mul(locator[i], syndromes[n - i])
            if discrepancy == 0:
                shift += 1
                continue
            coefficient = field.div(discrepancy, prev_discrepancy)
            needed = len(previous) + shift
            if needed > len(locator):
                locator = locator + [0] * (needed - len(locator))
            updated = locator.copy()
            for i, prev_coeff in enumerate(previous):
                if prev_coeff:
                    updated[i + shift] ^= field.mul(coefficient, prev_coeff)
            if 2 * length <= n:
                previous = locator
                prev_discrepancy = discrepancy
                length = n + 1 - length
                shift = 1
            else:
                shift += 1
            locator = updated
        return GF2m.poly_trim(locator), length

    def _chien_search(self, locator: list[int]) -> list[int]:
        """Return bit positions whose locators are roots of ``locator``.

        Position p is in error iff locator(alpha^{-p}) == 0.
        """
        field = self.field
        positions = []
        for position in range(self.n_full):
            x = field.alpha_pow(-position)
            if field.poly_eval(locator, x) == 0:
                positions.append(position)
        return positions
