"""Memory ports — where mitigation hardware interposes.

The CPU talks to memories through ports.  A :class:`RawPort` passes
32-bit words straight through (the no-mitigation baseline); a
:class:`CodecPort` stores codewords and runs the codec on every access
(the SECDED wrapper of Section V, or the BCH-protected OCEAN buffer).
Ports also provide the fault-free back-door used to load programs and
initial data and to inspect results.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import (
    STATUS_CLEAN,
    STATUS_DETECTED,
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
)
from repro.ecc.wrapper import CodecMemoryWrapper, UncorrectableError, WrapperStats
from repro.soc.memory import FaultyMemory


class RawPort:
    """Unprotected 32-bit port: bit flips pass silently to the core."""

    #: Uniform interface with :class:`CodecPort` (no codec attached).
    codec = None

    def __init__(self, memory: FaultyMemory) -> None:
        if memory.width != 32:
            raise ValueError(
                f"RawPort needs a 32-bit memory, got {memory.width}"
            )
        self.memory = memory
        self.stats = WrapperStats()  # stays all-zero; uniform interface

    def read(self, address: int) -> int:
        return self.memory.read(address)

    def write(self, address: int, value: int) -> None:
        self.memory.write(address, value)

    def load(self, words: list[int], base: int = 0) -> None:
        """Fault-free bulk load (program loader / test stimulus)."""
        self.memory.load(words, base)

    def peek(self, address: int) -> int:
        """Fault-free inspection of the decoded word."""
        return self.memory.peek(address)

    # -- fast-lane bulk accounting ------------------------------------
    # A clean burst performs its reads/writes against a cached plain
    # view; these settle the counters that the per-access path would
    # have bumped.  RawPort reads never touch the (all-zero) wrapper
    # stats, so only the memory counters move.
    def account_clean_reads(self, count: int) -> None:
        self.memory.counters.reads += count

    def account_clean_writes(self, count: int) -> None:
        self.memory.counters.writes += count


class CodecPort:
    """ECC-wrapped port: encode on write, decode (and count) on read.

    ``raise_on_detect`` mirrors :class:`CodecMemoryWrapper`: SECDED
    systems raise on uncorrectable words (double errors) so the
    platform can flag a system failure; OCEAN's detection port raises
    so the controller can roll back.
    """

    def __init__(
        self,
        memory: FaultyMemory,
        codec: Codec,
        raise_on_detect: bool = True,
        auto_scrub: bool = False,
    ) -> None:
        if memory.width != codec.code_bits:
            raise ValueError(
                f"memory width {memory.width} != codeword width "
                f"{codec.code_bits}"
            )
        self.memory = memory
        self.codec = codec
        self.wrapper = CodecMemoryWrapper(
            memory, codec, raise_on_detect=raise_on_detect,
            auto_scrub=auto_scrub,
        )

    @property
    def stats(self) -> WrapperStats:
        return self.wrapper.stats

    def read(self, address: int) -> int:
        return self.wrapper.read(address)

    def write(self, address: int, value: int) -> None:
        self.wrapper.write(address, value)

    def load(self, words: list[int], base: int = 0) -> None:
        """Fault-free bulk load: encode and poke behind the counters."""
        encoded = self.codec.encode_batch(
            np.asarray(words, dtype=np.uint64)
        )
        self.memory.load([int(word) for word in encoded], base)

    def peek(self, address: int) -> int:
        """Fault-free best-effort decode (result inspection)."""
        return self.codec.decode(self.memory.peek(address)).data

    # -- fast-lane bulk accounting ------------------------------------
    # Per-access reads bump both the memory counters (store.read) and
    # the wrapper stats; clean bursts must settle both.  No corrected/
    # detected counters move: a burst only ever covers CLEAN words.
    def account_clean_reads(self, count: int) -> None:
        self.memory.counters.reads += count
        self.wrapper.stats.reads += count

    def account_clean_writes(self, count: int) -> None:
        self.memory.counters.writes += count
        self.wrapper.stats.writes += count


class DetectOnlyCodec(Codec):
    """Use any codec purely for error *detection*.

    OCEAN does not correct in place: its scratchpad carries an error-
    detection code and recovery happens by rollback (Section V /
    Figure 7).  This adapter reports any non-clean inner decode as
    DETECTED and never corrects, turning a distance-4 SECDED into a
    guaranteed triple-error detector.
    """

    def __init__(self, inner: Codec) -> None:
        self.inner = inner
        self.data_bits = inner.data_bits
        self.code_bits = inner.code_bits

    def encode(self, data: int) -> int:
        return self.inner.encode(data)

    def encode_batch(self, words):
        # Encoding is unchanged by detect-only semantics; delegate to
        # the inner codec's vectorized path (used by burst write-back).
        return self.inner.encode_batch(words)

    def decode(self, codeword: int) -> DecodeResult:
        result = self.inner.decode(codeword)
        if result.status is DecodeStatus.CLEAN:
            return result
        return DecodeResult(
            data=result.data, status=DecodeStatus.DETECTED
        )

    def decode_batch(
        self, codewords: np.ndarray, record: bool = True
    ) -> BatchDecodeResult:
        """Inner batch decode with every non-clean word DETECTED.

        Bit-exact with :meth:`decode`: best-effort inner data, zero
        corrected bits.  Outcomes are recorded under this codec's name
        only (the inner decode publishes nothing).
        """
        inner = self.inner.decode_batch(codewords, record=False)
        status = np.where(
            inner.status == STATUS_CLEAN, STATUS_CLEAN, STATUS_DETECTED
        ).astype(np.uint8)
        if record:
            self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=inner.data,
            status=status,
            corrected_bits=np.zeros(status.shape, dtype=np.int64),
        )


__all__ = [
    "RawPort",
    "CodecPort",
    "DetectOnlyCodec",
    "UncorrectableError",
]
