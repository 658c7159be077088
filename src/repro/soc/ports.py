"""Memory ports — where mitigation hardware interposes.

The CPU talks to memories through ports.  A :class:`RawPort` passes
32-bit words straight through (the no-mitigation baseline); a
:class:`CodecPort` is the paper's "digital wrapper around existing
commercially available memories": it stores codewords, runs the codec
on every access and keeps the correction/detection counts of the
run-time monitoring loop (SECDED on IM and SP in Section V, OCEAN's
detect-only scratchpad and BCH-protected buffer).
Ports also provide the fault-free back-door used to load programs and
initial data and to inspect results, and block transfers
(:meth:`BlockTransfers.read_block`, :meth:`BlockTransfers.write_block`,
:func:`copy_block`) for the chunk copies of checkpoints, rollbacks and
DMA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ecc.base import (
    STATUS_CLEAN,
    STATUS_DETECTED,
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
)
from repro.soc.memory import FaultyMemory

#: Runs of at least this many words take the vectorized codec paths
#: (block transfers and the engines' dirty-store write-backs); shorter
#: runs stay on the scalar codec.
BATCH_THRESHOLD = 16


@dataclass
class PortStats:
    """Per-port access and correction/detection counters, food for the
    run-time monitoring loop (Section IV)."""

    reads: int = 0
    writes: int = 0
    corrected_words: int = 0
    corrected_bits: int = 0
    detected_words: int = 0


class UncorrectableError(Exception):
    """A :class:`CodecPort` read a word its codec could only detect."""

    def __init__(self, address: int, result: DecodeResult) -> None:
        super().__init__(
            f"uncorrectable error at address {address:#x} "
            f"(best-effort data {result.data:#x})"
        )
        self.address = address
        self.result = result


def poke_encoded(memory: FaultyMemory, codec, addresses, values) -> None:
    """Encode plain words and poke them into ``memory``.

    ``values`` holds the plain words of ``addresses`` (Python ints).
    Back-door pokes: the caller has already settled the counters and
    fault samples of these writes.  The encode is the same transform
    the per-access write path applies, vectorized for longer runs.
    """
    if codec is not None:
        if len(values) >= BATCH_THRESHOLD:
            values = codec.encode_batch(
                np.array(values, dtype=np.uint64)
            ).tolist()
        else:
            values = [codec.encode(value) for value in values]
    for address, word in zip(addresses, values):
        memory.poke(address, word)


class BlockTransfers:
    """Block reads and writes, shared by :class:`RawPort` and
    :class:`CodecPort`.

    Each method is bit-exact with the loop of per-word ``read`` /
    ``write`` calls it replaces: returned values, stored words, access
    counters, port stats, RNG stream positions, fault events (and
    their order) and exceptions all match.  What changes is how a run
    of accesses that the fault engine guarantees clean is settled: in
    bulk, with the gap read through ``clean_run_length`` (drawn only
    when an access at that address is certain to follow), its
    decrements through ``consume_clean``, the counters through
    ``account_clean_*``, and the words through one batch decode
    (``record=False``: the per-word path publishes no codec metrics)
    or one encode-and-poke (:func:`poke_encoded`).  The access where a
    fault lands, a stored word that does not decode CLEAN, and a value
    or address the per-word path rejects each go through the port's
    own ``read`` / ``write``, which reproduces correction, scrubbing,
    detection and the exception exactly.
    """

    memory: FaultyMemory
    codec: Codec | None

    def read_block(self, base: int, count: int) -> list[int]:
        """``[self.read(base + i) for i in range(count)]``, in bulk."""
        values: list[int] = []
        while len(values) < count:
            clean = self._clean_reads(base + len(values), count - len(values))
            if clean:
                self._settle_reads(len(clean))
                values += clean
            if len(values) < count:
                values.append(self.read(base + len(values)))
        return values

    def write_block(self, base: int, values: list[int]) -> None:
        """``self.write(base + i, value)`` for each value, in bulk."""
        done = 0
        while done < len(values):
            count = self._clean_writes(base + done, values[done:])
            if count:
                self._settle_writes(base + done, values[done:done + count])
                done += count
            if done < len(values):
                self.write(base + done, values[done])
                done += 1

    # -- clean runs ------------------------------------------------------
    def _clean_reads(self, address: int, limit: int) -> list[int]:
        """Data of the next reads from ``address`` that are sure to be clean.

        At most ``limit`` words, cut at the end of the memory, at the
        access the fault engine will upset, and before the first stored
        word that does not decode CLEAN.  Settles nothing; the caller
        reads ``address`` next, in bulk or per word.
        """
        memory = self.memory
        limit = min(limit, memory.words - address)
        if address < 0 or limit < 1:
            return []
        if memory.faults is not None:
            limit = min(limit, memory.faults.clean_run_length())
            if limit < 1:
                return []
        words = memory.peek_block(address, limit)
        codec = self.codec
        if codec is None:
            return words
        if limit < BATCH_THRESHOLD:
            data = []
            for word in words:
                result = codec.decode(word)
                if result.status is not DecodeStatus.CLEAN:
                    break
                data.append(result.data)
            return data
        batch = codec.decode_batch(
            np.array(words, dtype=np.uint64), record=False
        )
        blocked = np.flatnonzero(batch.status != STATUS_CLEAN)
        end = int(blocked[0]) if blocked.size else limit
        return batch.data[:end].tolist()

    def _clean_writes(self, address: int, values: list[int]) -> int:
        """How many of ``values`` can be written from ``address`` surely clean.

        Cut at the end of the memory, before the first value the
        per-word path rejects, and at the write the fault engine will
        upset.  The gap is drawn only when the first write is certain
        to reach the memory.
        """
        memory = self.memory
        count = min(len(values), memory.words - address)
        if address < 0 or count < 1:
            return 0
        width = memory.width if self.codec is None else self.codec.data_bits
        head = values[:count]
        if min(head) < 0 or max(head) >> width:
            count = next(
                i for i, value in enumerate(head)
                if value < 0 or value >> width
            )
            if count < 1:
                return 0
        if memory.faults is not None and memory.fault_on_write:
            count = min(count, memory.faults.clean_run_length())
        return count

    def _settle_reads(self, count: int) -> None:
        if self.memory.faults is not None:
            self.memory.faults.consume_clean(count)
        self.account_clean_reads(count)

    def _settle_writes(self, address: int, values: list[int]) -> None:
        memory = self.memory
        if memory.faults is not None and memory.fault_on_write:
            memory.faults.consume_clean(len(values))
        self.account_clean_writes(len(values))
        poke_encoded(
            memory, self.codec, range(address, address + len(values)), values
        )


def copy_block(
    source: BlockTransfers,
    source_base: int,
    dest: BlockTransfers,
    dest_base: int,
    count: int,
) -> None:
    """``dest.write(dest_base + i, source.read(source_base + i))`` for
    each ``i``, in bulk.

    Word-interleaved like that loop: a run is settled in bulk only
    where both the read and the write are sure to be clean, so fault
    events keep their order and a read that raises leaves exactly the
    preceding words written.  Two ports over one memory share one
    gap and may overlap, so their copies run word by word.
    """
    bulk = source.memory is not dest.memory
    done = 0
    while done < count:
        data = (
            source._clean_reads(source_base + done, count - done)
            if bulk else []
        )
        # A clean read at ``done`` makes the write there certain.
        written = dest._clean_writes(dest_base + done, data) if data else 0
        if written:
            source._settle_reads(written)
            dest._settle_writes(dest_base + done, data[:written])
            done += written
        if done < count:
            dest.write(dest_base + done, source.read(source_base + done))
            done += 1


class RawPort(BlockTransfers):
    """Unprotected 32-bit port: bit flips pass silently to the core."""

    #: Uniform interface with :class:`CodecPort` (no codec attached).
    codec = None

    def __init__(self, memory: FaultyMemory) -> None:
        if memory.width != 32:
            raise ValueError(
                f"RawPort needs a 32-bit memory, got {memory.width}"
            )
        self.memory = memory
        self.stats = PortStats()  # stays all-zero; uniform interface

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
    # have bumped.  RawPort reads never touch the (all-zero) port
    # stats, so only the memory counters move.
    def account_clean_reads(self, count: int) -> None:
        self.memory.counters.reads += count

    def account_clean_writes(self, count: int) -> None:
        self.memory.counters.writes += count


class CodecPort(BlockTransfers):
    """ECC-wrapped port: encode on write, decode, count and escalate on
    read.

    A read of a DETECTED word raises :class:`UncorrectableError`:
    SECDED platforms flag a system failure, and OCEAN's controller
    rolls back.  ``auto_scrub`` rewrites the corrected codeword after
    every corrected read, so single-bit upsets cannot accumulate into
    double errors over a long run; it costs one extra memory write per
    correction.
    """

    def __init__(
        self, memory: FaultyMemory, codec: Codec, auto_scrub: bool = False
    ) -> None:
        if memory.width != codec.code_bits:
            raise ValueError(
                f"memory width {memory.width} != codeword width "
                f"{codec.code_bits}"
            )
        self.memory = memory
        self.codec = codec
        self.auto_scrub = auto_scrub
        self.stats = PortStats()

    def read(self, address: int) -> int:
        result = self.codec.decode(self.memory.read(address))
        stats = self.stats
        stats.reads += 1
        if result.status is DecodeStatus.CORRECTED:
            stats.corrected_words += 1
            stats.corrected_bits += result.corrected_bits
            if self.auto_scrub:
                self.memory.write(address, self.codec.encode(result.data))
        elif result.status is DecodeStatus.DETECTED:
            stats.detected_words += 1
            raise UncorrectableError(address, result)
        return result.data

    def write(self, address: int, value: int) -> None:
        self.stats.writes += 1
        self.memory.write(address, self.codec.encode(value))

    def load(self, words: list[int], base: int = 0) -> None:
        """Fault-free bulk load: encode and poke behind the counters."""
        self.memory.load(self.codec.encode_batch(words).tolist(), base)

    def peek(self, address: int) -> int:
        """Fault-free best-effort decode (result inspection)."""
        return self.codec.decode(self.memory.peek(address)).data

    # -- fast-lane bulk accounting ------------------------------------
    # Per-access reads bump both the memory counters (memory.read) and
    # the port stats; clean bursts must settle both.  No corrected/
    # detected counters move: a burst only ever covers CLEAN words.
    def account_clean_reads(self, count: int) -> None:
        self.memory.counters.reads += count
        self.stats.reads += count

    def account_clean_writes(self, count: int) -> None:
        self.memory.counters.writes += count
        self.stats.writes += count


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
    "BATCH_THRESHOLD",
    "BlockTransfers",
    "RawPort",
    "CodecPort",
    "DetectOnlyCodec",
    "PortStats",
    "UncorrectableError",
    "copy_block",
    "poke_encoded",
]
