"""Common codec interface.

All codecs in this package operate on non-negative Python integers
treated as little-endian bit vectors: data words of ``data_bits`` bits
are encoded into codewords of ``code_bits`` bits.  Integers keep the
simulator fast (XOR of a whole word is one operation) while staying
bit-exact.

Batch API: Monte-Carlo campaigns decode millions of words, so every
codec also exposes :meth:`Codec.encode_batch` / :meth:`Codec.decode_batch`
over ``uint64`` numpy arrays.  The base class provides a scalar
fallback (a loop over :meth:`Codec.encode` / :meth:`Codec.decode`);
:class:`repro.ecc.hamming.SecdedCodec` and
:class:`repro.ecc.bch.BchCodec` override them with GF(2) bit-matrix
kernels that are bit-exact with the scalar paths.

Tables: the fast codecs run *both* paths through one byte-sliced table
set per code — numpy arrays for the batch kernels, tuples of Python
ints for the per-access scalar path, where one tuple index is cheaper
than one numpy element read.  :meth:`Codec._shared_tables` builds each
set once per process (under a lock, since the job server constructs
codecs on worker threads), marks its arrays read-only and hands the
same set to every instance of that code.  The per-bit bodies that
build the tables stay available as ``encode_reference`` /
``decode_reference``, the independent oracle that tests and the perf
harness check the table-driven paths against.
"""

from __future__ import annotations

import abc
import enum
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from repro.obs import active_metrics, names


class DecodeStatus(enum.Enum):
    """Outcome classification of one decode."""

    #: Codeword was clean (no error detected).
    CLEAN = "clean"
    #: Errors were detected and corrected; data is trustworthy.
    CORRECTED = "corrected"
    #: Errors were detected but exceed the correction capability; data
    #: is NOT trustworthy (a recovery mechanism must step in).
    DETECTED = "detected"


#: Integer codes used by the batch decode path (uint8 status arrays).
STATUS_CLEAN = 0
STATUS_CORRECTED = 1
STATUS_DETECTED = 2

_STATUS_TO_CODE = {
    DecodeStatus.CLEAN: STATUS_CLEAN,
    DecodeStatus.CORRECTED: STATUS_CORRECTED,
    DecodeStatus.DETECTED: STATUS_DETECTED,
}
_CODE_TO_STATUS = {code: status for status, code in _STATUS_TO_CODE.items()}


def status_code(status: DecodeStatus) -> int:
    """Return the batch-path integer code of a :class:`DecodeStatus`."""
    return _STATUS_TO_CODE[status]


def decode_status(code: int) -> DecodeStatus:
    """Return the :class:`DecodeStatus` of a batch-path integer code."""
    return _CODE_TO_STATUS[code]


@dataclass(frozen=True)
class BatchDecodeResult:
    """Column-oriented result of decoding a batch of codewords.

    Attributes
    ----------
    data:
        ``uint64`` array of decoded data words (best effort where
        ``status`` is :data:`STATUS_DETECTED`).
    status:
        ``uint8`` array of :data:`STATUS_CLEAN` /
        :data:`STATUS_CORRECTED` / :data:`STATUS_DETECTED` codes.
    corrected_bits:
        ``int64`` array of per-word corrected-bit counts.
    """

    data: np.ndarray
    status: np.ndarray
    corrected_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.data)

    @property
    def ok(self) -> np.ndarray:
        """Boolean array: which decoded words can be trusted."""
        return self.status != STATUS_DETECTED

    def __getitem__(self, index: int) -> "DecodeResult":
        """Return element ``index`` as a scalar :class:`DecodeResult`."""
        return DecodeResult(
            data=int(self.data[index]),
            status=decode_status(int(self.status[index])),
            corrected_bits=int(self.corrected_bits[index]),
        )


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one codeword.

    Attributes
    ----------
    data:
        The decoded data word (best effort when status is DETECTED).
    status:
        What the decoder concluded.
    corrected_bits:
        Number of bit positions the decoder flipped.
    """

    data: int
    status: DecodeStatus
    corrected_bits: int = 0

    @property
    def ok(self) -> bool:
        """Whether the decoded data can be trusted."""
        return self.status is not DecodeStatus.DETECTED


#: Serializes the first build of each shared table set.  Re-entrant so
#: a table builder may itself construct another codec.
_TABLES_LOCK = threading.RLock()


def byte_tables(fn: Callable[[int], int], width: int) -> list[list[int]]:
    """Byte-sliced tables of a GF(2)-linear map over ``width``-bit words.

    Entry ``[k][v]`` is ``fn`` of byte value ``v`` placed at byte ``k``
    (bits past ``width`` dropped), so XORing the entries of every byte
    of a word gives ``fn`` of the whole word
    (:meth:`Codec._fold_bytes`, :meth:`Codec._lut_gather`).  Linearity
    also builds each byte's table from the images of its single bits:
    ``fn`` runs once per bit instead of 256 times per byte.
    """
    tables = []
    for k in range((width + 7) // 8):
        table = [0]
        for bit in range(8 * k, min(8 * k + 8, width)):
            image = fn(1 << bit)
            table += [entry ^ image for entry in table]
        # A byte cut short by ``width`` repeats over its dropped bits.
        tables.append(table * (256 // len(table)))
    return tables


class Codec(abc.ABC):
    """Abstract block codec over integer bit vectors."""

    #: Number of payload bits per block.
    data_bits: int
    #: Number of stored bits per block (payload + check bits).
    code_bits: int

    #: Process-wide memo of table sets, keyed by ``(class, *params)``;
    #: see :meth:`_shared_tables`.
    _table_memo: dict[tuple, Mapping[str, Any]] = {}

    @property
    def check_bits(self) -> int:
        """Number of redundant bits per block."""
        return self.code_bits - self.data_bits

    @property
    def storage_overhead(self) -> float:
        """Relative storage overhead, e.g. 7/32 for (39,32) SECDED."""
        return self.check_bits / self.data_bits

    def _shared_tables(
        self, params: tuple, build: Callable[[], dict[str, Any]]
    ) -> Mapping[str, Any]:
        """Return the table set of this code, building it on first use.

        A codec's tables are a pure function of its class and
        ``params``, so every instance of one code shares a single,
        read-only set: campaigns construct hundreds of codecs, and
        rebuilding per instance dominated their set-up.
        The first build runs under a lock, so codecs constructed
        concurrently still end up with one set; numpy arrays in it are
        frozen (``write=False``) because a stray write would corrupt
        every codec of that code at once.
        """
        key = (type(self), *params)
        tables = Codec._table_memo.get(key)
        if tables is None:
            with _TABLES_LOCK:
                tables = Codec._table_memo.get(key)
                if tables is None:
                    built = build()
                    for value in built.values():
                        if isinstance(value, np.ndarray):
                            value.setflags(write=False)
                    tables = MappingProxyType(built)
                    Codec._table_memo[key] = tables
        return tables

    @staticmethod
    def _fold_bytes(luts: tuple[tuple[int, ...], ...], value: int) -> int:
        """Scalar twin of :meth:`_lut_gather` over tuple tables."""
        out = 0
        for lut in luts:
            out ^= lut[value & 0xFF]
            value >>= 8
        return out

    def _lut_gather(self, luts: np.ndarray, words: np.ndarray) -> np.ndarray:
        """XOR-accumulate byte-sliced LUT gathers over ``words``.

        ``luts[k][b]`` is the table contribution of byte ``k`` of a
        word when that byte has value ``b`` — the shared shape of the
        generator-matrix, parity-check, extraction and syndrome tables
        of the fast codecs.  The accumulated result is a fresh array.
        """
        u64 = np.uint64
        out = np.empty(words.shape, dtype=luts.dtype)
        np.take(luts[0], (words & u64(0xFF)).astype(np.intp), out=out)
        for k in range(1, luts.shape[0]):
            byte = ((words >> u64(8 * k)) & u64(0xFF)).astype(np.intp)
            out ^= luts[k][byte]
        return out

    @abc.abstractmethod
    def encode(self, data: int) -> int:
        """Encode ``data`` (must fit in ``data_bits``) into a codeword."""

    @abc.abstractmethod
    def decode(self, codeword: int) -> DecodeResult:
        """Decode ``codeword`` (must fit in ``code_bits``)."""

    # ------------------------------------------------------------------
    # Batch API (vectorized campaigns)
    # ------------------------------------------------------------------
    def encode_batch(self, words: np.ndarray) -> np.ndarray:
        """Encode an array of data words into an array of codewords.

        The base implementation is a scalar fallback; fast codecs
        override it.  Both are bit-exact with :meth:`encode`.
        """
        words = self._as_word_array(words, self.data_bits, "data")
        out = np.empty(words.shape, dtype=np.uint64)
        for i, word in enumerate(words):
            out[i] = self.encode(int(word))
        return out

    def decode_batch(
        self, codewords: np.ndarray, record: bool = True
    ) -> BatchDecodeResult:
        """Decode an array of codewords; bit-exact with :meth:`decode`.

        ``record=False`` suppresses the per-batch telemetry counters —
        used by callers (the ports' block transfers) that mirror a
        per-word path which publishes nothing, so both paths leave
        identical metric trails.
        """
        codewords = self._as_word_array(codewords, self.code_bits, "codeword")
        n = codewords.shape[0]
        data = np.empty(n, dtype=np.uint64)
        status = np.empty(n, dtype=np.uint8)
        corrected = np.empty(n, dtype=np.int64)
        for i, codeword in enumerate(codewords):
            result = self.decode(int(codeword))
            data[i] = result.data
            status[i] = status_code(result.status)
            corrected[i] = result.corrected_bits
        if record:
            self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data, status=status, corrected_bits=corrected
        )

    def record_decode_outcomes(self, status: np.ndarray) -> None:
        """Publish clean/corrected/detected counts of one batch decode.

        One registry touch per *batch* (never per word), so the hot
        kernels stay at full speed with telemetry disabled and pay a
        constant overhead with it enabled.  A ``miscorrected`` counter
        is published by harnesses that know the ground truth (a decoder
        alone cannot).
        """
        metrics = active_metrics()
        if not metrics.enabled:
            return
        name = type(self).__name__
        clean = int(np.count_nonzero(status == STATUS_CLEAN))
        corrected = int(np.count_nonzero(status == STATUS_CORRECTED))
        detected = int(np.count_nonzero(status == STATUS_DETECTED))
        metrics.counter(names.ecc_metric(name, "decoded_words")).inc(
            status.size
        )
        metrics.counter(names.ecc_metric(name, "clean")).inc(clean)
        metrics.counter(names.ecc_metric(name, "corrected")).inc(corrected)
        metrics.counter(names.ecc_metric(name, "detected")).inc(detected)

    # ------------------------------------------------------------------
    # Shared validation helpers
    # ------------------------------------------------------------------
    def _as_word_array(
        self, values: np.ndarray, width: int, label: str
    ) -> np.ndarray:
        """Validate a batch input and return it as a 1-D ``uint64`` array.

        Accepts a ``uint64`` array (one dtype test), any other integer
        array, a sequence of Python ints, or an empty batch.  Like the
        scalar :meth:`_check_data` / :meth:`_check_codeword`, it raises
        ``ValueError`` on a negative, non-integer or too-wide word, and
        it never truncates.
        """
        if width > 64:
            raise ValueError(
                f"batch API supports at most 64 {label} bits, "
                f"this codec has {width}"
            )
        arr = np.asarray(values)
        if arr.dtype != np.uint64:
            kind = arr.dtype.kind
            if arr.size and (
                kind not in "biu" or (kind == "i" and bool((arr < 0).any()))
            ):
                raise ValueError(
                    f"every {label} must be a non-negative integer of at "
                    f"most {width} bits, got dtype {arr.dtype}"
                )
            arr = arr.astype(np.uint64)
        arr = np.ascontiguousarray(arr)
        if arr.ndim != 1:
            raise ValueError(
                f"expected a 1-D array of {label} words, got shape "
                f"{arr.shape}"
            )
        if width < 64 and bool((arr >> np.uint64(width)).any()):
            raise ValueError(f"every {label} must fit in {width} bits")
        return arr

    def _check_data(self, data: int) -> None:
        if data < 0 or data >> self.data_bits:
            raise ValueError(
                f"data must fit in {self.data_bits} bits, got {data:#x}"
            )

    def _check_codeword(self, codeword: int) -> None:
        if codeword < 0 or codeword >> self.code_bits:
            raise ValueError(
                f"codeword must fit in {self.code_bits} bits, "
                f"got {codeword:#x}"
            )
