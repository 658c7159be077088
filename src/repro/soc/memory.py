"""Platform memories with fault-injection hooks and access counters.

One :class:`FaultyMemory` models one physical macro (instruction
memory, scratchpad, or protected buffer).  It stores raw words of any
configured width — 32 bits when unprotected, wider when a
:class:`~repro.soc.ports.CodecPort` stores codewords — and applies the
voltage-dependent fault engine on every access.  Access counters feed
the per-module energy accounting of Figures 8 and 9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.soc.faults import VoltageFaultModel


class MemoryAccessFault(Exception):
    """Raised on out-of-range platform memory accesses (a simulator
    error or a wild pointer in the program under test)."""


@dataclass
class AccessCounters:
    """Read/write counters of one memory module."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class FaultyMemory:
    """Word-addressed memory with voltage-dependent bit flips.

    Parameters
    ----------
    name:
        Module label ("IM", "SP", "PM" — the Figure 6/8 components).
    words:
        Capacity in words.
    width:
        Stored word width in bits.
    faults:
        Optional fault engine; None gives an ideal memory.
    fault_on_write:
        Whether writes can also corrupt stored bits (the paper's
        Eq. 5 covers "read & write operations").
    """

    def __init__(
        self,
        name: str,
        words: int,
        width: int = 32,
        faults: VoltageFaultModel | None = None,
        fault_on_write: bool = True,
    ) -> None:
        if words <= 0:
            raise ValueError(f"words must be positive, got {words}")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if faults is not None and faults.width != width:
            raise ValueError(
                f"fault engine width {faults.width} != memory width {width}"
            )
        self.name = name
        self.words = words
        self.width = width
        self.faults = faults
        self.fault_on_write = fault_on_write
        self.counters = AccessCounters()
        self._data = [0] * words
        #: Monotonic content-generation counter, bumped on every
        #: mutation of the stored words (including destructive read
        #: upsets and back-door pokes).  Cached plain-word views — the
        #: fast lane's predecoded IM and clean scratchpad mirrors —
        #: compare it to detect staleness without hooking every writer.
        self.version = 0
        #: Address of the latest per-access mutation (a write or a
        #: destructive read upset); back-door loads and pokes leave it
        #: alone.  A clean-view engine reads it after a faithful
        #: slow step — which can mutate at most one word per memory — to
        #: re-derive just that view cell.
        self.mutated_address: int | None = None

    # ------------------------------------------------------------------
    # Per-access path (the ports' read/write; faults and counters)
    # ------------------------------------------------------------------
    def read(self, address: int) -> int:
        """Return the stored word, possibly corrupted by a read upset.

        Read disturbs are destructive here (the stored value is
        updated), matching the paper's treatment of access errors as
        actual state corruption rather than transient bus glitches.
        """
        self._check(address)
        self.counters.reads += 1
        value = self._data[address]
        if self.faults is not None:
            mask = self.faults.sample_mask()
            if mask:
                value ^= mask
                self._data[address] = value
                self.version += 1
                self.mutated_address = address
        return value

    def write(self, address: int, value: int) -> None:
        """Store a word, possibly corrupted by a write upset."""
        self._check(address)
        if value < 0 or value >> self.width:
            raise ValueError(
                f"{self.name}: value must fit in {self.width} bits, "
                f"got {value:#x}"
            )
        self.counters.writes += 1
        if self.faults is not None and self.fault_on_write:
            value ^= self.faults.sample_mask()
        self._data[address] = value
        self.version += 1
        self.mutated_address = address

    # ------------------------------------------------------------------
    # Back-door access (no faults, no counters)
    # ------------------------------------------------------------------
    def load(self, words: list[int], base: int = 0) -> None:
        """Bulk-load contents without faults or counter updates.

        The whole batch is validated before any word is stored, so a
        rejected load leaves the contents and :attr:`version` as they
        were.
        """
        if base < 0 or base + len(words) > self.words:
            raise MemoryAccessFault(
                f"{self.name}: load of {len(words)} words at {base} "
                f"exceeds capacity {self.words}"
            )
        for value in words:
            if value < 0 or value >> self.width:
                raise ValueError(
                    f"{self.name}: load value {value:#x} exceeds "
                    f"{self.width} bits"
                )
        self._data[base:base + len(words)] = words
        self.version += 1

    def peek(self, address: int) -> int:
        """Inspect a word without faults or counters."""
        self._check(address)
        return self._data[address]

    def peek_block(self, base: int, count: int) -> list[int]:
        """Inspect ``count`` consecutive words without faults or counters."""
        if count < 1:
            return []
        self._check(base)
        self._check(base + count - 1)
        return self._data[base:base + count]

    def poke(self, address: int, value: int) -> None:
        """Set a word without faults or counters.

        The store of settled clean runs: block transfers and the
        engines' write-backs poke words whose counters and fault
        samples they have already accounted for.  Tests also poke
        latent corruption through it.
        """
        self._check(address)
        self._data[address] = value
        self.version += 1

    def snapshot(self) -> list[int]:
        """Return a copy of the full contents."""
        return list(self._data)

    def _check(self, address: int) -> None:
        if not 0 <= address < self.words:
            raise MemoryAccessFault(
                f"{self.name}: address {address} out of range "
                f"0..{self.words - 1}"
            )
