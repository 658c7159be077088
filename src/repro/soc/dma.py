"""DMA block-transfer engine.

The paper's platform is "similar to the NXP system-on-chip platform"
and MPARM models a DMA unit; OCEAN's checkpoint traffic (whole chunks
copied between the scratchpad and the protected buffer) is exactly the
access pattern a DMA engine exists for.  Compared with the CPU copy
loop (6 cycles per word of software), the engine moves one word per
``cycles_per_word`` cycles and frees the core — which is how the real
OCEAN hardware keeps the checkpoint overhead low.

The engine copies through memory *ports*, so ECC encode/decode happens
exactly as it would on the real datapath (and a detected error during
a DMA checkpoint surfaces the same way as a CPU-detected one).  It
moves each phase with the ports' block transfers
(:class:`~repro.soc.ports.BlockTransfers`), which settle fault-free
runs in bulk and are bit-exact with a per-word copy.
"""

from __future__ import annotations


class DmaEngine:
    """Port-to-port block copier with cycle accounting.

    Parameters
    ----------
    cycles_per_word:
        Pipelined transfer rate (read + write per word); 2 models a
        simple non-overlapped engine, 1 a fully pipelined one.
    setup_cycles:
        Per-transfer programming overhead (descriptor write, start).
    """

    def __init__(self, cycles_per_word: int = 2, setup_cycles: int = 8) -> None:
        if cycles_per_word < 1:
            raise ValueError("cycles_per_word must be at least 1")
        if setup_cycles < 0:
            raise ValueError("setup_cycles must be non-negative")
        self.cycles_per_word = cycles_per_word
        self.setup_cycles = setup_cycles

    def transfer(
        self,
        source_port,
        source_base: int,
        dest_port,
        dest_base: int,
        words: int,
    ) -> int:
        """Copy ``words`` words between ports; returns cycles consumed.

        Reads the whole block before writing (two-phase), so a detected
        error during the read phase leaves the destination untouched —
        the property OCEAN's checkpoint commit relies on.  Both phases
        are port block transfers: bit-exact with reading every word
        through ``source_port.read`` and then writing each through
        ``dest_port.write``, down to the access that raises.
        """
        if words <= 0:
            raise ValueError(f"words must be positive, got {words}")
        block = source_port.read_block(source_base, words)
        dest_port.write_block(dest_base, block)
        return self.setup_cycles + words * self.cycles_per_word
