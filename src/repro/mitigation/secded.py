"""SECDED hardware mitigation.

"We use the (39, 32) SECDED code implementation to cope with the
memory word width" — both platform memories store 39-bit codewords,
the wrapper corrects single errors transparently (scrubbing the stored
word so errors cannot accumulate) and a double error is detected but
uncorrectable: a system failure, since SECDED has no second line of
defence.  Triple errors may silently miscorrect — the reason the FIT
solver pins SECDED's failure threshold at 3.

The energy accounting reflects the paper's: 39 bits are read/written
instead of 32 (structural, via the stored width) plus the codec energy
"to generate the code word, to check for an error, and to correct".
"""

from __future__ import annotations

from repro.core.fit_solver import SCHEME_SECDED
from repro.ecc.hamming import SecdedCodec
from repro.mitigation.base import SchemeMemory, SchemeRunner

#: Per-access energy multiplier of the SECDED codec logic (syndrome
#: generation + correction network), on top of the structural 39/32
#: word widening; after Hung et al. [15] / Wang et al. [16].
SECDED_CODEC_ENERGY_FACTOR = 1.15


class SecdedRunner(SchemeRunner):
    """Platform with (39,32) SECDED wrappers on IM and SP."""

    name = "SECDED"
    reliability = SCHEME_SECDED
    memories = (
        SchemeMemory("IM", SecdedCodec, auto_scrub=True,
                     codec_energy_factor=SECDED_CODEC_ENERGY_FACTOR),
        SchemeMemory("SP", SecdedCodec, auto_scrub=True,
                     codec_energy_factor=SECDED_CODEC_ENERGY_FACTOR),
    )
