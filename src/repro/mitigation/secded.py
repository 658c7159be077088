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

from repro.core.errors import validate_vdd
from repro.core.fit_solver import SCHEME_SECDED
from repro.ecc.hamming import SecdedCodec
from repro.soc.energy_model import MemoryComponentSpec
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform
from repro.soc.ports import CodecPort
from repro.mitigation.base import SchemeRunner

#: Per-access energy multiplier of the SECDED codec logic (syndrome
#: generation + correction network), on top of the structural 39/32
#: word widening; after Hung et al. [15] / Wang et al. [16].
SECDED_CODEC_ENERGY_FACTOR = 1.15


class SecdedRunner(SchemeRunner):
    """Platform with (39,32) SECDED wrappers on IM and SP."""

    name = "SECDED"
    reliability = SCHEME_SECDED

    def build_platform(self, vdd: float) -> Platform:
        vdd = validate_vdd(vdd, "SECDED.build_platform")
        codec = SecdedCodec()
        im = FaultyMemory(
            "IM",
            self.config.im_words,
            width=codec.code_bits,
            faults=VoltageFaultModel(
                self.access_model, codec.code_bits, vdd, rng=self._rng(1),
            ),
        )
        sp = FaultyMemory(
            "SP",
            self.config.sp_words,
            width=codec.code_bits,
            faults=VoltageFaultModel(
                self.access_model, codec.code_bits, vdd, rng=self._rng(2),
            ),
        )
        return Platform(
            im,
            CodecPort(im, codec, auto_scrub=True),
            sp,
            CodecPort(sp, codec, auto_scrub=True),
        )

    def memory_specs(self) -> list[MemoryComponentSpec]:
        return [
            MemoryComponentSpec(
                name="IM",
                words=self.config.im_words,
                stored_bits=39,
                codec_energy_factor=SECDED_CODEC_ENERGY_FACTOR,
            ),
            MemoryComponentSpec(
                name="SP",
                words=self.config.sp_words,
                stored_bits=39,
                codec_energy_factor=SECDED_CODEC_ENERGY_FACTOR,
            ),
        ]
