"""DECTED — double-error-correcting, triple-error-detecting ECC.

Not evaluated in the paper, but the natural next rung on the ECC ladder
between SECDED and OCEAN, and the classic "what if we just used a
stronger code?" question the OCEAN comparison invites.  Implemented as
a shortened BCH t=2 code over GF(2^6): 32 data bits + 12 check bits =
44 stored bits; corrects any double error, detects triples, fails at
the quadruple.

The ablation bench (`benchmarks/test_ablation_ecc_strength.py`) shows
the trade-off the paper's Section V implies: each added rung of
correction strength buys ~60-110 mV of voltage but pays growing
storage (7 -> 12 -> 24 check bits) and codec energy — which is exactly
why the demand-driven OCEAN approach wins at equal protection.
"""

from __future__ import annotations

from repro.core.errors import validate_vdd
from repro.core.fit_solver import SchemeReliability
from repro.ecc.bch import BchCodec
from repro.soc.energy_model import MemoryComponentSpec
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform
from repro.soc.ports import CodecPort
from repro.mitigation.base import SchemeRunner

#: DECTED failure semantics: corrects 2, detects 3, dies at 4
#: simultaneous errors in a 44-bit stored word.
SCHEME_DECTED = SchemeReliability(
    name="DECTED", word_bits=44, fail_threshold=4
)

#: Per-access energy factor of the t=2 BCH codec (between SECDED's
#: 1.15 and the t=4 buffer's 1.30).
DECTED_CODEC_ENERGY_FACTOR = 1.22


class DectedRunner(SchemeRunner):
    """Platform with BCH t=2 wrappers on IM and SP."""

    name = "DECTED"
    reliability = SCHEME_DECTED

    def build_platform(self, vdd: float) -> Platform:
        vdd = validate_vdd(vdd, "DECTED.build_platform")
        codec = BchCodec(data_bits=32, t=2)
        assert codec.code_bits == SCHEME_DECTED.word_bits
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
                stored_bits=44,
                codec_energy_factor=DECTED_CODEC_ENERGY_FACTOR,
            ),
            MemoryComponentSpec(
                name="SP",
                words=self.config.sp_words,
                stored_bits=44,
                codec_energy_factor=DECTED_CODEC_ENERGY_FACTOR,
            ),
        ]
