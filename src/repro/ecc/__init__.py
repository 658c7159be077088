"""Error-correcting-code substrate.

Section V's two hardware mitigation mechanisms need real codecs:

* SECDED — the (39,32) extended Hamming code "widely used in industry";
  implemented bit-exactly in :mod:`repro.ecc.hamming`.
* OCEAN's protected buffer — "error-protected buffer with quadruple
  error correction capability"; implemented as a shortened binary
  BCH(63,39) t=4 code (:mod:`repro.ecc.bch`) with a 4-way interleaved
  SECDED alternative (:mod:`repro.ecc.interleave`) for the ablation.

Supporting modules: GF(2) matrix algebra (:mod:`repro.ecc.gf2`),
GF(2^m) field arithmetic (:mod:`repro.ecc.gf2m`) and parity detection
(:mod:`repro.ecc.parity`).  The codecs meet the memories in
:class:`repro.soc.ports.CodecPort`, the paper's memory wrapper.
"""

from repro.ecc.base import (
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    status_code,
)
from repro.ecc.parity import ParityCodec
from repro.ecc.hamming import SecdedCodec
from repro.ecc.bch import BchCodec
from repro.ecc.interleave import InterleavedCodec

__all__ = [
    "Codec",
    "DecodeResult",
    "DecodeStatus",
    "BatchDecodeResult",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED",
    "status_code",
    "ParityCodec",
    "SecdedCodec",
    "BchCodec",
    "InterleavedCodec",
]
