"""Application workloads.

The paper's evaluation runs a 1K-point FFT, "but the analysis is
applicable to other streaming applications as well".  This subpackage
provides:

* :mod:`repro.workloads.fft` — a fixed-point radix-2 FFT: a bit-exact
  Python reference model and an NTC32 assembly generator whose phases
  (bit-reversal plus one phase per butterfly stage) are the units
  OCEAN checkpoints between.
* :mod:`repro.workloads.streaming` — generic streaming-phase
  abstractions used by the OCEAN controller.
"""

from repro.workloads.fft import (
    FftProgram,
    build_fft_program,
    fft_program_and_golden,
    fixed_point_fft_reference,
    generate_input,
    pack_complex,
    unpack_complex,
)
from repro.workloads.fir import (
    FirProgram,
    build_fir_program,
    fir_reference,
    generate_signal,
    lowpass_taps,
)
from repro.workloads.streaming import Phase, StreamingWorkload

__all__ = [
    "FftProgram",
    "build_fft_program",
    "fft_program_and_golden",
    "fixed_point_fft_reference",
    "generate_input",
    "pack_complex",
    "unpack_complex",
    "FirProgram",
    "build_fir_program",
    "fir_reference",
    "generate_signal",
    "lowpass_taps",
    "Phase",
    "StreamingWorkload",
]
