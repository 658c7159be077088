"""Fixed-point radix-2 FFT: reference model and NTC32 code generator.

The paper's benchmark is a 1K-point FFT on the ARM9 platform.  Here the
FFT is generated as real NTC32 assembly and executed instruction by
instruction on the simulator, so memory faults corrupt *actual* data
and the mitigation schemes fight *actual* corruption.

Data format: one 32-bit scratchpad word per complex sample, Q15 real
part in the high half-word, Q15 imaginary part in the low half-word.
Each butterfly stage scales by 1/2 (the standard guard against
fixed-point overflow), so the program computes FFT(x) / n.

Scratchpad layout for an n-point transform::

    [0          .. n-1      ]   packed complex data (in place)
    [n          .. n + n/2-1]   packed twiddle factors w_k = e^(-2*pi*i*k/n)

Phases (YIELD-delimited, for OCEAN): bit-reversal, then one phase per
butterfly stage — log2(n) + 1 phases total.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.soc.assembler import assemble
from repro.workloads.streaming import Phase, StreamingWorkload

_Q15_ONE = 32767
_ROUND = 1 << 14  # Q15 rounding constant for the >> 15 product shift


def _to_q15(value: float) -> int:
    """Quantise a float in [-1, 1) to Q15 with saturation."""
    scaled = int(round(value * _Q15_ONE))
    return max(-32768, min(32767, scaled))


def pack_complex(re: int, im: int) -> int:
    """Pack two signed Q15 values into one 32-bit word (re high)."""
    for name, val in (("re", re), ("im", im)):
        if not -32768 <= val <= 32767:
            raise ValueError(f"{name}={val} out of Q15 range")
    return ((re & 0xFFFF) << 16) | (im & 0xFFFF)


def unpack_complex(word: int) -> tuple[int, int]:
    """Inverse of :func:`pack_complex`."""
    if word < 0 or word >> 32:
        raise ValueError(f"word must be 32-bit, got {word:#x}")
    re = (word >> 16) & 0xFFFF
    im = word & 0xFFFF
    if re & 0x8000:
        re -= 1 << 16
    if im & 0x8000:
        im -= 1 << 16
    return re, im


def twiddle_words(n: int) -> list[int]:
    """Return the packed Q15 twiddle table w_k = e^(-2*pi*i*k/n)."""
    words = []
    for k in range(n // 2):
        angle = -2.0 * math.pi * k / n
        words.append(
            pack_complex(_to_q15(math.cos(angle)), _to_q15(math.sin(angle)))
        )
    return words


# ----------------------------------------------------------------------
# Bit-exact Python reference of what the assembly computes
# ----------------------------------------------------------------------
def _butterfly(u: int, v: int, w: int) -> tuple[int, int]:
    """One radix-2 butterfly on packed words, bit-exact vs the ISA."""
    u_re, u_im = unpack_complex(u)
    v_re, v_im = unpack_complex(v)
    w_re, w_im = unpack_complex(w)
    t_re = (v_re * w_re - v_im * w_im + _ROUND) >> 15
    t_im = (v_re * w_im + v_im * w_re + _ROUND) >> 15
    out1 = pack_complex((u_re + t_re) >> 1, (u_im + t_im) >> 1)
    out2 = pack_complex((u_re - t_re) >> 1, (u_im - t_im) >> 1)
    return out1, out2


def fixed_point_fft_reference(data: list[int]) -> list[int]:
    """Run the fixed-point FFT on packed words, bit-exactly.

    This is the golden model the simulator's output must equal word for
    word in a fault-free run (and after successful mitigation).
    """
    n = len(data)
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    log2n = n.bit_length() - 1
    twiddles = twiddle_words(n)
    out = list(data)
    # Bit-reversal permutation.
    for i in range(n):
        j = int(format(i, f"0{log2n}b")[::-1], 2)
        if j > i:
            out[i], out[j] = out[j], out[i]
    # log2(n) butterfly stages.
    length = 2
    while length <= n:
        half = length // 2
        step = n // length
        for base in range(0, n, length):
            for k in range(half):
                w = twiddles[k * step]
                i1, i2 = base + k, base + k + half
                out[i1], out[i2] = _butterfly(out[i1], out[i2], w)
        length *= 2
    return out


def float_fft_of_packed(data: list[int]) -> np.ndarray:
    """Return numpy's FFT of the packed input, scaled like the
    fixed-point pipeline (divided by n), for accuracy checks."""
    n = len(data)
    samples = np.array(
        [complex(re, im) / _Q15_ONE for re, im in map(unpack_complex, data)]
    )
    return np.fft.fft(samples) / n


# ----------------------------------------------------------------------
# Input stimulus
# ----------------------------------------------------------------------
def generate_input(
    n: int, kind: str = "tones", seed: int = 7, amplitude: float = 0.45
) -> list[int]:
    """Generate packed test input.

    ``kind``: "tones" (two complex exponentials, the classic FFT
    smoke stimulus), "noise" (uniform complex noise), or "impulse".
    """
    if not 0.0 < amplitude <= 0.5:
        raise ValueError("amplitude must be in (0, 0.5] to avoid overflow")
    rng = np.random.default_rng(seed)
    words = []
    if kind == "tones":
        bins = (3, n // 5)
        for i in range(n):
            re = sum(
                0.5 * amplitude * math.cos(2 * math.pi * b * i / n)
                for b in bins
            )
            im = sum(
                0.5 * amplitude * math.sin(2 * math.pi * b * i / n)
                for b in bins
            )
            words.append(pack_complex(_to_q15(re), _to_q15(im)))
    elif kind == "noise":
        for _ in range(n):
            words.append(
                pack_complex(
                    _to_q15(float(rng.uniform(-amplitude, amplitude))),
                    _to_q15(float(rng.uniform(-amplitude, amplitude))),
                )
            )
    elif kind == "impulse":
        words = [pack_complex(0, 0)] * n
        words[0] = pack_complex(_to_q15(amplitude), 0)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    return words


# ----------------------------------------------------------------------
# NTC32 code generation
# ----------------------------------------------------------------------
def _bitrev_source(n: int, log2n: int) -> str:
    return f"""
; ---- phase 0: bit-reversal permutation ----
        li   r2, 0             ; i
bitrev_loop:
        li   r3, 0             ; j (reversed index)
        mv   r4, r2
        li   r5, {log2n}
bitrev_inner:
        slli r3, r3, 1
        andi r6, r4, 1
        or   r3, r3, r6
        srai r4, r4, 1
        addi r5, r5, -1
        bne  r5, r0, bitrev_inner
        bge  r2, r3, bitrev_noswap
        lw   r6, r2, 0
        lw   r7, r3, 0
        sw   r7, r2, 0
        sw   r6, r3, 0
bitrev_noswap:
        addi r2, r2, 1
        blt  r2, r1, bitrev_loop
        yield
"""


def _stage_source(s: int, length: int, half: int, log2_step: int) -> str:
    return f"""
; ---- phase {s}: butterfly stage len={length} ----
        li   r2, 0             ; base
stage{s}_base:
        li   r3, 0             ; k
stage{s}_k:
        slli r4, r3, {log2_step}
        add  r4, r4, r1        ; twiddle address = n + k*step
        lw   r5, r4, 0         ; w
        add  r6, r2, r3        ; i1
        lw   r7, r6, 0         ; u
        addi r8, r6, {half}    ; i2
        lw   r9, r8, 0         ; v
        srai r10, r5, 16       ; w_re
        slli r11, r5, 16
        srai r11, r11, 16      ; w_im
        srai r12, r9, 16       ; v_re
        slli r13, r9, 16
        srai r13, r13, 16      ; v_im
        mul  r5, r12, r10      ; v_re*w_re
        mul  r14, r13, r11     ; v_im*w_im
        sub  r5, r5, r14
        add  r5, r5, r15
        srai r5, r5, 15        ; t_re
        mul  r9, r12, r11      ; v_re*w_im
        mul  r14, r13, r10     ; v_im*w_re
        add  r9, r9, r14
        add  r9, r9, r15
        srai r9, r9, 15        ; t_im
        srai r10, r7, 16       ; u_re
        slli r11, r7, 16
        srai r11, r11, 16      ; u_im
        add  r12, r10, r5
        srai r12, r12, 1       ; (u_re + t_re) >> 1
        add  r13, r11, r9
        srai r13, r13, 1
        slli r14, r12, 16
        slli r13, r13, 16
        srli r13, r13, 16
        or   r14, r14, r13
        sw   r14, r6, 0        ; x[i1]
        sub  r12, r10, r5
        srai r12, r12, 1
        sub  r13, r11, r9
        srai r13, r13, 1
        slli r14, r12, 16
        slli r13, r13, 16
        srli r13, r13, 16
        or   r14, r14, r13
        sw   r14, r8, 0        ; x[i2]
        addi r3, r3, 1
        slti r14, r3, {half}
        bne  r14, r0, stage{s}_k
        addi r2, r2, {length}
        blt  r2, r1, stage{s}_base
        yield
"""


@dataclass(frozen=True)
class FftProgram:
    """A generated FFT ready to run on the platform."""

    n: int
    workload: StreamingWorkload
    source: str

    @property
    def data_words(self) -> tuple[int, ...]:
        return self.workload.data_words

    def expected_output(self, input_words: list[int]) -> list[int]:
        """Golden fixed-point result for the given input."""
        return fixed_point_fft_reference(input_words)


def build_fft_program(
    n: int = 1024, input_words: list[int] | None = None
) -> FftProgram:
    """Generate, assemble and package an n-point FFT workload.

    ``input_words`` defaults to the two-tone stimulus.  The returned
    workload's scratchpad image contains input data and the twiddle
    table; phases cover bit-reversal plus every butterfly stage.
    """
    if n < 4 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 4, got {n}")
    log2n = n.bit_length() - 1
    if input_words is None:
        input_words = generate_input(n)
    if len(input_words) != n:
        raise ValueError(
            f"input has {len(input_words)} words, expected {n}"
        )

    pieces = [
        f"; NTC32 {n}-point fixed-point radix-2 DIT FFT",
        "        li   r1, %d            ; n (also twiddle base)" % n,
        "        lui  r15, 4            ; 0x4000 Q15 rounding constant",
        _bitrev_source(n, log2n),
    ]
    stage = 1
    length = 2
    while length <= n:
        half = length // 2
        step = n // length
        pieces.append(
            _stage_source(stage, length, half, step.bit_length() - 1)
        )
        stage += 1
        length *= 2
    pieces.append("        halt")
    source = "\n".join(pieces)
    program = assemble(source)

    phases = [Phase(index=0, name="bit-reversal", chunk_base=0, chunk_words=n)]
    for s in range(1, log2n + 1):
        phases.append(
            Phase(
                index=s,
                name=f"stage {s} (len {2 ** s})",
                chunk_base=0,
                chunk_words=n,
            )
        )
    workload = StreamingWorkload(
        name=f"fft-{n}",
        program_words=tuple(program),
        phases=tuple(phases),
        data_words=tuple(list(input_words) + twiddle_words(n)),
        data_base=0,
        result_base=0,
        result_words=n,
    )
    return FftProgram(n=n, workload=workload, source=source)


#: FFT sizes whose program and golden output one process keeps
#: (:func:`fft_program_and_golden`); the least recently used goes first.
FFT_BUILDS_KEPT = 8


@functools.lru_cache(maxsize=FFT_BUILDS_KEPT)
def fft_program_and_golden(n: int) -> tuple[FftProgram, tuple[int, ...]]:
    """The n-point FFT on the default stimulus and its golden output.

    Built once per size and process, then shared: callers must not
    mutate what it returns.  The golden output is a tuple, which
    fingerprints like the list :meth:`FftProgram.expected_output`
    returns (:func:`repro.store.keys.golden_fingerprint`).
    """
    program = build_fft_program(n)
    golden = program.expected_output(list(program.data_words[:n]))
    return program, tuple(golden)
