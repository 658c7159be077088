"""Tests for the FFT workload: packing, reference model, codegen."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.fft as fft_module
from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
from repro.mitigation import SecdedRunner
from repro.soc.cpu import StopReason
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform
from repro.soc.ports import RawPort
from repro.store.keys import golden_fingerprint
from repro.store.pipeline import campaign_point_key
from repro.workloads.fft import (
    FFT_BUILDS_KEPT,
    build_fft_program,
    fft_program_and_golden,
    fixed_point_fft_reference,
    float_fft_of_packed,
    generate_input,
    pack_complex,
    twiddle_words,
    unpack_complex,
)
from repro.workloads.streaming import Phase, StreamingWorkload


class TestPacking:
    @given(
        re=st.integers(-32768, 32767), im=st.integers(-32768, 32767)
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, re, im):
        assert unpack_complex(pack_complex(re, im)) == (re, im)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_complex(32768, 0)
        with pytest.raises(ValueError):
            pack_complex(0, -32769)

    def test_layout_re_high(self):
        assert pack_complex(1, 0) == 1 << 16
        assert pack_complex(0, 1) == 1


class TestTwiddles:
    def test_first_twiddle_is_unity(self):
        re, im = unpack_complex(twiddle_words(64)[0])
        assert re == 32767
        assert im == 0

    def test_quarter_turn(self):
        words = twiddle_words(64)
        re, im = unpack_complex(words[16])  # e^{-i pi/2} = -i
        assert abs(re) <= 1
        assert im == -32767

    def test_unit_magnitude(self):
        for word in twiddle_words(32):
            re, im = unpack_complex(word)
            mag = (re * re + im * im) ** 0.5 / 32767.0
            assert mag == pytest.approx(1.0, abs=2e-4)


class TestReferenceModel:
    def test_impulse_gives_flat_spectrum(self):
        n = 64
        data = generate_input(n, kind="impulse", amplitude=0.5)
        out = fixed_point_fft_reference(data)
        # FFT(impulse)/n: every bin equals amplitude/n.
        expected = int(round(0.5 * 32767)) >> 6  # /64 via 6 stage shifts
        for word in out:
            re, im = unpack_complex(word)
            assert abs(re - expected) <= 1
            assert abs(im) <= 1

    def test_matches_float_fft(self):
        n = 128
        data = generate_input(n, kind="noise", seed=3)
        out = fixed_point_fft_reference(data)
        got = np.array(
            [complex(*unpack_complex(w)) / 32767.0 for w in out]
        )
        ref = float_fft_of_packed(data)
        assert np.abs(got - ref).max() < 1e-3

    def test_tone_lands_in_its_bin(self):
        n = 64
        data = generate_input(n, kind="tones")
        out = fixed_point_fft_reference(data)
        mags = [
            abs(complex(*unpack_complex(w))) for w in out
        ]
        peaks = sorted(range(n), key=lambda i: -mags[i])[:2]
        assert set(peaks) == {3, n // 5}

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fixed_point_fft_reference([0] * 12)

    def test_linearity_in_scaling(self):
        """Halving the input halves the output (within rounding)."""
        n = 32
        full = generate_input(n, kind="tones", amplitude=0.4)
        half = [
            pack_complex(re // 2, im // 2)
            for re, im in map(unpack_complex, full)
        ]
        out_full = fixed_point_fft_reference(full)
        out_half = fixed_point_fft_reference(half)
        for wf, wh in zip(out_full, out_half):
            rf, imf = unpack_complex(wf)
            rh, imh = unpack_complex(wh)
            assert abs(rf - 2 * rh) <= 8
            assert abs(imf - 2 * imh) <= 8


class TestGeneratedProgram:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_simulator_matches_reference(self, n):
        prog = build_fft_program(n)
        platform = self._run(prog)
        out = platform.read_data(0, n)
        assert out == prog.expected_output(list(prog.data_words[:n]))

    def test_phase_count(self):
        prog = build_fft_program(64)
        assert prog.workload.n_phases == 7  # bitrev + 6 stages

    def test_yields_match_phases(self):
        prog = build_fft_program(16)
        platform = self._build(prog)
        yields = 0
        while platform.run_until_stop() is StopReason.YIELD:
            yields += 1
        assert yields == prog.workload.n_phases

    def test_program_fits_4kb_im(self):
        prog = build_fft_program(1024)
        assert len(prog.workload.program_words) <= 1024

    def test_data_fits_8kb_sp(self):
        prog = build_fft_program(1024)
        assert len(prog.workload.data_words) <= 2048

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            build_fft_program(12)
        with pytest.raises(ValueError):
            build_fft_program(64, input_words=[0] * 63)

    def test_custom_input(self):
        n = 16
        data = generate_input(n, kind="impulse")
        prog = build_fft_program(n, input_words=data)
        platform = self._run(prog)
        assert platform.read_data(0, n) == prog.expected_output(data)

    @staticmethod
    def _build(prog):
        im = FaultyMemory("IM", 1024, 32)
        sp = FaultyMemory("SP", 2048, 32)
        platform = Platform(im, RawPort(im), sp, RawPort(sp))
        platform.load_program(list(prog.workload.program_words))
        platform.load_data(list(prog.data_words))
        return platform

    @classmethod
    def _run(cls, prog):
        platform = cls._build(prog)
        while platform.run_until_stop() is not StopReason.HALT:
            pass
        return platform


class TestStreamingWorkload:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase(index=-1, name="x", chunk_base=0, chunk_words=4)
        with pytest.raises(ValueError):
            Phase(index=0, name="x", chunk_base=0, chunk_words=0)

    def test_workload_validation(self):
        phase = Phase(index=0, name="only", chunk_base=0, chunk_words=4)
        with pytest.raises(ValueError):
            StreamingWorkload(
                name="w", program_words=(), phases=(phase,),
                data_words=(0,), data_base=0, result_base=0, result_words=1,
            )
        bad_phase = Phase(index=1, name="x", chunk_base=0, chunk_words=4)
        with pytest.raises(ValueError):
            StreamingWorkload(
                name="w", program_words=(1,), phases=(bad_phase,),
                data_words=(0,), data_base=0, result_base=0, result_words=1,
            )


class TestProgramAndGoldenMemo:
    """``fft_program_and_golden``: one build and golden output per size."""

    def test_matches_a_fresh_build(self):
        fft_program_and_golden.cache_clear()
        program, golden = fft_program_and_golden(16)
        fresh = build_fft_program(16)
        assert program.workload == fresh.workload
        assert golden == tuple(
            fresh.expected_output(list(fresh.data_words[:16]))
        )

    def test_builds_once_per_size_through_the_module_names(
        self, monkeypatch
    ):
        """It reaches ``build_fft_program`` and ``expected_output`` where
        a profiler wraps them, so a traced run still sees first builds."""
        built, computed = [], []
        build = fft_module.build_fft_program
        expected_output = fft_module.FftProgram.expected_output

        def counted_build(n):
            built.append(n)
            return build(n)

        def counted_output(self, input_words):
            computed.append(self.n)
            return expected_output(self, input_words)

        monkeypatch.setattr(fft_module, "build_fft_program", counted_build)
        monkeypatch.setattr(
            fft_module.FftProgram, "expected_output", counted_output
        )
        fft_program_and_golden.cache_clear()
        first = fft_program_and_golden(16)
        assert fft_program_and_golden(16) is first
        fft_program_and_golden(32)
        assert built == computed == [16, 32]

    def test_memo_is_bounded(self):
        assert fft_program_and_golden.cache_info().maxsize == FFT_BUILDS_KEPT

    def test_tuple_golden_keeps_the_store_keys(self):
        """The memo's tuple fingerprints like the list golden every
        stored campaign point was keyed with (literals: FFT-64)."""
        program, golden = fft_program_and_golden(64)
        assert isinstance(golden, tuple)
        assert golden_fingerprint(golden) == golden_fingerprint(list(golden))
        assert golden_fingerprint(golden) == (
            "ae4f44bbf0f0b5737d5f1a1669047d70cf58b39ad5794d758b900ae8df98d183"
        )
        key = campaign_point_key(
            SecdedRunner, program.workload, golden,
            ACCESS_CELL_BASED_40NM_TYPICAL, vdd=0.44, frequency=290e3,
            runs=20, seed_base=100, runner_kwargs={"macro_style": "cell-based"},
        )
        assert key.fingerprint() == (
            "6d704ca38111016b9f50527b5e893325d017ac4fed0ec37ee8413cf3e14fad95"
        )
