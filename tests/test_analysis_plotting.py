"""Tests for ASCII plotting and the execution profiler."""

import pytest

from repro.analysis.ascii_plot import histogram, line_plot
from repro.obs import names, scoped_metrics
from repro.obs.profile import scoped_profiling
from repro.soc.cpu import StopReason
from repro.soc.isa import Opcode
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform
from repro.soc.ports import RawPort
from repro.workloads.fft import build_fft_program


class TestLinePlot:
    def test_renders_extremes_and_legend(self):
        text = line_plot(
            [0.0, 0.5, 1.0],
            {"energy": [4.0, 1.0, 4.0]},
            width=20,
            height=6,
            title="U-shape",
            x_label="V",
        )
        assert "U-shape" in text
        assert "* energy" in text
        assert "(V)" in text
        assert "4" in text  # y-axis extreme label

    def test_multiple_series_get_distinct_markers(self):
        text = line_plot(
            [0, 1], {"a": [0, 1], "b": [1, 0]}, width=16, height=4
        )
        assert "* a" in text
        assert "o b" in text

    def test_log_axis_drops_non_positive(self):
        text = line_plot(
            [0, 1, 2],
            {"ber": [0.0, 1e-6, 1e-2]},
            width=16, height=4, logy=True,
        )
        assert "1e-06" in text or "0.01" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            line_plot([0, 1], {}, width=20, height=5)
        with pytest.raises(ValueError):
            line_plot([0, 1], {"a": [1]}, width=20, height=5)
        with pytest.raises(ValueError):
            line_plot([0, 1], {"a": [1, 2]}, width=4, height=2)
        with pytest.raises(ValueError):
            line_plot([0, 1], {"a": [0.0, -1.0]}, logy=True)


class TestHistogram:
    def test_bars_sorted_and_scaled(self):
        text = histogram({"lw": 10, "mul": 40, "sw": 5}, width=20)
        lines = text.splitlines()
        assert lines[0].strip().startswith("mul")
        assert lines[0].count("#") == 20
        assert lines[-1].strip().startswith("sw")

    def test_zero_counts_ok(self):
        text = histogram({"a": 0, "b": 0})
        assert "a" in text and "b" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram({})
        with pytest.raises(ValueError):
            histogram({"a": -1})


class TestProfiler:
    def _run_fft(self, n=64):
        program = build_fft_program(n)
        im = FaultyMemory("IM", 1024, 32)
        sp = FaultyMemory("SP", 2048, 32)
        platform = Platform(im, RawPort(im), sp, RawPort(sp))
        platform.load_program(list(program.workload.program_words))
        platform.load_data(list(program.data_words))
        with scoped_metrics() as registry, scoped_profiling():
            while platform.run_until_stop() is not StopReason.HALT:
                pass
        return platform, registry.snapshot()

    @staticmethod
    def _fraction(snapshot, *opcodes):
        mix = snapshot.histograms[names.PROFILE_OPCODE]
        return sum(mix.get(op.name, 0) for op in opcodes) / sum(
            mix.values()
        )

    def test_counts_every_fetch(self):
        platform, snapshot = self._run_fft()
        executed = platform.cpu.state.instructions
        assert sum(snapshot.histograms[names.PROFILE_OPCODE].values()) == (
            executed
        )
        assert sum(snapshot.histograms[names.PROFILE_PC].values()) == (
            executed
        )

    def test_fft_is_butterfly_dominated(self):
        """The generated FFT must spend its time where an FFT should:
        the multiply/shift/load-store mix of the butterfly loop."""
        _, snapshot = self._run_fft()
        assert self._fraction(snapshot, Opcode.MUL) > 0.05
        assert self._fraction(snapshot, Opcode.LW, Opcode.SW) > 0.08
        assert self._fraction(snapshot, Opcode.MUL, Opcode.MULH) < 0.25

    def test_hottest_pcs_are_in_a_loop(self):
        _, snapshot = self._run_fft()
        by_pc = snapshot.histograms[names.PROFILE_PC]
        assert max(by_pc.values()) > 300  # executed hundreds of times

    def test_histogram_integration(self):
        _, snapshot = self._run_fft(16)
        text = histogram(snapshot.histograms[names.PROFILE_OPCODE], width=30)
        assert "MUL" in text
