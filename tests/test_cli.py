"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, run


class TestParser:
    def test_default_is_report(self):
        args = build_parser().parse_args([])
        assert args.exhibit == "report"
        assert args.fft == 64

    def test_exhibit_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig42"])

    def test_fft_option(self):
        args = build_parser().parse_args(["fig8", "--fft", "128"])
        assert args.fft == 128


class TestRun:
    def test_table2_contains_anchor_voltages(self):
        text = run(["table2"])
        assert "0.550" in text
        assert "0.331" in text
        assert "frequency" in text  # the 1.96 MHz binding column

    def test_table1_lists_all_designs(self):
        text = run(["table1"])
        for name in (
            "COTS-40nm", "CustomSRAM-40nm", "CellBased-65nm",
            "CellBased-imec-40nm",
        ):
            assert name in text

    def test_claims_quote_paper_values(self):
        text = run(["claims", "--fft", "16"])
        assert "paper: up to 3x" in text
        assert "paper: 3.3x" in text

    def test_fig8_renders_three_schemes(self):
        text = run(["fig8", "--fft", "16"])
        for scheme in ("none", "SECDED", "OCEAN"):
            assert scheme in text
        assert "OCEAN vs none" in text

    def test_rejects_non_power_of_two_fft(self):
        with pytest.raises(SystemExit, match="power of two"):
            run(["fig8", "--fft", "100"])

    @pytest.mark.parametrize("argv, largest", [
        (["campaign", "--fft", "2048"], 1024),
        (["campaign", "--scheme", "ocean", "--fft", "1024"], 512),
    ])
    def test_campaign_rejects_ffts_the_platform_cannot_hold(
        self, argv, largest, monkeypatch
    ):
        """A campaign runs on the stock platform, so its scratchpad (and
        OCEAN's checkpoint buffer) bounds the FFT; the size is refused
        before any build, as the server's spec check does."""
        import repro.workloads.fft as fft

        def no_build(*args, **kwargs):
            raise AssertionError("the FFT was built")

        monkeypatch.setattr(fft, "build_fft_program", no_build)
        with pytest.raises(
            SystemExit, match=f"the largest fft is {largest}$"
        ):
            run(argv)
