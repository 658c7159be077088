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

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-5"], "seed must be non-negative"),
        (["--vdd", "-0.1"], "supply voltage must be finite and non-negative"),
        (["--runs", "0"], "runs must be positive"),
        (["--lanes", "0"], "lanes must be positive"),
        (["--max-retries", "-1"], "--max-retries must be >= 0, got -1"),
        (["--task-timeout", "0"], "--task-timeout must be positive"),
    ], ids=["seed", "vdd", "runs", "lanes", "max-retries", "task-timeout"])
    def test_campaign_refuses_invalid_flags_before_running(
        self, flags, message, monkeypatch
    ):
        """Each refusal is one ``repro campaign:`` line (a non-zero
        exit), from the validator ``repro serve`` applies to a spec, not
        a traceback or a campaign of quarantined runs."""
        import repro.analysis.campaign as campaign

        def no_campaign(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(campaign, "run_campaign", no_campaign)
        with pytest.raises(SystemExit) as refused:
            run(["campaign", "--fft", "16", "--no-store", *flags])
        assert str(refused.value).startswith("repro campaign: ")
        assert message in str(refused.value)
        assert "\n" not in str(refused.value)

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
