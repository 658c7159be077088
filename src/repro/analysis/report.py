"""Full reproduction report.

Runs every experiment of the paper's evaluation and renders one plain-
text report: the complete paper-vs-model comparison in a single call.
Used by ``python -m repro`` and handy for regression eyeballing::

    from repro.analysis.report import full_report
    print(full_report(fft_points=64))
"""

from __future__ import annotations

import numpy as np

from repro.analysis.experiments import (
    fig1_energy_per_cycle,
    fig4_retention_ber,
    fig8_power_breakdown,
    fig9_power_breakdown,
    fig10_finfet_delay,
    headline_claims,
    table1_comparison,
    table2_minimum_voltages,
)
from repro.analysis.ascii_plot import line_plot
from repro.analysis.tables import format_table


def _section(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{title}\n{rule}\n"


def _fig1_text() -> str:
    rows = fig1_energy_per_cycle()
    totals = [r.total_j for r in rows]
    best = rows[int(np.argmin(totals))]
    chart = line_plot(
        [r.vdd for r in rows],
        {
            "total pJ/cycle": [r.total_j * 1e12 for r in rows],
            "memory share pJ": [
                (r.memory_dynamic_j + r.memory_leakage_j) * 1e12
                for r in rows
            ],
        },
        width=56,
        height=12,
        x_label="V_DD",
    )
    return (
        f"{chart}\n"
        f"Energy-optimal supply: {best.vdd:.3f} V "
        f"({best.total_j * 1e12:.1f} pJ/cycle)\n"
    )


def table1_text(title: str | None = None) -> str:
    """Table 1 as a text table."""
    rows = table1_comparison()
    return format_table(
        ("design", "dyn pJ", "leak uW", "area mm2", "ret V", "fmax MHz"),
        [
            (
                r["name"],
                r["dyn_energy_pj"],
                r["leakage_uw"],
                r["area_mm2"],
                r["retention_v"],
                r["max_freq_mhz"],
            )
            for r in rows
        ],
        title=title,
    )


def _fig4_text() -> str:
    lines = []
    for s in fig4_retention_ber(words=128, bits=32):
        lines.append(
            f"{s.design}: fitted v_mean={s.fitted_v_mean:.3f} V, "
            f"sigma={s.fitted_v_sigma * 1e3:.1f} mV"
        )
    return "\n".join(lines)


def table2_text(title: str | None = None) -> str:
    """Table 2 as a text table."""
    rows = table2_minimum_voltages()
    return format_table(
        ("frequency MHz", "scheme", "V model", "V paper", "binding"),
        [
            (
                f"{r['frequency_hz'] / 1e6:.2f}",
                r["scheme"],
                f"{r['vdd_model']:.3f}",
                f"{r['vdd_paper']:.2f}",
                r["binding"],
            )
            for r in rows
        ],
        title=title,
    )


def power_text(study, label: str) -> str:
    """A Figure 8/9 power study as a text table and its savings line."""
    table = format_table(
        ("scheme", "V", "total uW", "correct"),
        [
            (
                bar.scheme,
                f"{bar.vdd:.2f}",
                bar.total_w * 1e6,
                "yes" if bar.correct else "NO",
            )
            for bar in study.bars
        ],
        title=label,
    )
    return (
        f"{table}\n"
        f"OCEAN vs none: {study.savings('OCEAN', 'none') * 100:.0f}% | "
        f"OCEAN vs ECC: {study.savings('OCEAN', 'SECDED') * 100:.0f}%"
    )


def _fig10_text() -> str:
    voltages = np.arange(0.25, 0.925, 0.05)
    rows = fig10_finfet_delay(voltages=voltages, samples=600)
    by_node = {}
    for r in rows:
        by_node.setdefault(r.node, []).append(r.mean_delay_s * 1e12)
    chart = line_plot(
        list(voltages),
        {node: means for node, means in by_node.items()},
        width=56,
        height=12,
        logy=True,
        x_label="V_DD",
        title="mean inverter delay, ps (log scale)",
    )
    table = format_table(
        ("node", "V", "mean ps", "sigma/mean"),
        [
            (
                r.node,
                f"{r.vdd:.2f}",
                r.mean_delay_s * 1e12,
                f"{r.sigma_over_mean * 100:.1f}%",
            )
            for r in rows
            if abs(r.vdd % 0.2) < 0.026 or r.vdd < 0.31
        ],
    )
    return f"{chart}\n{table}"


def claims_text(claims) -> str:
    """The headline claims next to the paper's values."""
    return (
        f"power vs no mitigation: {claims.power_ratio_vs_none:.2f}x "
        "(paper: up to 3x)\n"
        f"power vs ECC: {claims.power_ratio_vs_ecc:.2f}x "
        "(paper: up to 2x)\n"
        "dynamic power beyond error-free limit: "
        f"{claims.dynamic_power_ratio_beyond_limit:.2f}x (paper: 3.3x)"
    )


def full_report(fft_points: int = 64, seed: int = 1) -> str:
    """Regenerate everything and return the report text.

    ``fft_points`` trades fidelity against runtime for the simulated
    Figure 8/9 studies (64 runs in seconds, 1024 is the paper's size).
    """
    claims = headline_claims(fft_points=fft_points, seed=seed)
    parts = [
        "REPRODUCTION REPORT — Gemmeke et al., DATE 2014",
        _section("Figure 1: energy per cycle vs supply"),
        _fig1_text(),
        _section("Table 1: memory implementations"),
        table1_text(),
        _section("Figure 4: retention statistics (9 dies, Eq. 4 refit)"),
        _fig4_text(),
        _section("Table 2: minimum voltage per scheme (FIT 1e-15)"),
        table2_text(),
        _section("Figures 8/9: power under mitigation (simulated FFT)"),
        power_text(
            fig8_power_breakdown(fft_points=fft_points, seed=seed),
            "290 kHz, cell-based platform",
        ),
        "",
        power_text(
            fig9_power_breakdown(fft_points=fft_points, seed=seed),
            "11 MHz, commercial memory",
        ),
        "",
        _section("Figure 10: finFET inverter delay"),
        _fig10_text(),
        _section("Headline claims"),
        claims_text(claims),
    ]
    return "\n".join(parts)
