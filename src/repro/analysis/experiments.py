"""One entry point per paper table and figure.

Every function regenerates the data behind one exhibit of the paper's
evaluation and returns it as plain dataclasses/arrays.  The benchmark
suite calls these, prints the rows, and asserts the qualitative anchors
(who wins, by what factor, where the crossovers sit); EXPERIMENTS.md
records paper-vs-measured per exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
    ACCESS_COMMERCIAL_40NM,
    ACCESS_COMMERCIAL_40NM_TYPICAL,
)
from repro.core.fit_solver import (
    SCHEME_NONE,
    SCHEME_OCEAN,
    SCHEME_SECDED,
    minimum_voltage,
)
from repro.core.retention import (
    RETENTION_CELL_BASED_40NM,
    RETENTION_COMMERCIAL_40NM,
    RetentionModel,
)
from repro.analysis.batch import BatchCampaign
from repro.obs import active_tracer, names
from repro.memdev.array import MemoryArray
from repro.memdev.library import table1_instances
from repro.mitigation import (
    NoMitigationRunner,
    OceanRunner,
    SecdedRunner,
)
from repro.soc.platform import PlatformConfig
from repro.soc.energy_model import (
    MemoryComponentSpec,
    PlatformEnergyModel,
)
from repro.tech.delay import (
    inverter_delay,
    monte_carlo_inverter_delay,
)
from repro.tech.node import (
    NODE_10NM_MG,
    NODE_14NM_FINFET,
    NODE_40NM_LP,
)
from repro.workloads.fft import fft_program_and_golden

#: The two Table 2 application frequencies plus Section V.B's 11 MHz.
FREQ_LOW = 290e3
FREQ_MID = 1.96e6
FREQ_HIGH = 11e6

#: Commercial memory IP vendor floor (Figure 1 discussion).
VENDOR_FLOOR_V = 0.7


# ----------------------------------------------------------------------
# Platform timing: the frequency floor behind Table 2
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _platform_path_depth() -> float:
    """Critical-path depth (in typical FO4 delays) of the Section V
    platform, calibrated to the paper's own anchor: 290 kHz is "the
    minimum allowable frequency at the lowest voltage" (0.33 V)."""
    return 1.0 / (FREQ_LOW * inverter_delay(NODE_40NM_LP, 0.33))


def platform_max_frequency(vdd: float) -> float:
    """Maximum platform clock at supply ``vdd`` (Section V timing)."""
    return 1.0 / (_platform_path_depth() * inverter_delay(NODE_40NM_LP, vdd))


def platform_frequency_floor(frequency_hz: float) -> float:
    """Lowest supply at which the platform meets ``frequency_hz``."""
    if frequency_hz <= 0.0:
        raise ValueError("frequency_hz must be positive")
    low, high = 0.2, 1.3
    if platform_max_frequency(high) < frequency_hz:
        raise ValueError(f"{frequency_hz:.3g} Hz unreachable")
    if platform_max_frequency(low) >= frequency_hz:
        return low
    for _ in range(60):
        mid = 0.5 * (low + high)
        if platform_max_frequency(mid) >= frequency_hz:
            high = mid
        else:
            low = mid
    return high


# ----------------------------------------------------------------------
# Figure 1 — energy per cycle vs supply voltage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig1Row:
    """One voltage point of the Figure 1 energy-per-cycle curve."""

    vdd: float
    vdd_memory: float
    logic_dynamic_j: float
    logic_leakage_j: float
    memory_dynamic_j: float
    memory_leakage_j: float

    @property
    def total_j(self) -> float:
        return (
            self.logic_dynamic_j + self.logic_leakage_j
            + self.memory_dynamic_j + self.memory_leakage_j
        )

    @property
    def memory_fraction(self) -> float:
        return (self.memory_dynamic_j + self.memory_leakage_j) / self.total_j

    @property
    def leakage_fraction(self) -> float:
        return (self.logic_leakage_j + self.memory_leakage_j) / self.total_j


def fig1_energy_per_cycle(
    voltages: np.ndarray | None = None,
    im_reads_per_cycle: float = 0.8,
    sp_reads_per_cycle: float = 0.2,
    sp_writes_per_cycle: float = 0.1,
) -> list[Fig1Row]:
    """Regenerate Figure 1: energy/cycle of a signal processor.

    The logic scales freely; the commercial memories stop scaling at
    the 0.7 V vendor floor ("supply scaling of the commercial memories
    is stopped at 0.7 V"), and leakage energy per cycle blows up at low
    voltage because the clock collapses while leakage power does not.

    The platform here is the *measured signal processor* of [3]
    (Figure 1's source), which is larger than the Section V evaluation
    platform: a 32 KB instruction store, a 64 KB data memory and a
    reconfigurable core several times the ARM9's size.
    """
    if voltages is None:
        voltages = np.arange(0.35, 1.125, 0.025)
    energy_model = PlatformEnergyModel(
        [
            MemoryComponentSpec(name="IM", words=8192, stored_bits=32),
            MemoryComponentSpec(name="SP", words=16384, stored_bits=32),
        ],
        macro_style="commercial",
        core_switched_cap_f=40e-12,
        core_leak_width_um=2.0e5,
    )
    rows = []
    for vdd in np.asarray(voltages, dtype=float):
        v_mem = max(vdd, VENDOR_FLOOR_V)
        frequency = platform_max_frequency(vdd)
        period = 1.0 / frequency
        logic_dyn = energy_model.core_energy_per_cycle(vdd)
        from repro.tech.leakage import leakage_power

        logic_leak = (
            leakage_power(
                NODE_40NM_LP.nmos, vdd, energy_model.core_leak_width_um
            )
            * period
        )
        im = energy_model.models["IM"]
        sp = energy_model.models["SP"]
        mem_dyn = (
            im_reads_per_cycle * im.read_energy(v_mem)
            + sp_reads_per_cycle * sp.read_energy(v_mem)
            + sp_writes_per_cycle * sp.write_energy(v_mem)
        )
        mem_leak = (
            im.leakage_power(v_mem) + sp.leakage_power(v_mem)
        ) * period
        rows.append(
            Fig1Row(
                vdd=float(vdd),
                vdd_memory=v_mem,
                logic_dynamic_j=logic_dyn,
                logic_leakage_j=logic_leak,
                memory_dynamic_j=mem_dyn,
                memory_leakage_j=mem_leak,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 1 — memory design comparison
# ----------------------------------------------------------------------
#: Published Table 1 values for the regenerable cells (paper units).
TABLE1_PAPER = {
    "COTS-40nm": {
        "dyn_energy_pj": 12.0, "leakage_uw": 2.2, "area_mm2": 0.01,
        "retention_v": 0.85, "max_freq_mhz": 820.0,
    },
    "CustomSRAM-40nm": {
        "dyn_energy_pj": 3.6, "leakage_uw": 11.0, "area_mm2": 0.024,
        "retention_v": None, "max_freq_mhz": 454.0,
    },
    "CellBased-65nm": {
        "dyn_energy_pj": None, "leakage_uw": None, "area_mm2": 0.19,
        "retention_v": 0.25, "max_freq_mhz": None,
    },
    "CellBased-imec-40nm": {
        "dyn_energy_pj": 1.4, "leakage_uw": 5.9, "area_mm2": 0.058,
        "retention_v": 0.32, "max_freq_mhz": 96.0,
    },
}


def table1_comparison() -> list[dict]:
    """Regenerate Table 1; each row carries model and paper values."""
    rows = []
    for instance in table1_instances():
        row = instance.table1_row()
        row["paper"] = TABLE1_PAPER.get(instance.name, {})
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 3 — retention Vmin maps
# ----------------------------------------------------------------------
def fig3_retention_maps(
    words: int = 128, bits: int = 32, seed: int = 3
) -> dict[str, np.ndarray]:
    """Regenerate Figure 3: per-cell minimal retention voltage maps for
    one instance of each memory design."""
    rng = np.random.default_rng(seed)
    commercial = MemoryArray(
        words, bits, RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM,
        rng=rng, gradient_v=0.12,
    )
    cell_based = MemoryArray(
        words, bits, RETENTION_CELL_BASED_40NM, ACCESS_CELL_BASED_40NM,
        rng=rng, gradient_v=0.04,
    )
    return {
        "commercial": commercial.retention_vmin_map(),
        "cell-based": cell_based.retention_vmin_map(),
    }


# ----------------------------------------------------------------------
# Figure 4 — retention BER vs voltage (9 dies + Eq. 4 fit)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig4Series:
    """Measured and fitted retention curves for one design."""

    design: str
    voltages: np.ndarray
    measured_ber: np.ndarray
    model_ber: np.ndarray
    fitted_v_mean: float
    fitted_v_sigma: float


def fig4_retention_ber(
    n_dies: int = 9,
    words: int = 256,
    bits: int = 32,
    seed: int = 2014,
    processes: int | None = None,
) -> list[Fig4Series]:
    """Regenerate Figure 4 for both memory designs.

    Runs on :class:`BatchCampaign`, which reproduces the
    :class:`repro.memdev.die.DiePopulation` RNG streams bit-exactly for
    the same ``seed`` while letting the dies fan out across
    ``processes`` worker processes.
    """
    campaign = BatchCampaign(seed=seed, processes=processes)
    series = []
    for design, retention, access in (
        ("commercial", RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM),
        ("cell-based", RETENTION_CELL_BASED_40NM, ACCESS_CELL_BASED_40NM),
    ):
        center, spread = retention.v_mean, retention.v_sigma
        voltages = np.linspace(
            max(0.05, center - 5.0 * spread), center + 5.0 * spread, 21
        )
        measured = campaign.retention_failure_curve(
            retention, access, voltages,
            n_dies=n_dies, words=words, bits=bits,
        )
        fitted = RetentionModel.fit(voltages, measured)
        model = np.array(
            [fitted.bit_error_probability(float(v)) for v in voltages]
        )
        series.append(
            Fig4Series(
                design=design,
                voltages=voltages,
                measured_ber=measured,
                model_ber=model,
                fitted_v_mean=fitted.v_mean,
                fitted_v_sigma=fitted.v_sigma,
            )
        )
    return series


# ----------------------------------------------------------------------
# Figure 5 — access error probability vs voltage (Eq. 5)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5Series:
    """Measured and modelled access-error curves for one design."""

    design: str
    voltages: np.ndarray
    measured_ber: np.ndarray
    model_ber: np.ndarray


def fig5_access_ber(
    accesses_per_point: int = 20_000, seed: int = 5
) -> list[Fig5Series]:
    """Regenerate Figure 5 for both designs: quasi-static RW shmoo
    against the published Eq. 5 power laws.

    Runs on :class:`BatchCampaign`, whose vectorized grid evaluator is
    bit-exact against its per-access scalar reference under the same
    seed (each design gets its own campaign stream).
    """
    series = []
    for design_index, (design, access, v_lo, v_hi) in enumerate(
        (
            ("commercial", ACCESS_COMMERCIAL_40NM, 0.55, 0.80),
            ("cell-based", ACCESS_CELL_BASED_40NM, 0.30, 0.50),
        )
    ):
        campaign = BatchCampaign(seed=seed + 1000 * design_index)
        voltages = np.linspace(v_lo, v_hi, 11)
        grid = campaign.access_ber_grid(
            access, voltages, accesses_per_point, bits=32
        )
        model = np.array(
            [access.bit_error_probability(float(v)) for v in voltages]
        )
        series.append(
            Fig5Series(
                design=design,
                voltages=voltages,
                measured_ber=grid.bit_error_rates,
                model_ber=model,
            )
        )
    return series


# ----------------------------------------------------------------------
# Table 2 — minimum voltage per scheme and frequency
# ----------------------------------------------------------------------
#: Paper's Table 2 (cell-based platform) plus the Section V.B sentence
#: for the 11 MHz commercial case.
TABLE2_PAPER = {
    (FREQ_LOW, "none"): 0.55, (FREQ_LOW, "SECDED"): 0.44,
    (FREQ_LOW, "OCEAN"): 0.33,
    (FREQ_MID, "none"): 0.55, (FREQ_MID, "SECDED"): 0.44,
    (FREQ_MID, "OCEAN"): 0.44,
    (FREQ_HIGH, "none"): 0.88, (FREQ_HIGH, "SECDED"): 0.77,
    (FREQ_HIGH, "OCEAN"): 0.66,
}


def table2_minimum_voltages() -> list[dict]:
    """Regenerate Table 2 (and the 11 MHz case of Section V.B).

    The 290 kHz / 1.96 MHz rows use the cell-based worst-case access
    model with the platform's performance floor; the 11 MHz case uses
    the commercial memory's published Eq. 5 fit.
    """
    rows = []
    for frequency, access_model in (
        (FREQ_LOW, ACCESS_CELL_BASED_40NM),
        (FREQ_MID, ACCESS_CELL_BASED_40NM),
        (FREQ_HIGH, ACCESS_COMMERCIAL_40NM),
    ):
        floor = platform_frequency_floor(frequency)
        for scheme in (SCHEME_NONE, SCHEME_SECDED, SCHEME_OCEAN):
            solution = minimum_voltage(
                access_model, scheme, frequency_floor_v=floor
            )
            rows.append(
                {
                    "frequency_hz": frequency,
                    "scheme": scheme.name,
                    "vdd_model": solution.vdd,
                    "vdd_paper": TABLE2_PAPER[(frequency, scheme.name)],
                    "binding": solution.binding,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Figures 8 and 9 — power breakdown under mitigation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SchemePower:
    """One stacked bar of Figure 8/9."""

    scheme: str
    vdd: float
    components_w: dict[str, float]
    total_w: float
    correct: bool
    rollbacks: int
    corrected_words: int


@dataclass(frozen=True)
class MitigationStudy:
    """A full Figure 8 or 9 study (all three schemes)."""

    frequency: float
    bars: tuple[SchemePower, ...]

    def bar(self, scheme: str) -> SchemePower:
        for bar in self.bars:
            if bar.scheme == scheme:
                return bar
        raise KeyError(f"no scheme {scheme!r}")

    def savings(self, scheme: str, versus: str) -> float:
        """Fractional power saving of ``scheme`` relative to ``versus``."""
        return 1.0 - self.bar(scheme).total_w / self.bar(versus).total_w


def _mitigation_study(
    access_model,
    scheme_voltages: dict[str, float],
    frequency: float,
    macro_style: str,
    fft_points: int,
    seed: int,
) -> MitigationStudy:
    program, golden = fft_program_and_golden(fft_points)
    # Size the platform to the workload: the paper's 1K-point FFT
    # carries 1.5K data words (points + twiddles), which must fit the
    # scratchpad and OCEAN's checkpoint buffer.  Smaller workloads keep
    # the stock Section V.A sizes, so historical numbers are unchanged.
    workload = program.workload
    config = PlatformConfig(
        im_words=max(1024, len(workload.program_words)),
        sp_words=max(2048, len(workload.data_words)),
        pm_words=max(1024, len(workload.data_words)),
    )
    tracer = active_tracer()
    bars = []
    for runner_cls in (NoMitigationRunner, SecdedRunner, OceanRunner):
        runner = runner_cls(
            access_model,
            config=config,
            seed=seed,
            macro_style=macro_style,
        )
        vdd = scheme_voltages[runner.name]
        with tracer.span(
            names.SPAN_STUDY_SCHEME_RUN,
            scheme=runner.name,
            vdd=vdd,
            frequency=frequency,
            fft_points=fft_points,
            seed=seed,
        ):
            outcome = runner.run(
                program.workload, vdd=vdd, frequency=frequency
            )
        flat = outcome.report.as_dict()
        total = flat.pop("total")
        correct = outcome.output_matches(golden)
        tracer.point(
            names.POINT_STUDY_SCHEME_OUTCOME,
            scheme=runner.name,
            vdd=vdd,
            correct=correct,
            injected=sum(outcome.sim.injected_bits.values()),
            corrected=outcome.sim.corrected_words,
            rollbacks=outcome.sim.rollbacks,
            total_w=total,
        )
        bars.append(
            SchemePower(
                scheme=runner.name,
                vdd=vdd,
                components_w=flat,
                total_w=total,
                correct=correct,
                rollbacks=outcome.sim.rollbacks,
                corrected_words=outcome.sim.corrected_words,
            )
        )
    return MitigationStudy(frequency=frequency, bars=tuple(bars))


def fig8_power_breakdown(
    fft_points: int = 256, seed: int = 1
) -> MitigationStudy:
    """Regenerate Figure 8: power at 290 kHz, cell-based platform,
    schemes at their Table 2 voltages (0.55 / 0.44 / 0.33 V)."""
    return _mitigation_study(
        ACCESS_CELL_BASED_40NM_TYPICAL,
        {"none": 0.55, "SECDED": 0.44, "OCEAN": 0.33},
        FREQ_LOW,
        "cell-based",
        fft_points,
        seed,
    )


def fig9_power_breakdown(
    fft_points: int = 256, seed: int = 1
) -> MitigationStudy:
    """Regenerate Figure 9: power at 11 MHz, commercial memory at
    0.88 / 0.77 / 0.66 V (Section V.B)."""
    return _mitigation_study(
        ACCESS_COMMERCIAL_40NM_TYPICAL,
        {"none": 0.88, "SECDED": 0.77, "OCEAN": 0.66},
        FREQ_HIGH,
        "commercial",
        fft_points,
        seed,
    )


# ----------------------------------------------------------------------
# Figure 10 — finFET inverter delay vs voltage
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fig10Row:
    """One (node, voltage) point: mean delay and sigma spread."""

    node: str
    vdd: float
    mean_delay_s: float
    sigma_delay_s: float

    @property
    def sigma_over_mean(self) -> float:
        return self.sigma_delay_s / self.mean_delay_s


def fig10_finfet_delay(
    voltages: np.ndarray | None = None,
    samples: int = 1500,
    seed: int = 0,
) -> list[Fig10Row]:
    """Regenerate Figure 10: Monte-Carlo inverter delay (mean and
    sigma) for the 14 nm finFET and 10 nm multi-gate devices."""
    if voltages is None:
        voltages = np.arange(0.25, 0.925, 0.05)
    rng = np.random.default_rng(seed)
    rows = []
    for node in (NODE_14NM_FINFET, NODE_10NM_MG):
        for vdd in np.asarray(voltages, dtype=float):
            result = monte_carlo_inverter_delay(
                node, float(vdd), samples=samples, rng=rng
            )
            rows.append(
                Fig10Row(
                    node=node.name,
                    vdd=float(vdd),
                    mean_delay_s=result.mean,
                    sigma_delay_s=result.sigma,
                )
            )
    return rows


# ----------------------------------------------------------------------
# Headline claims (abstract + conclusion)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClaimHeadline:
    """The paper's summary numbers, regenerated."""

    power_ratio_vs_none: float       # abstract: "up to ... 3x"
    power_ratio_vs_ecc: float        # abstract: "up to 2x"
    dynamic_power_ratio_beyond_limit: float  # conclusion: "3.3x"


#: Lifetime/ageing guardband a product must add on top of the measured
#: error-free minimum before shipping without monitoring (Section IV).
LIFETIME_GUARDBAND_V = 0.05


def headline_claims(fft_points: int = 1024, seed: int = 1) -> ClaimHeadline:
    """Regenerate the abstract's 2x/3x and the conclusion's 3.3x.

    Runs the paper's full 1K-point FFT by default — the clean-burst
    fast lane makes the platform simulations quick enough that the
    historical 256-point reduction is no longer needed.

    The 3.3x claim compares dynamic power at the guarded error-free
    voltage limit (no-mitigation minimum plus lifetime guardband)
    against the mitigated 0.33 V operating point: a pure CV^2*f ratio
    at equal frequency.
    """
    study = fig8_power_breakdown(fft_points=fft_points, seed=seed)
    none_w = study.bar("none").total_w
    ecc_w = study.bar("SECDED").total_w
    ocean_w = study.bar("OCEAN").total_w
    v_error_free = minimum_voltage(
        ACCESS_CELL_BASED_40NM, SCHEME_NONE
    ).vdd + LIFETIME_GUARDBAND_V
    v_ocean = study.bar("OCEAN").vdd
    return ClaimHeadline(
        power_ratio_vs_none=none_w / ocean_w,
        power_ratio_vs_ecc=ecc_w / ocean_w,
        dynamic_power_ratio_beyond_limit=(v_error_free / v_ocean) ** 2,
    )
