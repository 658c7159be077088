"""Per-module platform energy accounting.

Figures 8 and 9 stack the power of four components: the processing
core, the instruction memory (IM), the scratchpad data memory (SP) and
OCEAN's protected memory (PM).  This module owns those four models and
turns simulation access counts into the stacked powers.

The memory components reuse the CACTI-substitute
:class:`repro.memdev.energy.MemoryEnergyModel` with cell-based (NTV-
capable) macros sized to the paper's platform: 4 KB IM, 8 KB SP, 4 KB
PM.  ECC-wrapped components store wider words (39 bits under SECDED,
56 under the BCH buffer); the width flows into the geometry, so the
"read/write 39 bits instead of 32" overhead the paper describes is
structural, not a fudge factor.  Codec logic (syndrome computation,
correction) adds a per-access energy factor on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import validate_vdd
from repro.memdev.cell import CELL_BASED_AOI, COMMERCIAL_6T
from repro.memdev.energy import MemoryEnergyModel, MemoryGeometry
from repro.tech.leakage import leakage_power as device_leakage_power
from repro.tech.node import NODE_40NM_LP, TechnologyNode


@dataclass(frozen=True)
class ComponentEnergy:
    """One stacked-bar component of Figure 8/9."""

    name: str
    dynamic_w: float
    leakage_w: float

    @property
    def total_w(self) -> float:
        return self.dynamic_w + self.leakage_w


@dataclass(frozen=True)
class EnergyReport:
    """Power breakdown of one simulated run at one operating point."""

    vdd: float
    frequency: float
    duration_s: float
    components: tuple[ComponentEnergy, ...]

    @property
    def total_w(self) -> float:
        return sum(c.total_w for c in self.components)

    @property
    def dynamic_w(self) -> float:
        return sum(c.dynamic_w for c in self.components)

    @property
    def leakage_w(self) -> float:
        return sum(c.leakage_w for c in self.components)

    def component(self, name: str) -> ComponentEnergy:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(f"no component {name!r} in report")

    def as_dict(self) -> dict[str, float]:
        """Flat mapping for table rendering: name -> watts."""
        out = {c.name: c.total_w for c in self.components}
        out["total"] = self.total_w
        return out


@dataclass
class MemoryComponentSpec:
    """Configuration of one platform memory component.

    ``leakage_duty`` scales the component's static power: a buffer that
    is only powered up around its accesses (drowsy standby, as a real
    OCEAN protected memory would be) leaks only that fraction of the
    time at full supply.
    """

    name: str
    words: int
    stored_bits: int = 32
    codec_energy_factor: float = 1.0
    leakage_duty: float = 1.0


#: Macro style -> (cell, energy_cal, leak_cal, access_depth, periphery).
#: The calibrations are the Table 1 fits from repro.memdev.library.
_MACRO_STYLES = {
    "cell-based": (CELL_BASED_AOI, 0.449, 0.0798, 708.4, 0.1),
    "commercial": (COMMERCIAL_6T, 14.77, 0.0692, 65.1, 0.3),
}


def check_macro_style(macro_style: str) -> str:
    """Return ``macro_style`` if the energy model knows it, else raise."""
    if macro_style not in _MACRO_STYLES:
        raise ValueError(
            f"unknown macro_style {macro_style!r}; "
            f"known: {sorted(_MACRO_STYLES)}"
        )
    return macro_style


def _platform_memory_model(
    spec: MemoryComponentSpec,
    node: TechnologyNode,
    macro_style: str = "cell-based",
) -> MemoryEnergyModel:
    """Build the CACTI-substitute model for one platform macro.

    The default cell-based style is the single-supply NTC premise
    (Figure 8's 290 kHz study); the commercial style backs the
    higher-voltage 11 MHz study of Figure 9.  Calibrations come from
    the Table 1 fits in :mod:`repro.memdev.library`.
    """
    cell, energy_cal, leak_cal, depth, periphery = _MACRO_STYLES[
        check_macro_style(macro_style)
    ]
    mux = 4 if spec.words % 4 == 0 else 1
    return MemoryEnergyModel(
        geometry=MemoryGeometry(
            words=spec.words, bits=spec.stored_bits, column_mux=mux
        ),
        node=node,
        cell=cell,
        energy_calibration=energy_cal,
        leakage_calibration=leak_cal,
        access_depth=depth,
        periphery_fraction=periphery,
    )


class PlatformEnergyModel:
    """Energy model of the Figure 6 platform.

    Parameters
    ----------
    memory_specs:
        Components to instantiate (IM / SP / PM with their widths and
        codec factors, chosen by the mitigation scheme).
    node:
        Technology node (the paper's platform is 40 nm LP).
    core_switched_cap_f:
        Effective switched capacitance of the core per clock cycle in
        farads; 20 pF gives the ~24 pJ/cycle at 1.1 V typical of
        an ARM9-class core in a 40 nm LP process.
    core_leak_width_um:
        Total effective leaking width of the core in microns.
    """

    def __init__(
        self,
        memory_specs: list[MemoryComponentSpec],
        node: TechnologyNode = NODE_40NM_LP,
        core_switched_cap_f: float = 20e-12,
        core_leak_width_um: float = 2.0e4,
        macro_style: str = "cell-based",
    ) -> None:
        if core_switched_cap_f <= 0.0:
            raise ValueError("core_switched_cap_f must be positive")
        if core_leak_width_um < 0.0:
            raise ValueError("core_leak_width_um must be non-negative")
        self.node = node
        self.core_switched_cap_f = core_switched_cap_f
        self.core_leak_width_um = core_leak_width_um
        self.macro_style = macro_style
        self.specs = {spec.name: spec for spec in memory_specs}
        self.models = {
            spec.name: _platform_memory_model(spec, node, macro_style)
            for spec in memory_specs
        }

    # ------------------------------------------------------------------
    # Per-event energies
    # ------------------------------------------------------------------
    def core_energy_per_cycle(self, vdd: float) -> float:
        """Core switching energy per clock cycle in joules."""
        vdd = validate_vdd(vdd, "PlatformEnergyModel.core_energy_per_cycle")
        return self.core_switched_cap_f * vdd * vdd

    def memory_access_energy(
        self, name: str, vdd: float, is_write: bool
    ) -> float:
        """Energy of one access to component ``name`` including codec."""
        vdd = validate_vdd(vdd, "PlatformEnergyModel.memory_access_energy")
        spec = self.specs[name]
        model = self.models[name]
        base = (
            model.write_energy(vdd) if is_write else model.read_energy(vdd)
        )
        return base * spec.codec_energy_factor

    # ------------------------------------------------------------------
    # Report assembly
    # ------------------------------------------------------------------
    def report(
        self,
        vdd: float,
        frequency: float,
        cycles: int,
        access_counts: dict[str, tuple[int, int]],
    ) -> EnergyReport:
        """Build the Figure 8/9 stacked power breakdown.

        ``access_counts`` maps component name to (reads, writes) from
        the simulation.  Power = energy / wall-clock time at the given
        clock ``frequency``, plus each component's leakage.
        """
        if frequency <= 0.0:
            raise ValueError("frequency must be positive")
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        duration = cycles / frequency
        components = [
            ComponentEnergy(
                name="core",
                dynamic_w=(
                    cycles * self.core_energy_per_cycle(vdd) / duration
                ),
                leakage_w=device_leakage_power(
                    self.node.nmos, vdd, self.core_leak_width_um
                ),
            )
        ]
        for name, model in self.models.items():
            reads, writes = access_counts.get(name, (0, 0))
            energy = (
                reads * self.memory_access_energy(name, vdd, is_write=False)
                + writes * self.memory_access_energy(name, vdd, is_write=True)
            )
            components.append(
                ComponentEnergy(
                    name=name,
                    dynamic_w=energy / duration,
                    leakage_w=(
                        model.leakage_power(vdd)
                        * self.specs[name].leakage_duty
                    ),
                )
            )
        return EnergyReport(
            vdd=vdd,
            frequency=frequency,
            duration_s=duration,
            components=tuple(components),
        )
