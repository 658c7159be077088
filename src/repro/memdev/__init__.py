"""Memory-device substrate — the test-chip substitute.

The paper's Section IV characterises two memories on a 40 nm test chip:
a commercial 6T SRAM IP and an imec standard-cell-based memory.  We have
no silicon, so this subpackage generates synthetic populations whose
*statistics* equal the paper's published fits (see DESIGN.md's
substitution table):

* :mod:`repro.memdev.cell` — bit-cell archetypes (6T, cell-based AOI).
* :mod:`repro.memdev.array` — Monte-Carlo memory arrays with per-cell
  retention voltages (Figure 3) and access bit-error counts (Figure 5).
* :mod:`repro.memdev.die` — dies and multi-die measurement campaigns
  (the 9 dies of Figure 4).
* :mod:`repro.memdev.characterize` — Vmin extraction, shmoo plots,
  cumulative failure curves, and model re-fitting from "measurements".
* :mod:`repro.memdev.energy` — CACTI-substitute energy/area/timing.
* :mod:`repro.memdev.library` — calibrated instances reproducing
  Table 1's comparison rows.
"""

from repro.memdev.cell import (
    CELL_BASED_AOI,
    CELL_BASED_LATCH_65NM,
    COMMERCIAL_6T,
    CUSTOM_6T,
    BitCellArchetype,
)
from repro.memdev.array import MemoryArray
from repro.memdev.die import Die, DiePopulation
from repro.memdev.wafer import DieSite, Wafer
from repro.memdev.assist import (
    ALL_ASSISTS,
    AssistTechnique,
    assisted_instance,
)
from repro.memdev.energy import MemoryEnergyModel, MemoryGeometry
from repro.memdev.library import (
    MemoryInstance,
    cell_based_imec_40nm,
    cell_based_65nm,
    commercial_cots_40nm,
    custom_sram_40nm,
    table1_instances,
)

__all__ = [
    "BitCellArchetype",
    "COMMERCIAL_6T",
    "CUSTOM_6T",
    "CELL_BASED_AOI",
    "CELL_BASED_LATCH_65NM",
    "MemoryArray",
    "Die",
    "DiePopulation",
    "Wafer",
    "DieSite",
    "AssistTechnique",
    "ALL_ASSISTS",
    "assisted_instance",
    "MemoryEnergyModel",
    "MemoryGeometry",
    "MemoryInstance",
    "commercial_cots_40nm",
    "custom_sram_40nm",
    "cell_based_imec_40nm",
    "cell_based_65nm",
    "table1_instances",
]
