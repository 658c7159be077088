"""Platform substrate — the MPARM substitute.

Section V evaluates mitigation on "a simulated single-core platform
that includes a 32-bit ARM 9 processor, 4 KB instruction memory and
8 KB scratchpad data memory" running on the MPARM cycle-accurate
simulator.  This subpackage is that platform, purpose-built:

* :mod:`repro.soc.isa` — the NTC32 RISC instruction set (32-bit words,
  16 registers) and its binary encoding.
* :mod:`repro.soc.assembler` — two-pass assembler with labels and
  pseudo-instructions.
* :mod:`repro.soc.cpu` — cycle-counting interpreter core.
* :mod:`repro.soc.memory` — instruction/scratchpad memories with
  voltage-dependent fault injection hooks.
* :mod:`repro.soc.ports` — the CPU's memory ports: raw, or the ECC
  wrapper of Section V (:class:`~repro.soc.ports.CodecPort`).
* :mod:`repro.soc.faults` — the fault engine tying stored words to the
  Eq. 5 access-error models.
* :mod:`repro.soc.energy_model` — per-module energy accounting (core,
  IM, SP, PM — the components of Figures 8 and 9).
* :mod:`repro.soc.platform` — the assembled Figure 6 platform.
* :mod:`repro.soc.fastlane` — clean-burst fast lane: bit-exact
  fault-free execution against predecoded memory views, the engine a
  platform runs by default.
"""

from repro.soc.isa import Instruction, Opcode, decode, encode
from repro.soc.assembler import AssemblerError, assemble
from repro.soc.cpu import Cpu, CpuState, ExecutionLimitExceeded
from repro.soc.memory import FaultyMemory, MemoryAccessFault
from repro.soc.faults import VoltageFaultModel
from repro.soc.dma import DmaEngine
from repro.soc.ports import CodecPort, DetectOnlyCodec, RawPort
from repro.soc.energy_model import EnergyReport, PlatformEnergyModel
from repro.soc.platform import Platform, PlatformConfig, SimulationResult
from repro.soc.fastlane import FastLaneEngine

__all__ = [
    "Opcode",
    "Instruction",
    "encode",
    "decode",
    "assemble",
    "AssemblerError",
    "Cpu",
    "CpuState",
    "ExecutionLimitExceeded",
    "FaultyMemory",
    "MemoryAccessFault",
    "VoltageFaultModel",
    "DmaEngine",
    "RawPort",
    "CodecPort",
    "DetectOnlyCodec",
    "PlatformEnergyModel",
    "EnergyReport",
    "Platform",
    "FastLaneEngine",
    "PlatformConfig",
    "SimulationResult",
]
