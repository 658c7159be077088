"""Profile a workload on the NTC32 platform.

Uses the engine profiler (``repro.obs.profile``) and the ASCII plotting
helpers to look inside a run: opcode mix, hot loops, and how the
instruction profile translates into the per-module energy split that
Figures 8/9 stack.

Run:  python examples/workload_profiler.py [fft|fir]
"""

import sys

from repro.analysis import format_table, histogram
from repro.obs import names, scoped_metrics
from repro.obs.profile import scoped_profiling
from repro.soc.cpu import StopReason
from repro.soc.energy_model import (
    MemoryComponentSpec,
    PlatformEnergyModel,
)
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform
from repro.soc.ports import RawPort
from repro.workloads.fft import build_fft_program
from repro.workloads.fir import build_fir_program


def build_workload(kind: str):
    if kind == "fft":
        program = build_fft_program(256)
    elif kind == "fir":
        program = build_fir_program(256, 16, 8)
    else:
        raise SystemExit(f"unknown workload {kind!r}; use fft or fir")
    return program.workload


def main() -> None:
    kind = sys.argv[1] if len(sys.argv) > 1 else "fft"
    workload = build_workload(kind)

    im = FaultyMemory("IM", 1024, 32)
    sp = FaultyMemory("SP", 2048, 32)
    platform = Platform(im, RawPort(im), sp, RawPort(sp))
    platform.load_program(list(workload.program_words))
    platform.load_data(list(workload.data_words), workload.data_base)
    with scoped_metrics() as registry, scoped_profiling():
        while platform.run_until_stop() is not StopReason.HALT:
            pass

    snapshot = registry.snapshot()
    by_pc = snapshot.histograms[names.PROFILE_PC]
    executed = sum(by_pc.values())
    state = platform.cpu.state
    print(
        f"== {workload.name}: {state.instructions:,} instructions, "
        f"{state.cycles:,} cycles ==\n"
    )
    print(histogram(snapshot.histograms[names.PROFILE_OPCODE], width=40,
                    title="opcode mix"))

    print("\nhottest program counters:")
    hottest = sorted(by_pc.items(), key=lambda item: -item[1])[:8]
    print(
        format_table(
            ("pc", "executed", "share"),
            [
                (pc, count, f"{count / executed:.1%}")
                for pc, count in hottest
            ],
        )
    )

    # Translate the run into the Figure 8-style power split at the
    # OCEAN operating point.
    energy_model = PlatformEnergyModel(
        [
            MemoryComponentSpec(name="IM", words=1024),
            MemoryComponentSpec(name="SP", words=2048),
        ]
    )
    report = energy_model.report(
        vdd=0.33,
        frequency=290e3,
        cycles=state.cycles,
        access_counts={
            "IM": (im.counters.reads, im.counters.writes),
            "SP": (sp.counters.reads, sp.counters.writes),
        },
    )
    print("\npower split at 0.33 V / 290 kHz (unprotected platform):")
    print(
        format_table(
            ("component", "dynamic uW", "leakage uW", "total uW"),
            [
                (
                    c.name, c.dynamic_w * 1e6, c.leakage_w * 1e6,
                    c.total_w * 1e6,
                )
                for c in report.components
            ],
        )
    )
    print(f"total: {report.total_w * 1e6:.3f} uW")


if __name__ == "__main__":
    main()
