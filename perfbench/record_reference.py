"""Regenerate ``reference.json``, the statistics every run is checked against.

Run from the repository root, only at a commit whose simulated
statistics are known good::

    PYTHONPATH=src python3 perfbench/record_reference.py

Records every exhibit's statistics, the default seed's campaign passes,
and every point of the default seed's first serve requests.
"""

from __future__ import annotations

import json
import sys

import checks
import inputs
import serve_load
import tracing

CAMPAIGN_PASSES = 24
SERVE_REQUESTS = 400


def main() -> int:
    from repro.analysis import experiments
    from repro.analysis.campaign import run_campaign
    from repro.core.access import (
        ACCESS_CELL_BASED_40NM,
        ACCESS_CELL_BASED_40NM_TYPICAL,
    )
    from repro.mitigation import NoMitigationRunner, OceanRunner, SecdedRunner
    from repro.store.pipeline import encode_campaign_result
    from repro.workloads.fft import build_fft_program

    runners = {"secded": SecdedRunner, "ocean": OceanRunner,
               "none": NoMitigationRunner}
    exhibits = {
        label: checks.exhibit_summary(label, getattr(experiments, attr)())
        for attr, label in tracing.EXHIBITS.items()
    }

    program = build_fft_program(inputs.CAMPAIGN_FFT)
    golden = program.expected_output(
        list(program.data_words[: inputs.CAMPAIGN_FFT]))
    passes = []
    for base in inputs.campaign_seed_bases(inputs.DEFAULT_SEED,
                                           CAMPAIGN_PASSES):
        passes.append({
            scheme: encode_campaign_result(run_campaign(
                runners[scheme], program.workload, golden,
                ACCESS_CELL_BASED_40NM, vdd, runs=runs, seed_base=base,
                macro_style="cell-based"))
            for scheme, vdd, runs in inputs.CAMPAIGN_POINTS
        })

    program = build_fft_program(inputs.SERVE_FFT)
    golden = program.expected_output(
        list(program.data_words[: inputs.SERVE_FFT]))
    points = {}
    for request in inputs.serve_requests(inputs.DEFAULT_SEED, SERVE_REQUESTS):
        for point in request.points():
            key = serve_load.point_key(point)
            if key in points:
                continue
            points[key] = encode_campaign_result(run_campaign(
                runners[request.scheme], program.workload, golden,
                ACCESS_CELL_BASED_40NM_TYPICAL, point[2],
                runs=inputs.SERVE_RUNS, seed_base=request.seed,
                lanes=inputs.SERVE_LANES, macro_style="cell-based"))

    reference = {
        "exhibits": exhibits,
        "campaign": {"seed": inputs.DEFAULT_SEED, "passes": passes},
        "serve": {"seed": inputs.DEFAULT_SEED, "points": points},
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
