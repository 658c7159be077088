"""The perf harness's pass/fail gates (``benchmarks/perf/run_perf.py``).

The harness itself runs in CI's perf smoke, outside tier-1.  These
tests pin its ``checks`` table: they feed ``gate_checks`` a synthetic
results dict and assert the 30 gate names and the edge of every
threshold.  Removing or renaming a gate has to change this file.  They
also pin the harness's exit code, which is what fails CI when a gate
fails.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HARNESS = (
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "perf" / "run_perf.py"
)

GATES = [
    "secded_encode_bit_exact",
    "secded_decode_bit_exact",
    "bch_encode_bit_exact",
    "bch_decode_bit_exact",
    "fault_stats_ok",
    "fig5_bit_exact",
    "store_warm_100x",
    "store_hit_ratio",
    "store_cache_bit_exact",
    "store_campaign_warm_equal",
    "secded_encode_20x",
    "secded_decode_20x",
    "bch_decode_40x",
    "fig5_campaign_5x",
    "engines_bit_exact",
    "engines_faults_observed",
    "platform_bit_exact",
    "platform_rng_identical",
    "platform_output_correct",
    "platform_secded_{target}x",
    "resilience_chaos_bit_identical",
    "resilience_chaos_recovered",
    "resilience_resume_bit_identical",
    "resilience_resume_skipped_work",
    "serve_warm_all_hits",
    "serve_recovered_job_completed",
    "serve_warm_bit_identical",
    "profile_bit_exact",
    "profile_output_correct",
    "profile_instruments_populated",
]


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("run_perf", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate_checks(harness):
    return harness.gate_checks


def _target(quick):
    return 3 if quick else 10


def _results(quick):
    """A results dict that passes every gate, each threshold at its edge.

    It also holds the ungated speedups the harness prints
    (``headline_speedups``).
    """
    return {
        "quick": quick,
        "secded": {
            "encode_bit_exact": True, "decode_bit_exact": True,
            "encode_speedup": 20.0, "decode_speedup": 20.0,
        },
        "bch": {
            "encode_bit_exact": True, "decode_bit_exact": True,
            "encode_speedup": 1.0, "decode_speedup": 40.0,
        },
        "faults": {"stats_within_tolerance": True, "speedup": 1.0},
        "fig5_campaign": {"bit_exact": True, "speedup": 5.0},
        "store": {
            "warm_speedup": 100.0, "hit_ratio": 1.0,
            "cache_bit_exact": True, "campaign_warm_equal": True,
            "campaign_warm_speedup": 1.0,
        },
        "platform": {
            "schemes": {
                name: {
                    "bit_exact": True, "rng_stream_identical": True,
                    "output_correct": True,
                    "speedup": float(_target(quick)),
                }
                for name in ("none", "SECDED", "OCEAN")
            },
        },
        "profile": {
            "bit_exact": True, "output_correct": True,
            "fast_instructions": 1, "bursts": 1,
            "scalar_slow_instructions": 1, "scalar_pc_counts": 1,
        },
        "engines": {
            "cpu_run_bit_exact": True,
            "fast_lane_bit_exact": True,
            "injected_bits": 1,
        },
        "resilience": {
            "chaos_bit_identical": True, "chaos_retries": 1,
            "resume_bit_identical": True, "resumed_tasks": 1,
        },
        "serve": {
            "grid_points": 2, "warm_hits": 2, "recovered_jobs": 1,
            "recovered_hits": 2, "warm_bit_identical": True,
            "warm_speedup": 1.0,
        },
    }


def _below(value):
    return float(np.nextafter(value, -np.inf))


# (gate, path to the field, value that fails the gate).  Thresholds
# fail just below their edge; flags fail when false.
FAILURES = [
    ("secded_encode_bit_exact", ("secded", "encode_bit_exact"), False),
    ("secded_decode_bit_exact", ("secded", "decode_bit_exact"), False),
    ("bch_encode_bit_exact", ("bch", "encode_bit_exact"), False),
    ("bch_decode_bit_exact", ("bch", "decode_bit_exact"), False),
    ("fault_stats_ok", ("faults", "stats_within_tolerance"), False),
    ("fig5_bit_exact", ("fig5_campaign", "bit_exact"), False),
    ("store_warm_100x", ("store", "warm_speedup"), _below(100.0)),
    ("store_hit_ratio", ("store", "hit_ratio"), _below(1.0)),
    ("store_cache_bit_exact", ("store", "cache_bit_exact"), False),
    ("store_campaign_warm_equal", ("store", "campaign_warm_equal"), False),
    ("secded_encode_20x", ("secded", "encode_speedup"), _below(20.0)),
    ("secded_decode_20x", ("secded", "decode_speedup"), _below(20.0)),
    ("bch_decode_40x", ("bch", "decode_speedup"), _below(40.0)),
    ("fig5_campaign_5x", ("fig5_campaign", "speedup"), _below(5.0)),
    ("engines_bit_exact", ("engines", "cpu_run_bit_exact"), False),
    ("engines_bit_exact", ("engines", "fast_lane_bit_exact"), False),
    ("engines_faults_observed", ("engines", "injected_bits"), 0),
    ("platform_bit_exact", ("platform", "schemes", "OCEAN", "bit_exact"),
     False),
    ("platform_rng_identical",
     ("platform", "schemes", "none", "rng_stream_identical"), False),
    ("platform_output_correct",
     ("platform", "schemes", "SECDED", "output_correct"), False),
    ("resilience_chaos_bit_identical",
     ("resilience", "chaos_bit_identical"), False),
    ("resilience_chaos_recovered", ("resilience", "chaos_retries"), 0),
    ("resilience_resume_bit_identical",
     ("resilience", "resume_bit_identical"), False),
    ("resilience_resume_skipped_work", ("resilience", "resumed_tasks"), 0),
    ("serve_warm_all_hits", ("serve", "warm_hits"), 1),
    ("serve_recovered_job_completed", ("serve", "recovered_jobs"), 2),
    ("serve_recovered_job_completed", ("serve", "recovered_hits"), 1),
    ("serve_warm_bit_identical", ("serve", "warm_bit_identical"), False),
    ("profile_bit_exact", ("profile", "bit_exact"), False),
    ("profile_output_correct", ("profile", "output_correct"), False),
    ("profile_instruments_populated", ("profile", "fast_instructions"), 0),
    ("profile_instruments_populated", ("profile", "bursts"), 0),
    ("profile_instruments_populated", ("profile", "scalar_pc_counts"), 2),
    ("profile_instruments_populated",
     ("profile", "scalar_slow_instructions"), 0),
]


def _failing(quick, path, value):
    results = _results(quick)
    *parents, leaf = path
    body = results
    for key in parents:
        body = body[key]
    body[leaf] = value
    return results


@pytest.mark.parametrize("quick", [True, False])
def test_gate_names_and_all_pass_at_the_edges(gate_checks, quick):
    checks = gate_checks(_results(quick))
    names = [name.format(target=_target(quick)) for name in GATES]
    assert list(checks) == names
    assert len(names) == 30
    assert all(value is True for value in checks.values())


@pytest.mark.parametrize("quick", [True, False])
@pytest.mark.parametrize(
    "gate,path,value", FAILURES,
    ids=[f"{gate}-{'.'.join(map(str, path))}" for gate, path, _ in FAILURES],
)
def test_each_gate_fails_alone(gate_checks, quick, gate, path, value):
    checks = gate_checks(_failing(quick, path, value))
    assert [name for name, ok in checks.items() if not ok] == [gate]


@pytest.mark.parametrize("quick", [True, False])
def test_platform_gate_edge_follows_run_size(gate_checks, quick):
    target = _target(quick)
    gate = f"platform_secded_{target}x"
    path = ("platform", "schemes", "SECDED", "speedup")
    assert gate_checks(_failing(quick, path, float(target)))[gate] is True
    failed = gate_checks(_failing(quick, path, _below(float(target))))
    assert [name for name, ok in failed.items() if not ok] == [gate]
    # Only the SECDED scheme's speedup is gated.
    slow_none = _failing(quick, ("platform", "schemes", "none", "speedup"), 0.0)
    assert all(gate_checks(slow_none).values())


@pytest.mark.parametrize(
    "results,failed",
    [
        (_results(True), []),
        (_failing(True, ("bch", "decode_speedup"), _below(40.0)),
         ["bch_decode_40x"]),
    ],
    ids=["every-gate-at-its-edge", "bch_decode_40x-below-its-edge"],
)
def test_main_exits_1_when_a_gate_fails(
    harness, monkeypatch, tmp_path, results, failed
):
    """``run_perf.py --quick`` exits 0 only if every gate passes."""
    sections = (
        "faults", "fig5_campaign", "store", "platform", "profile",
        "engines", "resilience", "serve",
    )
    for name in sections:
        monkeypatch.setattr(
            harness, f"bench_{name}",
            lambda *args, name=name, **kwargs: results[name],
        )
    monkeypatch.setattr(
        harness, "bench_codec",
        lambda codec, *args, **kwargs: results[
            "secded" if isinstance(codec, harness.SecdedCodec) else "bch"
        ],
    )
    output = tmp_path / "BENCH_perf.json"
    monkeypatch.setattr(sys, "argv", [
        str(HARNESS), "--quick", "--output", str(output),
        "--manifest", str(tmp_path / "BENCH_manifest.json"),
    ])
    assert harness.main() == (1 if failed else 0)
    checks = json.loads(output.read_text())["checks"]
    assert [name for name, ok in checks.items() if not ok] == failed
