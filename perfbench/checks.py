"""Correctness checks, the reproduction error, and the latency tail.

Each exhibit is reduced to a flat dict of named statistics; at every
seed those must equal the values in ``reference.json``, recorded at the
commit the benchmark was written against (integers, booleans and
strings exactly, floats to a relative 1e-9).  Campaign and serve
results are checked for internal consistency at every seed, and
against the reference at the default seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List

REFERENCE_PATH = Path(__file__).with_name("reference.json")
FLOAT_REL_TOL = 1e-9


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _plain(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    return float(value)


def exhibit_summary(label: str, value: Any) -> Dict[str, Any]:
    """Flat statistics of one exhibit's return value."""
    out: Dict[str, Any] = {}
    if label in ("table1", "table2"):
        for row in value:
            key = row.get("name") or f"{row['frequency_hz']:g}:{row['scheme']}"
            for field, item in row.items():
                if field not in ("name", "paper", "frequency_hz", "scheme"):
                    out[f"{key}.{field}"] = _plain(item)
    elif label == "fig1":
        for row in value:
            out[f"{row.vdd:.3f}.total_j"] = _plain(row.total_j)
            out[f"{row.vdd:.3f}.memory_fraction"] = _plain(row.memory_fraction)
    elif label == "fig3":
        for design, grid in value.items():
            out[f"{design}.mean"] = _plain(grid.mean())
            out[f"{design}.min"] = _plain(grid.min())
            out[f"{design}.max"] = _plain(grid.max())
            out[f"{design}.sum_sq"] = _plain((grid * grid).sum())
    elif label in ("fig4", "fig5"):
        for series in value:
            for vdd, ber in zip(series.voltages, series.measured_ber):
                out[f"{series.design}.{vdd:.4f}.ber"] = _plain(ber)
            if label == "fig4":
                out[f"{series.design}.v_mean"] = _plain(series.fitted_v_mean)
                out[f"{series.design}.v_sigma"] = _plain(series.fitted_v_sigma)
    elif label in ("fig8", "fig9"):
        for bar in value.bars:
            out[f"{bar.scheme}.total_w"] = _plain(bar.total_w)
            out[f"{bar.scheme}.correct"] = bool(bar.correct)
            out[f"{bar.scheme}.rollbacks"] = int(bar.rollbacks)
            out[f"{bar.scheme}.corrected_words"] = int(bar.corrected_words)
    elif label == "fig10":
        for row in value:
            key = f"{row.node}.{row.vdd:.3f}"
            out[f"{key}.mean_delay_s"] = _plain(row.mean_delay_s)
            out[f"{key}.sigma_delay_s"] = _plain(row.sigma_delay_s)
    elif label == "claims":
        out["power_ratio_vs_none"] = _plain(value.power_ratio_vs_none)
        out["power_ratio_vs_ecc"] = _plain(value.power_ratio_vs_ecc)
        out["dynamic_power_ratio_beyond_limit"] = _plain(
            value.dynamic_power_ratio_beyond_limit)
    else:
        raise KeyError(label)
    return out


def mismatches(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Statistics that differ from the reference (empty when equal)."""
    problems = []
    for key in sorted(want.keys() | got.keys()):
        if key not in got or key not in want:
            problems.append(f"{key}: missing")
            continue
        a, b = got[key], want[key]
        if isinstance(b, float) and isinstance(a, float):
            if not math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=1e-300):
                problems.append(f"{key}: {a!r} != {b!r}")
        elif a != b:
            problems.append(f"{key}: {a!r} != {b!r}")
    return problems


def paper_error_lines(values: Dict[str, Any]) -> List[str]:
    """Reproduction error against the paper values the repo holds.

    Reported beside the timings, not gated: Table 1 per design and
    field, Table 2 per frequency and scheme, and the abstract's 3x/2x
    and the conclusion's 3.3x.
    """
    from repro.analysis.experiments import TABLE1_PAPER

    lines = ["reproduction error vs paper (reported, not gated):"]
    for row in values["table1"]:
        for field, paper in TABLE1_PAPER.get(row["name"], {}).items():
            if paper is None or row.get(field) is None:
                continue
            model = float(row[field])
            lines.append(
                f"  table1 {row['name']:<20} {field:<14} model {model:9.4g}"
                f"  paper {paper:9.4g}  error {100 * (model / paper - 1):+7.1f}%"
            )
    for row in values["table2"]:
        lines.append(
            f"  table2 {row['frequency_hz'] / 1e6:6.2f} MHz {row['scheme']:<7}"
            f" model {row['vdd_model']:.3f} V  paper {row['vdd_paper']:.2f} V"
            f"  error {1000 * (row['vdd_model'] - row['vdd_paper']):+6.0f} mV"
        )
    claims = values["claims"]
    for label, model, paper in (
        ("power vs none (abstract 3x)", claims.power_ratio_vs_none, 3.0),
        ("power vs ECC (abstract 2x)", claims.power_ratio_vs_ecc, 2.0),
        ("dynamic beyond limit (3.3x)",
         claims.dynamic_power_ratio_beyond_limit, 3.3),
    ):
        lines.append(
            f"  claims {label:<28} model {model:.2f}x  paper {paper:.1f}x"
            f"  error {100 * (model / paper - 1):+6.1f}%"
        )
    return lines


def campaign_problems(result, scheme: str, vdd: float, runs: int) -> List[str]:
    """Internal consistency of one :class:`CampaignResult`."""
    problems = []
    if result.scheme.lower() != scheme.lower() or result.vdd != vdd:
        problems.append(f"point is {result.scheme}@{result.vdd}")
    if result.runs + result.quarantined != runs:
        problems.append(f"{result.runs}+{result.quarantined} runs != {runs}")
    classified = result.correct + result.silent_corruption + result.detected_failure
    if classified != result.runs:
        problems.append(f"classified {classified} != runs {result.runs}")
    if sum(result.failures_by_kind.values()) != result.detected_failure:
        problems.append("failure kinds do not add up to detected failures")
    if result.quarantined:
        problems.append(f"{result.quarantined} runs quarantined")
    return problems


def payload_problems(payload: Dict[str, Any], scheme: str, vdd: float,
                     runs: int) -> List[str]:
    """:func:`campaign_problems` for an encoded (served) result."""
    from repro.store.pipeline import decode_campaign_result

    return campaign_problems(decode_campaign_result(payload), scheme, vdd, runs)


def tail(samples: List[float], beyond: int = 10):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` by the nearest-rank definition, or
    ``None`` when there are too few samples for any candidate.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(round(percentile * n / 100.0, 9)))
        if n - rank >= beyond:
            return percentile, ordered[rank - 1]
    return None
