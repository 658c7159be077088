"""Command-line interface: regenerate paper exhibits from the shell.

::

    python -m repro                      # full report (FFT size 64)
    python -m repro report --fft 256     # full report, bigger FFT
    python -m repro table1               # one exhibit at a time
    python -m repro table2
    python -m repro fig8 --fft 128
    python -m repro fig9
    python -m repro claims

Observability flags (any exhibit):

* ``--json`` — emit the exhibit as machine-readable JSON instead of a
  rendered table, so CI can diff structured values rather than
  string-compare text.
* ``--trace FILE`` — record an NDJSON trace of the run (spans around
  each campaign, one record per outcome) to ``FILE``.
* ``--metrics`` — collect the run's metric counters and append them to
  the output (under a ``metrics`` key in JSON mode).
* ``--profile`` — enable the deterministic engine profiler
  (:mod:`repro.obs.profile`) and append its rendered report (opcode
  mix, fast/slow-path residency) to the output (under a ``profile``
  key in JSON mode).  Bit-exactness-neutral: the exhibit's numbers are
  identical with or without it.

The ``campaign`` exhibit runs a resilient Monte-Carlo failure-rate
campaign (see ``repro.resilience``) with checkpoint/resume::

    python -m repro campaign --scheme ocean --vdd 0.38 --runs 20 \
        --processes 4 --store results.sqlite --max-retries 3 \
        --task-timeout 60

The result store (``--store FILE`` or ``$REPRO_STORE``) is the
checkpoint: every completed run is published to it as it lands, so
rerunning a killed campaign against the same store resumes from its
completed runs — the merged result is bit-identical to an
uninterrupted run at the same seed — and rerunning a finished one is
served warm.  ``--progress`` draws a live done/total + ETA line on
stderr while the campaign runs; ``--heartbeat FILE`` appends the same
state as flushed NDJSON records an external watcher can tail.
"""

from __future__ import annotations

import argparse
import dataclasses
import json

from repro import obs
from repro.analysis.experiments import (
    fig8_power_breakdown,
    fig9_power_breakdown,
    headline_claims,
    table1_comparison,
    table2_minimum_voltages,
)
from repro.analysis.report import (
    claims_text,
    full_report,
    power_text,
    table1_text,
    table2_text,
)
from repro.mitigation import SCHEME_RUNNERS
from repro.obs import names
from repro.obs.manifest import _json_default
from repro.workloads.fft import check_fft_size


# ----------------------------------------------------------------------
# JSON payloads (machine-readable exhibits)
# ----------------------------------------------------------------------
def _study_payload(study) -> dict:
    return {
        "frequency_hz": study.frequency,
        "bars": [dataclasses.asdict(bar) for bar in study.bars],
        "savings": {
            "ocean_vs_none": study.savings("OCEAN", "none"),
            "ocean_vs_secded": study.savings("OCEAN", "SECDED"),
        },
    }


def _json_payload(exhibit: str, fft_points: int) -> dict:
    """Structured data behind one exhibit, ready for ``json.dumps``."""
    if exhibit == "table1":
        return {"table1": table1_comparison()}
    if exhibit == "table2":
        return {"table2": table2_minimum_voltages()}
    if exhibit == "fig8":
        return {
            "fig8": _study_payload(
                fig8_power_breakdown(fft_points=fft_points)
            )
        }
    if exhibit == "fig9":
        return {
            "fig9": _study_payload(
                fig9_power_breakdown(fft_points=fft_points)
            )
        }
    if exhibit == "claims":
        return {
            "claims": dataclasses.asdict(
                headline_claims(fft_points=fft_points)
            )
        }
    # The full report: every machine-diffable exhibit in one document.
    return {
        "table1": table1_comparison(),
        "table2": table2_minimum_voltages(),
        "fig8": _study_payload(fig8_power_breakdown(fft_points=fft_points)),
        "fig9": _study_payload(fig9_power_breakdown(fft_points=fft_points)),
        "claims": dataclasses.asdict(
            headline_claims(fft_points=fft_points)
        ),
    }


# ----------------------------------------------------------------------
# Resilient campaign exhibit
# ----------------------------------------------------------------------
def _open_store(args):
    """Result store selected by ``--store`` / ``$REPRO_STORE``.

    ``--no-store`` wins over both; returns ``None`` when no store is
    configured (exhibits then always compute cold).
    """
    import os

    if getattr(args, "no_store", False):
        return None
    path = getattr(args, "store", None) or os.environ.get("REPRO_STORE")
    if not path:
        return None
    from repro.store import ResultStore

    return ResultStore(path)


def _check_campaign_args(args) -> None:
    """Refuse a campaign before anything is built.

    The spec fields go through the validator ``repro serve`` applies to
    a submitted spec, so both refuse the same campaigns; the executor's
    retry budget and deadline are checked here.
    """
    from repro.serve.server import normalize_spec

    normalize_spec({
        "scheme": args.scheme, "vdd": args.vdd, "runs": args.runs,
        "seed": args.seed, "lanes": args.lanes, "fft": args.fft,
    })
    if args.max_retries < 0:
        raise ValueError(
            f"--max-retries must be >= 0, got {args.max_retries}"
        )
    if args.task_timeout is not None and not args.task_timeout > 0:
        raise ValueError(
            f"--task-timeout must be positive, got {args.task_timeout}"
        )


def _campaign_result(args):
    """Run one resilient failure-rate campaign from CLI arguments."""
    from repro.analysis.campaign import run_campaign
    from repro.core.access import ACCESS_CELL_BASED_40NM_TYPICAL
    from repro.workloads.fft import fft_program_and_golden

    runner_cls = SCHEME_RUNNERS[args.scheme]
    program, golden = fft_program_and_golden(args.fft)
    progress = _campaign_progress(args)
    store = _open_store(args)
    try:
        return run_campaign(
            runner_cls,
            workload=program.workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
            vdd=args.vdd,
            runs=args.runs,
            seed_base=args.seed,
            processes=args.processes,
            max_retries=args.max_retries,
            task_timeout=args.task_timeout,
            lanes=args.lanes,
            progress=progress,
            store=store,
            macro_style="cell-based",
        )
    finally:
        if progress is not None:
            progress.close()
            if args.progress:
                import sys

                sys.stderr.write("\n")


def _campaign_progress(args):
    """Build the live-progress observer ``--progress``/``--heartbeat``
    ask for (None when neither flag is set)."""
    if not args.progress and args.heartbeat is None:
        return None
    from repro.obs.report import CampaignProgress

    on_update = None
    if args.progress:
        import sys

        def on_update(progress) -> None:
            sys.stderr.write("\r" + progress.render())
            sys.stderr.flush()

    return CampaignProgress(heartbeat=args.heartbeat, on_update=on_update)


def _campaign_payload(result) -> dict:
    report = result.resilience
    payload = dataclasses.asdict(
        dataclasses.replace(result, resilience=None)
    )
    payload.pop("resilience", None)
    if report is None:
        # Store-served result: no execution happened, so there is no
        # resilience report — only the cache provenance marker.
        payload["served_from_store"] = True
        payload["resilience"] = None
    else:
        payload["served_from_store"] = False
        payload["resilience"] = {
            "resumed": report.resumed,
            "executed": report.executed,
            "retries": report.retries,
            "requeues": report.requeues,
            "checkpoints": report.checkpoints,
            "pool_breaks": report.pool_breaks,
            "deadline_overruns": report.deadline_overruns,
            "degraded_to_serial": report.degraded_to_serial,
            "quarantined": dict(report.quarantined),
        }
    return {"campaign": payload}


def _render_campaign(result) -> str:
    report = result.resilience
    lines = [
        f"campaign: {result.scheme} at {result.vdd:.3f} V, "
        f"{result.runs} runs",
        f"correct {result.correct} | silent {result.silent_corruption} "
        f"| detected {result.detected_failure} "
        f"| quarantined {result.quarantined}",
        f"injected bits {result.total_injected_bits} | corrected "
        f"{result.total_corrected} | rollbacks {result.total_rollbacks}",
    ]
    if result.failures_by_kind:
        kinds = ", ".join(
            f"{kind}:{count}"
            for kind, count in sorted(result.failures_by_kind.items())
        )
        lines.append(f"failure kinds: {kinds}")
    if report is None:
        lines.append(
            "served from store (warm hit; no execution this run)"
        )
    else:
        lines.append(
            f"resilience: resumed {report.resumed} | executed "
            f"{report.executed} | retries {report.retries} | requeues "
            f"{report.requeues} | checkpoints {report.checkpoints} | pool "
            f"breaks {report.pool_breaks}"
        )
    return "\n".join(lines)


def _text_payload(exhibit: str, fft_points: int) -> str:
    if exhibit == "report":
        return full_report(fft_points=fft_points)
    if exhibit == "table1":
        return table1_text(
            "Table 1 (model values; paper anchors in EXPERIMENTS.md)"
        )
    if exhibit == "table2":
        return table2_text("Table 2: minimum voltage per scheme (FIT 1e-15)")
    if exhibit == "fig8":
        return power_text(
            fig8_power_breakdown(fft_points=fft_points),
            "Figure 8: power at 290 kHz (cell-based platform)",
        )
    if exhibit == "fig9":
        return power_text(
            fig9_power_breakdown(fft_points=fft_points),
            "Figure 9: power at 11 MHz (commercial memory)",
        )
    return claims_text(headline_claims(fft_points=fft_points))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate exhibits of Gemmeke et al., DATE 2014 "
            "(see README.md)"
        ),
    )
    parser.add_argument(
        "exhibit",
        nargs="?",
        default="report",
        choices=[
            "report", "table1", "table2", "fig8", "fig9", "claims",
            "campaign",
        ],
        help="which exhibit to regenerate (default: the full report)",
    )
    parser.add_argument(
        "--fft",
        type=int,
        default=64,
        metavar="N",
        help="FFT size for the simulated power studies (default 64; "
        "the paper's size is 1024)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of rendered text",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write an NDJSON trace of the run to FILE",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect metric counters and append them to the output",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable the deterministic engine profiler and append its "
        "report (opcode mix, fast/slow-path residency); "
        "bit-exactness-neutral",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="content-addressed result store: serve cached campaign "
        "points and publish fresh ones; a campaign rerun against it "
        "resumes from its completed runs (default: $REPRO_STORE if set)",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="ignore --store and $REPRO_STORE; always compute cold",
    )
    campaign = parser.add_argument_group(
        "campaign options (exhibit: campaign)"
    )
    campaign.add_argument(
        "--scheme",
        choices=list(SCHEME_RUNNERS),
        default="secded",
        help="mitigation scheme under test (default secded)",
    )
    campaign.add_argument(
        "--vdd",
        type=float,
        default=0.40,
        help="supply voltage in volts (default 0.40)",
    )
    campaign.add_argument(
        "--runs",
        type=int,
        default=20,
        help="number of independent seeded runs (default 20)",
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=100,
        help="seed of the first run; run i uses seed+i (default 100)",
    )
    campaign.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="fan runs out over N worker processes (default serial)",
    )
    campaign.add_argument(
        "--lanes",
        type=int,
        default=1,
        metavar="N",
        help="seeds per task and store row (default 1); every run "
        "executes on the fast lane, with bit-identical classification "
        "at any N",
    )
    campaign.add_argument(
        "--progress",
        action="store_true",
        help="draw a live done/total + ETA line on stderr while the "
        "campaign runs",
    )
    campaign.add_argument(
        "--heartbeat",
        metavar="FILE",
        default=None,
        help="append flushed NDJSON progress records (done/total/ETA) "
        "to FILE for external watchers",
    )
    campaign.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="retries per run before quarantining it (default 3)",
    )
    campaign.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run deadline; an overrun counts as a failed attempt",
    )
    return parser


def _finish_json(payload: dict, args, registry) -> str:
    if args.metrics:
        payload["metrics"] = registry.snapshot().as_dict()
    if args.profile:
        payload["profile"] = obs.render_profile(registry.snapshot())
    return json.dumps(payload, indent=2, default=_json_default)


def _finish_text(text: str, args, registry) -> str:
    if args.metrics:
        text += "\n\n== metrics ==\n" + obs.format_snapshot(
            registry.snapshot()
        )
    if args.profile:
        text += "\n\n" + obs.render_profile(registry.snapshot())
    return text


def run(argv: list[str] | None = None) -> str:
    """Parse arguments and return the rendered exhibit text."""
    args = build_parser().parse_args(argv)
    # A campaign runs on the stock platform; the other exhibits size
    # their platform to the FFT.
    try:
        if args.exhibit == "campaign":
            _check_campaign_args(args)
        else:
            check_fft_size(args.fft)
    except ValueError as error:
        raise SystemExit(f"repro {args.exhibit}: {error}") from None

    # The profiler publishes through the metrics registry, so --profile
    # implies a live registry even without --metrics.
    registry = (
        obs.enable_metrics()
        if (args.metrics or args.profile)
        else None
    )
    if args.profile:
        obs.enable_profiling()
    if args.trace:
        obs.enable_tracing(args.trace)
    try:
        with obs.active_tracer().span(
            names.SPAN_CLI_EXHIBIT, exhibit=args.exhibit, fft=args.fft
        ):
            if args.exhibit == "campaign":
                result = _campaign_result(args)
                if args.json:
                    return _finish_json(
                        _campaign_payload(result), args, registry
                    )
                return _finish_text(_render_campaign(result), args, registry)
            if args.json:
                return _finish_json(
                    _json_payload(args.exhibit, args.fft), args, registry
                )
            return _finish_text(
                _text_payload(args.exhibit, args.fft), args, registry
            )
    finally:
        if args.trace:
            obs.disable_tracing()
        if args.profile:
            obs.disable_profiling()
        if registry is not None:
            obs.disable_metrics()


def main(argv: list[str] | None = None) -> None:
    import sys

    actual = list(sys.argv[1:]) if argv is None else list(argv)
    if actual and actual[0] == "check":
        from repro.check.cli import main as check_main

        raise SystemExit(check_main(actual[1:]))
    if actual and actual[0] == "serve":
        from repro.serve.cli import main as serve_main

        raise SystemExit(serve_main(actual[1:]))
    if actual and actual[0] == "submit":
        from repro.serve.cli import submit_main

        raise SystemExit(submit_main(actual[1:]))
    if actual and actual[0] == "cache":
        from repro.store.cli import main as cache_main

        raise SystemExit(cache_main(actual[1:]))
    print(run(actual))
