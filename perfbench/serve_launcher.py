"""Run ``repro serve`` with the traced run's layer wrappers installed.

Usage: ``serve_launcher.py SUMMARY_JSON [repro serve arguments...]``.
Installs the same wrappers as a traced worker (plus the job request id),
enables the metrics registry, calls :func:`repro.serve.cli.main`, and on
exit (SIGTERM drains the server first) writes the per-process summary
of :func:`layers.summarize` to ``SUMMARY_JSON``.
"""

from __future__ import annotations

import json
import sys

import layers
import tracing


def main(argv: list) -> int:
    summary_path, serve_args = argv[0], argv[1:]
    from repro import obs
    from repro.serve import cli

    registry = obs.enable_metrics()
    recorder = tracing.Recorder()
    patches = tracing.install(recorder, server=True)
    try:
        return cli.main(serve_args)
    finally:
        tracing.uninstall(patches)
        summary = layers.summarize(recorder, registry.snapshot().counters)
        summary["records"] = recorder.records()
        with open(summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
