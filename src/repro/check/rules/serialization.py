"""REP601 — NDJSON goes through the sanctioned serializer.

Every NDJSON log in the repo — traces, heartbeats, the store sidecar,
the serve job journal, the perf history — appends through one writer,
:class:`repro.obs.trace.NdjsonFileSink`, which already solved the
shared problems once: compact separators, flush discipline, and
crash-safe append semantics (one ``write()`` per record, so concurrent
appenders cannot interleave and a torn tail loses at most one line).
An ad-hoc ``f.write(json.dumps(rec) + "\\n")`` elsewhere silently
re-introduces a second framing dialect, and ``json.dump(rec, f)``
streams a large record in fragments another process can split.

Heuristics flagged outside the allowlisted serializer modules:

* ``json.dump(obj, fh)`` — the file-handle form (streaming records);
* ``json.dumps(..., separators=...)`` — the compact-NDJSON idiom.

Pretty-printed one-shot ``json.dumps(..., indent=2)`` (CLI output,
manifests handed to the user) stays legal everywhere.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.check.rules import Rule, _in_repro_src, register

if TYPE_CHECKING:
    from repro.check.engine import FileContext, Finding, Project

#: Modules that own NDJSON serialization for the repo.
SERIALIZER_MODULES = frozenset(
    {
        "repro.obs.trace",
        "repro.obs.manifest",
        "repro.check.report",
    }
)


@register
class NdjsonSerializerRule(Rule):
    id = "REP601"
    name = "adhoc-ndjson"
    summary = (
        "NDJSON writing must route through the shared NdjsonFileSink, "
        "not ad-hoc json.dumps"
    )

    def applies_to(self, file: FileContext) -> bool:
        return (
            _in_repro_src(file)
            and file.module not in SERIALIZER_MODULES
        )

    def check(
        self, file: FileContext, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = file.resolve(node.func)
            if resolved not in {"json.dump", "json.dumps"}:
                continue
            has_separators = any(
                kw.arg == "separators" for kw in node.keywords
            )
            if resolved == "json.dump" and len(node.args) >= 2:
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "streaming json.dump to a file handle outside the "
                    "sanctioned serializer modules; append records "
                    "through repro.obs.trace.NdjsonFileSink so framing "
                    "and flush discipline stay in one place",
                )
            elif has_separators:
                yield self.finding(
                    file,
                    node.lineno,
                    node.col_offset,
                    "compact json.dumps(separators=...) is the NDJSON "
                    "idiom; use repro.obs.trace.NdjsonFileSink instead "
                    "of re-implementing record framing",
                )
