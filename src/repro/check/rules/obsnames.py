"""REP401 — obs instrument names must come from the checked-in registry.

The telemetry subsystem (PR 2) is only useful if names are stable: a
dashboard summing ``campaign.silent_corruption`` must not silently read
zero because a refactor renamed the counter.  The canonical name
registry is :mod:`repro.obs.names`; this rule pins every call site to
it.

A name argument to ``counter``/``histogram`` (on a metrics registry)
or ``span``/``point``/``event`` (on a tracer) must be one of:

* a string literal that appears in the registry (drift — a literal not
  in ``repro/obs/names.py`` — is an error),
* a constant imported from ``repro.obs.names``,
* a call to a registry factory such as ``names.ecc_metric(...)``.

F-strings and ad-hoc variables are rejected: dynamic name families get
an explicit factory in the registry instead.

Scope: ``repro.*`` modules except ``repro.obs`` itself (the registry
and plumbing legitimately handle names as variables) and
``repro.check``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.check.rules import Rule, _in_repro_src, register

if TYPE_CHECKING:
    from repro.check.engine import FileContext, Finding, Project

_METRIC_METHODS = frozenset({"counter", "histogram"})
_TRACE_METHODS = frozenset({"span", "point", "event"})

_NAMES_MODULE = "repro.obs.names"


def _looks_like_obs_receiver(file: "FileContext", node: ast.expr) -> bool:
    """Heuristic receiver filter keeping the rule precise.

    Accepts ``active_metrics()`` / ``active_tracer()`` calls (however
    imported) and names/attributes whose final segment is spelled like
    an obs handle (``metrics``, ``registry``, ``tracer``).
    """
    if isinstance(node, ast.Call):
        resolved = file.resolve(node.func) or ""
        return resolved.split(".")[-1] in {
            "active_metrics",
            "active_tracer",
        }
    text = None
    if isinstance(node, ast.Name):
        text = node.id
    elif isinstance(node, ast.Attribute):
        text = node.attr
    if text is None:
        return False
    lowered = text.lower()
    return any(
        marker in lowered for marker in ("metric", "registry", "tracer")
    )


@register
class ObsNameRegistryRule(Rule):
    id = "REP401"
    name = "unregistered-obs-name"
    summary = (
        "metric/span/point/event names must be literals from "
        "repro/obs/names.py or registry constants/factories"
    )

    def __init__(self) -> None:
        # Imported lazily so the checker package has no import-time
        # dependency on the repro runtime when only other rules run.
        self._names_module: object | None = None

    def applies_to(self, file: FileContext) -> bool:
        if not _in_repro_src(file):
            return False
        module = file.module
        return not (
            module.startswith("repro.obs") or module.startswith("repro.check")
        )

    # ------------------------------------------------------------------
    def _registry(self) -> object:
        if self._names_module is None:
            from repro.obs import names

            self._names_module = names
        return self._names_module

    def _registered(self, name: str, methods: str) -> bool:
        registry = self._registry()
        pool = getattr(
            registry,
            "METRIC_NAMES" if methods == "metric" else "TRACE_NAMES",
        )
        return bool(name in pool)

    def _is_registry_reference(
        self, file: FileContext, node: ast.expr
    ) -> bool:
        """True for ``names.FOO`` / imported constants / factories."""
        target = node.func if isinstance(node, ast.Call) else node
        resolved = file.resolve(target)
        if resolved is None:
            return False
        if not resolved.startswith(_NAMES_MODULE + "."):
            return False
        attr = resolved[len(_NAMES_MODULE) + 1 :].split(".")[0]
        return hasattr(self._registry(), attr)

    # ------------------------------------------------------------------
    def check(
        self, file: FileContext, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _METRIC_METHODS:
                kind = "metric"
            elif func.attr in _TRACE_METHODS:
                kind = "trace"
            else:
                continue
            if not node.args:
                continue
            if not _looks_like_obs_receiver(file, func.value):
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and isinstance(
                name_arg.value, str
            ):
                if not self._registered(name_arg.value, kind):
                    yield self.finding(
                        file,
                        name_arg.lineno,
                        name_arg.col_offset,
                        f"obs name {name_arg.value!r} is not in the "
                        "registry; add it to src/repro/obs/names.py "
                        "(drift between call sites and the registry "
                        "is an error)",
                    )
                continue
            if self._is_registry_reference(file, name_arg):
                continue
            what = (
                "an f-string"
                if isinstance(name_arg, ast.JoinedStr)
                else "a dynamic expression"
            )
            yield self.finding(
                file,
                name_arg.lineno,
                name_arg.col_offset,
                f"obs {func.attr} name is {what}; use a constant or "
                "factory from repro.obs.names so the name set stays "
                "enumerable",
            )
