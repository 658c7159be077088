"""REP301 — no nondeterminism sources reachable from the replay path.

The fast-lane engine and store-backed campaign resume both promise
*bit-exact replay*: the same seed produces the same counters, the same
RNG stream, the same NDJSON trace — interrupted or not, pooled or
serial.  That promise dies the moment replay-path code
consults a wall clock, the OS entropy pool, or an unordered container's
iteration order — *directly or through any helper it calls*.

Roots: every function of the replay-path modules — ``repro.soc``,
``repro.ecc``, ``repro.resilience``, ``repro.analysis.campaign``,
``repro.analysis.batch`` — including module-level code.  The analysis
(:mod:`repro.check.flow.taint`) walks the project call graph from the
roots; an impure touch in *any* reachable function is flagged at the
touching line, with the root→touch call chain in the message.
Observability (``repro.obs``) and the checker itself are barrier
modules: their timestamps never feed replayed results.

Flagged:

* wall-clock reads (``time.time``, ``time.time_ns``,
  ``datetime.now``/``utcnow``/``today``) — monotonic/perf counters are
  fine (they schedule work, they never enter results);
* OS entropy (``os.urandom``, ``uuid.uuid1``/``uuid4``,
  ``secrets.*``);
* iteration over a ``set``/``frozenset`` expression (``for x in
  set(...)``) — hash-order-dependent; iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.check.rules import Rule, _in_repro_src, register

if TYPE_CHECKING:
    from repro.check.engine import FileContext, Finding, Project

REPLAY_MODULE_PREFIXES = ("repro.soc", "repro.ecc", "repro.resilience")
REPLAY_MODULES = ("repro.analysis.campaign", "repro.analysis.batch")

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_OS_ENTROPY = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbelow",
        "secrets.choice",
    }
)

_MESSAGES = {
    "wall-clock": (
        "{source} reads the wall clock on the deterministic replay "
        "path{via}; use time.monotonic/perf_counter for scheduling, "
        "and keep timestamps out of replayed results"
    ),
    "os-entropy": (
        "{source} draws OS entropy on the deterministic replay "
        "path{via}; derive randomness from the run's seeded generator"
    ),
    "set-iteration": (
        "iterating a set on the replay path is hash-order-dependent"
        "{via}; iterate sorted(...) instead"
    ),
}


def _taint_sources() -> dict[str, str]:
    sources = {name: "wall-clock" for name in _WALL_CLOCK}
    sources.update({name: "os-entropy" for name in _OS_ENTROPY})
    return sources


def _render_via(chain: str) -> str:
    """``(reached via a -> b -> c)`` for multi-hop chains, else ``""``."""
    return f" (reached via {chain})" if " -> " in chain else ""


@register
class ReplayDeterminismRule(Rule):
    id = "REP301"
    name = "replay-nondeterminism"
    summary = (
        "nothing reachable from replay-path modules (soc/, ecc/, "
        "resilience/, campaign, batch) may read wall clocks, OS "
        "entropy, or set iteration order"
    )

    def applies_to(self, file: FileContext) -> bool:
        # Findings land wherever a reachable impure touch physically
        # lives, so the rule applies to all first-party source; the
        # taint roots (replay modules) do the real scoping.
        return _in_repro_src(file)

    def check(
        self, file: FileContext, project: Project
    ) -> Iterator[Finding]:
        from repro.check.flow.project import BARRIER_MODULES
        from repro.check.flow.taint import TaintSpec

        touches = project.flow().taint(
            self.id,
            REPLAY_MODULE_PREFIXES + REPLAY_MODULES,
            TaintSpec(
                sources=_taint_sources(),
                flag_set_iteration=True,
                barrier_modules=BARRIER_MODULES,
            ),
        )
        for touch in touches.get(file.rel_path, ()):
            template = _MESSAGES.get(touch.category)
            if template is None:
                template = _MESSAGES["wall-clock"]
            yield self.finding(
                file,
                touch.lineno,
                touch.col,
                template.format(
                    source=touch.source, via=_render_via(touch.chain)
                ),
            )
