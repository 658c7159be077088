"""Rule registry for ``repro check``.

Every rule is a singleton registered by id.  Adding a rule means:
subclass :class:`Rule` in a module under this package, decorate it with
:func:`register`, and import the module below so registration runs.

Rule ids are stable API — they appear in ``# repro: noqa[REPxxx]``
suppressions, in CI annotations and in CONTRIBUTING.md.  Never reuse a
retired id.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Type, TypeVar

if TYPE_CHECKING:
    from repro.check.engine import FileContext, Finding, Project

RULES: dict[str, "Rule"] = {}

_R = TypeVar("_R", bound="Rule")


class Rule(ABC):
    """One invariant, checked file by file.

    ``applies_to`` scopes the rule by path/module so domain rules stay
    silent outside their domain (e.g. the replay-determinism rule only
    fires on replay-path modules).
    """

    #: Stable id, e.g. ``"REP101"``.
    id: str = ""
    #: Short kebab-case mnemonic, e.g. ``"unseeded-rng"``.
    name: str = ""
    severity: str = "error"
    #: One-line description shown by ``repro check --list-rules``.
    summary: str = ""

    def applies_to(self, file: "FileContext") -> bool:
        return True

    @abstractmethod
    def check(
        self, file: "FileContext", project: "Project"
    ) -> Iterator["Finding"]:
        ...

    def finding(
        self, file: "FileContext", line: int, col: int, message: str
    ) -> "Finding":
        from repro.check.engine import Finding

        return Finding(
            rule=self.id,
            severity=self.severity,
            path=file.rel_path,
            line=line,
            col=col,
            message=message,
        )


def register(cls: Type[_R]) -> Type[_R]:
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if instance.id in RULES:
        raise ValueError(f"duplicate rule id {instance.id}")
    RULES[instance.id] = instance
    return cls


def _in_tests(file: "FileContext") -> bool:
    """True for files under a ``tests``/``benchmarks`` tree."""
    from pathlib import PurePosixPath

    parts = PurePosixPath(file.rel_path).parts
    return "tests" in parts or "benchmarks" in parts


def _in_repro_src(file: "FileContext") -> bool:
    """True for modules of the installed ``repro`` package itself."""
    module = file.module
    return (module == "repro" or module.startswith("repro.")) and not (
        _in_tests(file)
    )


# Import rule modules for their registration side effect.
from repro.check.rules import rng  # noqa: E402,F401
from repro.check.rules import voltage  # noqa: E402,F401
from repro.check.rules import determinism  # noqa: E402,F401
from repro.check.rules import storekeys  # noqa: E402,F401
from repro.check.rules import obsnames  # noqa: E402,F401
from repro.check.rules import deadnames  # noqa: E402,F401
from repro.check.rules import instrumentation  # noqa: E402,F401
from repro.check.rules import concurrency  # noqa: E402,F401
from repro.check.rules import sharedstate  # noqa: E402,F401
from repro.check.rules import serialization  # noqa: E402,F401
from repro.check.rules import exceptions  # noqa: E402,F401
from repro.check.rules import exceptionflow  # noqa: E402,F401

# Registration order above is import order; re-key the registry sorted
# by rule id so --list-rules and report output are stable no matter
# which module happens to be imported first.
_sorted_rules = dict(sorted(RULES.items()))
RULES.clear()
RULES.update(_sorted_rules)

__all__ = ["RULES", "Rule", "register"]
