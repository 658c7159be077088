"""No-mitigation baseline.

Both memories store raw 32-bit words; every injected bit flip reaches
the core.  The possible outcomes map to the paper's "system failure at
any single bit error" semantics:

* a flipped data word silently corrupts the FFT output (the harness
  catches it against the golden model);
* a flipped instruction word either executes as a wrong-but-legal
  instruction or raises an illegal-instruction system failure;
* a corrupted loop variable can send the program into a runaway loop,
  caught by the execution limit.
"""

from __future__ import annotations

from repro.core.fit_solver import SCHEME_NONE
from repro.mitigation.base import SchemeMemory, SchemeRunner


class NoMitigationRunner(SchemeRunner):
    """Raw platform: what breaks, breaks."""

    name = "none"
    reliability = SCHEME_NONE
    memories = (SchemeMemory("IM"), SchemeMemory("SP"))
