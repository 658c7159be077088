"""repro — reproduction of "Resolving the Memory Bottleneck for Single
Supply Near-Threshold Computing" (Gemmeke et al., DATE 2014).

Subpackages, bottom-up:

* :mod:`repro.tech` — device physics and technology nodes.
* :mod:`repro.core` — the paper's statistical voltage-reliability
  models and design machinery (the primary contribution).
* :mod:`repro.memdev` — the Monte-Carlo memory-device substrate and
  the CACTI-substitute energy model (the virtual test chip).
* :mod:`repro.ecc` — bit-exact error-correcting codecs.
* :mod:`repro.soc` — the MPARM-substitute platform simulator, whose
  codec ports are the paper's ECC memory wrappers.
* :mod:`repro.workloads` — the FFT benchmark and streaming phases.
* :mod:`repro.mitigation` — executable mitigation schemes
  (none / SECDED / OCEAN).
* :mod:`repro.analysis` — one entry point per paper table and figure.
* :mod:`repro.obs` — telemetry: metrics registry, span tracing with
  NDJSON sinks, and run-manifest provenance records.

Quick taste::

    >>> from repro.core import ACCESS_CELL_BASED_40NM, SCHEME_OCEAN
    >>> from repro.core import minimum_voltage
    >>> round(minimum_voltage(ACCESS_CELL_BASED_40NM, SCHEME_OCEAN).vdd, 2)
    0.33
"""

__version__ = "1.0.0"

__all__ = [
    "tech",
    "core",
    "memdev",
    "ecc",
    "soc",
    "workloads",
    "mitigation",
    "analysis",
    "obs",
]
