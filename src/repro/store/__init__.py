"""Content-addressed campaign result store.

``repro.store`` turns the deterministic Monte-Carlo exhibits into a
compute-once, serve-many system: every campaign point (one (scheme,
vdd) platform campaign, one block of seeded runs inside it, one
Fig. 5 grid point, one Fig. 4 die) is keyed by the SHA-256 of its
provenance (:mod:`repro.store.keys`), persisted append-safely in
SQLite with an NDJSON sidecar for recovery and interchange
(:mod:`repro.store.store`), and reassembled bit-identically from any
mix of cached and fresh points (:mod:`repro.store.pipeline`).  The
store is also the only checkpoint of a killed campaign: rerunning it
against the same store resumes from the completed runs.
"""

from repro.store.keys import (
    KEY_SCHEMA,
    PointKey,
    campaign_task_key,
    fig5_point_key,
    fingerprint_payload,
    retention_die_key,
    scheme_campaign_key,
    workload_fingerprint,
)
from repro.store.pipeline import (
    GridResult,
    campaign_point_key,
    decode_campaign_result,
    encode_campaign_result,
    scheme_failure_grid,
)
from repro.store.store import STORE_SCHEMA, ResultStore

__all__ = [
    "KEY_SCHEMA",
    "STORE_SCHEMA",
    "GridResult",
    "PointKey",
    "ResultStore",
    "campaign_point_key",
    "campaign_task_key",
    "decode_campaign_result",
    "encode_campaign_result",
    "fig5_point_key",
    "fingerprint_payload",
    "retention_die_key",
    "scheme_campaign_key",
    "scheme_failure_grid",
    "workload_fingerprint",
]
