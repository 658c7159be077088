"""Content-addressed campaign point keys.

A *campaign point* is an independently reproducible unit of
Monte-Carlo work: one (scheme, voltage) platform campaign, one block
of seeded runs inside it, one Fig. 5 voltage grid point, one Fig. 4
die.  Its key is the SHA-256 of the canonical JSON of its
**provenance** — exactly the fields that determine the result
bit-for-bit (codec/scheme, fault model, vdd, seed range, workload)
and nothing else.  Key kinds: ``scheme-campaign``,
``campaign-task``, ``fig5-point`` and ``fig4-die``.

The store is the record of completed work, so these keys are also the
checkpoints of a killed campaign: the resilient executor probes each
task's key before scheduling it and publishes each result as it
lands, and a rerun against the same store resumes bit-identically.

Execution knobs are deliberately excluded: ``processes``, retry
budgets, task timeouts, chaos policies, the heartbeat and the
profiling/progress options change *how* a point is computed, never
*what* it computes — the engines are proven bit-exact across all of
them — so including any of it would fragment the cache without adding
information.  Equally excluded is anything environmental: wall-clock,
PID, hostname, OS entropy.  Rule ``REP103`` (``repro check``) fails
the build if key construction in this package ever touches such a
source, because one impure field silently turns every lookup into a
miss.

A campaign's ``lanes`` (seeds per task) is *not* part of any key
either.  Every run executes on the fast lane, and a campaign is only
stored when none of its runs was quarantined — the one case where task
width shows (a quarantined task retires all of its runs) — so a stored
answer is the same at every width.  A campaign-task key holds the
task's seed block (``first_seed``, ``count``) and nothing about the
engine: its payload is the same per-seed statistics and metrics
snapshot whichever width produced it.  Chunk size is not part of the
Fig. 5 point key: the child stream draws its doubles in C order
regardless of how the Bernoulli matrix is split into row blocks.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.core.errors import validate_vdd

#: Bumped when the provenance layout changes; part of every key.
KEY_SCHEMA = 2

#: Distinct workloads, and distinct golden outputs, whose digests one
#: process keeps (:func:`workload_fingerprint`,
#: :func:`golden_fingerprint`); the least recently used goes first.
FINGERPRINTS_KEPT = 16


def canonical_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, default separators."""
    return json.dumps(payload, sort_keys=True)


def fingerprint_payload(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PointKey:
    """A campaign point's kind plus its canonical provenance text."""

    kind: str
    provenance_json: str
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A probe asks for the same key's fingerprint several times
        # (claim, lookup, publish); hash the provenance once per key.
        digest = hashlib.sha256(self.provenance_json.encode("utf-8"))
        object.__setattr__(self, "_digest", digest.hexdigest())

    @classmethod
    def from_provenance(cls, kind: str, provenance: Mapping[str, Any]) -> "PointKey":
        body: Dict[str, Any] = dict(provenance)
        body["kind"] = kind
        body["schema"] = KEY_SCHEMA
        return cls(kind=kind, provenance_json=canonical_json(body))

    def provenance(self) -> Dict[str, Any]:
        loaded = json.loads(self.provenance_json)
        assert isinstance(loaded, dict)
        return loaded

    def fingerprint(self) -> str:
        """SHA-256 hex digest of the provenance text."""
        return self._digest


def access_model_provenance(access_model: Any) -> Dict[str, float]:
    """Provenance-relevant fields of an ``AccessErrorModel``."""
    return {
        "amplitude": float(access_model.amplitude),
        "exponent": float(access_model.exponent),
        "v_onset": float(access_model.v_onset),
    }


def workload_fingerprint(workload: Any) -> str:
    """Digest of a ``StreamingWorkload``'s defining fields.

    Accepts anything the campaign drivers accept — a bare
    ``StreamingWorkload`` or a wrapper exposing one as ``.workload``
    (``FftProgram``); both hash to the wrapped workload's fields.
    """
    if not hasattr(workload, "program_words") and hasattr(
        workload, "workload"
    ):
        workload = workload.workload
    return _workload_digest(workload)


@functools.lru_cache(maxsize=FINGERPRINTS_KEPT)
def _workload_digest(workload: Any) -> str:
    # Memoized by value: ``StreamingWorkload`` is frozen, and its
    # equality covers exactly the fields hashed here, so equal
    # workloads share one digest.
    return fingerprint_payload(
        {
            "name": workload.name,
            "program_words": [int(w) for w in workload.program_words],
            "phases": [
                {
                    "index": int(phase.index),
                    "name": phase.name,
                    "chunk_base": int(phase.chunk_base),
                    "chunk_words": int(phase.chunk_words),
                }
                for phase in workload.phases
            ],
            "data_words": [int(w) for w in workload.data_words],
            "data_base": int(workload.data_base),
            "result_base": int(workload.result_base),
            "result_words": int(workload.result_words),
        }
    )


def golden_fingerprint(golden: Any) -> str:
    """Digest of a golden output word list (a list or a tuple)."""
    return _golden_digest(tuple(map(int, golden)))


@functools.lru_cache(maxsize=FINGERPRINTS_KEPT)
def _golden_digest(words: Tuple[int, ...]) -> str:
    # A tuple encodes as the same JSON array as the list it came from.
    return fingerprint_payload({"golden": words})


def _normalize_kwargs(kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """JSON-stable form of runner kwargs (repr for non-primitives)."""
    normalized: Dict[str, Any] = {}
    for key in sorted(kwargs):
        value = kwargs[key]
        if value is None or isinstance(value, (bool, int, float, str)):
            normalized[key] = value
        else:
            normalized[key] = repr(value)
    return normalized


def scheme_campaign_key(
    scheme: str,
    workload: Any,
    golden: Any,
    access_model: Any,
    vdd: float,
    frequency: float,
    runs: int,
    seed_base: int,
    runner_kwargs: Mapping[str, Any],
) -> PointKey:
    """Key of one full (scheme, vdd) platform campaign."""
    vdd = validate_vdd(vdd, "scheme_campaign_key")
    return PointKey.from_provenance(
        "scheme-campaign",
        {
            "scheme": scheme,
            "workload": workload_fingerprint(workload),
            "golden": golden_fingerprint(golden),
            "access_model": access_model_provenance(access_model),
            "vdd": float(vdd),
            "frequency": float(frequency),
            "runs": int(runs),
            "seed_base": int(seed_base),
            "runner_kwargs": _normalize_kwargs(runner_kwargs),
        },
    )


def campaign_task_key(
    campaign: PointKey, first_seed: int, count: int
) -> PointKey:
    """Key of one task of a scheme campaign: a block of seeded runs.

    The task covers seeds ``first_seed .. first_seed + count - 1``.  Its
    provenance is the ``campaign`` key's minus ``runs`` and
    ``seed_base``, so a task keeps its key when the campaign around it
    grows: an extended campaign reuses every block an earlier one
    completed.
    """
    provenance = campaign.provenance()
    for field in ("kind", "schema", "runs", "seed_base"):
        del provenance[field]
    provenance["first_seed"] = int(first_seed)
    provenance["count"] = int(count)
    return PointKey.from_provenance("campaign-task", provenance)


def fig5_point_key(
    access_model: Any,
    vdd: float,
    accesses: int,
    bits: int,
    seed: int,
    index: int,
) -> PointKey:
    """Key of one Fig. 5 access-BER grid point.

    The child stream is ``default_rng((seed, index))``, so the point is
    keyed by the master seed and its grid index — not by the voltage's
    position in any particular sweep request.
    """
    vdd = validate_vdd(vdd, "fig5_point_key")
    (key,) = fig5_point_keys(access_model, accesses, bits, seed,
                             [(index, vdd)])
    return key


#: Stand-ins for the per-point fields while a grid's shared text is
#: encoded; no real provenance field holds either, and neither needs
#: escaping in JSON.
_INDEX_MARK, _VDD_MARK = "<index>", "<vdd>"


def fig5_point_keys(
    access_model: Any,
    accesses: int,
    bits: int,
    seed: int,
    points: Iterable[Tuple[int, float]],
) -> List[PointKey]:
    """Keys of Fig. 5 grid points, one per ``(index, vdd)`` in ``points``.

    The provenance fields a grid's points share (access model,
    accesses, bits, seed) are encoded once; each point formats only its
    index and voltage into that canonical text, byte for byte as
    :func:`canonical_json` would.
    """
    text = PointKey.from_provenance(
        "fig5-point",
        {
            "access_model": access_model_provenance(access_model),
            "accesses": int(accesses),
            "bits": int(bits),
            "seed": int(seed),
            "index": _INDEX_MARK,
            "vdd": _VDD_MARK,
        },
    ).provenance_json
    # Sorted keys put "index" before "vdd".
    head, _, rest = text.partition(f'"{_INDEX_MARK}"')
    middle, _, tail = rest.partition(f'"{_VDD_MARK}"')
    return [
        PointKey(
            kind="fig5-point",
            provenance_json=(
                f"{head}{int(index)!r}{middle}"
                f"{validate_vdd(vdd, 'fig5_point_key')!r}{tail}"
            ),
        )
        for index, vdd in points
    ]


def retention_die_key(
    base_retention: Any,
    access_model: Any,
    words: int,
    bits: int,
    seed: int,
    n_dies: int,
    die_sigma_v: float,
    die_index: int,
    voltages: "np.ndarray",
) -> PointKey:
    """Key of one Fig. 4 die.

    The die's offset and child seed both derive from the master stream
    sequentially over all ``n_dies``, so the key includes the master
    seed, the population size and sigma, and the die's index — plus the
    voltage grid digest, because the stored payload is the per-voltage
    failing-bit count vector.
    """
    grid = np.ascontiguousarray(np.asarray(voltages, dtype=float))
    return PointKey.from_provenance(
        "fig4-die",
        {
            "retention": repr(base_retention),
            "access_model": access_model_provenance(access_model),
            "words": int(words),
            "bits": int(bits),
            "seed": int(seed),
            "n_dies": int(n_dies),
            "die_sigma_v": float(die_sigma_v),
            "die_index": int(die_index),
            "voltages": hashlib.sha256(grid.tobytes()).hexdigest(),
        },
    )


__all__ = [
    "KEY_SCHEMA",
    "PointKey",
    "access_model_provenance",
    "campaign_task_key",
    "canonical_json",
    "fig5_point_key",
    "fig5_point_keys",
    "fingerprint_payload",
    "golden_fingerprint",
    "retention_die_key",
    "scheme_campaign_key",
    "workload_fingerprint",
]
