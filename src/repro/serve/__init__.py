"""Campaign-as-a-service: crash-safe asyncio job server + client.

See :mod:`repro.serve.server` for the HTTP surface,
:mod:`repro.serve.durability` for the job records, the journal and the
cross-process claims that make restarts lossless,
:mod:`repro.serve.client` for the retrying client, and
:mod:`repro.store` for the content-addressed store everything is
served from.
"""

from repro.serve.client import (
    JobFailedError,
    ServeClient,
    ServeClientError,
    ServerUnavailableError,
)
from repro.serve.durability import (
    Job,
    JobClaims,
    JobJournal,
    replay_jobs,
)
from repro.serve.server import (
    CampaignJobServer,
    RequestError,
    ServerThread,
    normalize_spec,
    spec_fingerprint,
)

__all__ = [
    "CampaignJobServer",
    "Job",
    "JobClaims",
    "JobFailedError",
    "JobJournal",
    "RequestError",
    "ServeClient",
    "ServeClientError",
    "ServerThread",
    "ServerUnavailableError",
    "normalize_spec",
    "replay_jobs",
    "spec_fingerprint",
]
