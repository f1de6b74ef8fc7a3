"""Simulation-as-a-service: a job-queue-backed campaign server with caching.

The production story for a classroom of thousands: instead of every student
paying for their own run of the same preset, a long-lived
:class:`CampaignService` accepts scenario/campaign specs as JSON, keys each
submission by a canonical content hash (:mod:`repro.service.hashing`),
executes unique work once on a pool of persistent worker processes with
explicit job states, bounded crash retries and a progress journal
(:mod:`repro.service.jobs`), and serves repeats bit-identically from a
content-addressed result cache (:mod:`repro.service.cache`)::

    from repro.service import CampaignService

    with CampaignService("service-home", workers=4) as service:
        receipt = service.submit({"preset": "fed_rebalance"})
        job = service.wait(receipt.job_id)
        print(service.summary(receipt.job_id).completion_rate)

The CLI front-end is the ``e2c-sim serve`` / ``e2c-sim submit`` pair (a
filesystem spool transport over this same façade).
"""

from .api import CampaignService, SubmitReceipt
from .cache import ResultCache
from .hashing import (
    canonical_dumps,
    canonical_hash,
    canonical_json,
    normalize_request,
    request_key,
)
from .jobs import Job, JobQueue, JobState, execute_request

__all__ = [
    "CampaignService",
    "SubmitReceipt",
    "ResultCache",
    "JobQueue",
    "Job",
    "JobState",
    "execute_request",
    "canonical_json",
    "canonical_dumps",
    "canonical_hash",
    "normalize_request",
    "request_key",
]
