"""Fault tolerance for the execution stack (DESIGN.md §11).

Three pieces:

* :class:`RetryPolicy` — declarative recovery knobs (per-launch retries
  with capped exponential backoff, a per-job failure budget, a hang
  deadline) that a ``SolveService`` (its ``retry`` argument or its
  default config's ``retry_policy``) hands to its fleet lanes;
* :class:`FailureReport` — the structured record a job fails with once
  recovery is exhausted;
* :mod:`repro.resilience.chaos` — deterministic, seed-driven fault
  injection behind env/config flags, powering ``tests/resilience`` and
  the CI chaos job.
"""

from repro.resilience.chaos import ChaosConfig, ChaosError, ChaosInjector
from repro.resilience.policy import FailureReport, RetryPolicy

__all__ = [
    "ChaosConfig",
    "ChaosError",
    "ChaosInjector",
    "FailureReport",
    "RetryPolicy",
]
