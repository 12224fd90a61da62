"""Per-tenant fair-share accounting with simulated-time decay.

Production batch systems (Slurm's fair-tree, Balsam's per-user queues)
keep multi-tenant machines honest with two opposing forces:

* **usage decay** — a tenant's consumed node-seconds count against its
  future priority, but the debt *decays* (half-life ``half_life``
  simulated seconds), so yesterday's hero run doesn't starve today's
  small job forever;
* **aging** — a waiting job's priority grows linearly with queue time,
  so no job waits unboundedly behind a stream of higher-priority work.

The effective priority is

    base + age_weight * (now - submit) - share_weight * usage / usage_norm

and because the age term is unbounded while the share penalty is always
``>= 0`` and base priorities live in a bounded band, every job's
effective priority eventually exceeds any freshly-submitted competitor's
— the structural no-starvation property the hypothesis suite pins down
(:func:`FairShareLedger.starvation_bound`).

Decay is applied lazily: usage is stored with its last-update timestamp
and scaled by ``0.5 ** (dt / half_life)`` on read — no clocks, no
per-tick sweeps, bit-reproducible.
"""

from __future__ import annotations

from repro.service.job import Job


class FairShareError(ValueError):
    """Invalid ledger configuration."""


class FairShareLedger:
    """Decayed per-tenant usage and the priority ordering built on it."""

    def __init__(self, *, half_life: float = 600.0, share_weight: float = 1.0,
                 age_weight: float = 0.05, usage_norm: float = 100.0) -> None:
        if half_life <= 0:
            raise FairShareError("half_life must be positive")
        if share_weight < 0 or age_weight < 0:
            raise FairShareError("weights must be non-negative")
        if age_weight == 0:
            raise FairShareError(
                "age_weight must be positive: aging is the no-starvation "
                "guarantee, not an optional nicety")
        if usage_norm <= 0:
            raise FairShareError("usage_norm must be positive")
        self.half_life = float(half_life)
        self.share_weight = float(share_weight)
        self.age_weight = float(age_weight)
        self.usage_norm = float(usage_norm)
        self._usage: dict[str, tuple[float, float]] = {}  # tenant -> (value, t)

    # -- usage ---------------------------------------------------------------

    def usage(self, tenant: str, now: float) -> float:
        """The tenant's decayed node-seconds of accumulated usage."""
        entry = self._usage.get(tenant)
        if entry is None:
            return 0.0
        value, t = entry
        dt = max(now - t, 0.0)
        return value * 0.5 ** (dt / self.half_life)

    def charge(self, tenant: str, node_seconds: float, now: float) -> None:
        """Bill *node_seconds* of machine time to *tenant* at time *now*."""
        if node_seconds < 0:
            raise FairShareError("cannot charge negative usage")
        self._usage[tenant] = (self.usage(tenant, now) + node_seconds, now)

    # -- ordering ------------------------------------------------------------

    def effective_priority(self, job: Job, now: float) -> float:
        age = max(now - job.submit_time, 0.0)
        share = self.usage(job.tenant, now) / self.usage_norm
        return (float(job.priority) + self.age_weight * age
                - self.share_weight * share)

    def order_key(self, job: Job, now: float) -> tuple:
        """Deterministic total order: effective priority, then FIFO.

        ``job_id`` breaks exact ties (ids are assigned in submission
        order), so the queue order is a pure function of its contents —
        never of dict iteration or sort instability.
        """
        return (-self.effective_priority(job, now), job.submit_time,
                job.job_id)

    def starvation_bound(self, priority_span: float) -> float:
        """Waiting time after which a job outranks ANY fresh competitor.

        A job aged ``T`` has effective priority at least
        ``base_min + age_weight * T``; a fresh job at most ``base_max``
        (its share penalty only subtracts).  With *priority_span* =
        ``base_max - base_min``, ``T > span / age_weight`` guarantees the
        old job sorts first — the bound the property test checks.
        """
        if priority_span < 0:
            raise FairShareError("priority span must be non-negative")
        return priority_span / self.age_weight
