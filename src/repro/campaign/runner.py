"""Single-host campaign execution over forked workers.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into
finished :class:`~repro.campaign.store.JobRecord` rows.  It is a thin
front end over the one local transport,
:func:`repro.cluster.service.run_cluster`: the campaign's scheduler
(:class:`repro.cluster.scheduler.ClusterScheduler`) runs in this
process, and ``workers`` cluster workers forked from it lease jobs,
run them with :func:`repro.campaign.executor.run_attempt` and report
back over a local socket.  So the contract — **one bad job never
kills a campaign** — is the scheduler's:

- every job gets a wall-clock budget (enforced with ``SIGALRM`` inside
  the worker, so even a runaway compression loop is interrupted);
- a failed attempt is retried up to ``spec.max_retries`` times with
  exponential backoff;
- a worker killed mid-job charges that job one attempt through the
  scheduler's disconnect path, and a fresh worker is forked in its
  place;
- when retries are exhausted the failure is recorded in the store —
  with its error message — and the campaign moves on.

Workers write each ok or final-attempt record to their own
``shard-<worker_id>/`` sub-store as it lands, so an interrupt leaves a
resumable checkpoint; the shards merge into the main ``results.jsonl``
at finalize.  What stays here is the ``campaign.run`` span that roots
the campaign's trace, and the interrupt message.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs import tracectx

__all__ = ["CampaignResult", "CampaignRunner"]


@dataclass
class CampaignResult:
    """What a runner invocation did, in aggregate."""

    counts: dict = field(default_factory=dict)
    skipped: int = 0
    elapsed_seconds: float = 0.0

    def summary(self) -> str:
        """One-line human digest."""
        parts = [f"{v} {k}" for k, v in sorted(self.counts.items())]
        if self.skipped:
            parts.append(f"{self.skipped} skipped (already recorded)")
        return (
            f"campaign: {', '.join(parts) or 'nothing to do'} "
            f"in {self.elapsed_seconds:.2f}s"
        )


class CampaignRunner:
    """Drives one campaign to completion against a result store.

    Args:
        spec: the campaign to run.
        store: where records and the manifest live.
        workers: worker processes to fork.
        on_event: optional callback receiving human-readable progress
            lines (the CLI prints them).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        workers: int = 1,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = max(1, workers)
        self._on_event = on_event

    def run(self, resume: bool = False) -> CampaignResult:
        """Execute every job that has no record yet; return aggregate
        counts.  With ``resume`` an existing campaign directory is
        continued instead of rejected."""
        # Imported on first run, not with repro.campaign: asyncio and
        # the engine cost tens of ms to import, which every `repro`
        # command would otherwise pay at start-up.
        from repro.cluster.service import run_cluster

        start = time.monotonic()
        if obs.enabled():
            # The campaign span and every job span join this trace.
            tracectx.begin_trace()
        with obs.span(
            "campaign.run",
            campaign=self.spec.name,
            experiment=self.spec.experiment,
            workers=self.workers,
        ) as run_span:
            try:
                outcome = run_cluster(
                    self.spec,
                    self.store.root,
                    workers=self.workers,
                    resume=resume,
                    obs_sink=obs.sink_path(),
                    on_event=self._on_event,
                    deadline_seconds=None,
                )
            except KeyboardInterrupt:
                # Every finished job is already checkpointed in its
                # worker's shard, so `campaign resume` skips it and
                # merges it at finalize.
                obs.log("warning", "campaign interrupted", campaign=self.spec.name)
                if self._on_event is not None:
                    self._on_event(
                        f"interrupted: finished jobs are checkpointed; "
                        f"continue with `campaign resume {self.store.root}`"
                    )
                raise
            finally:
                obs.flush()
            counts = outcome["counts"]
            skipped = counts.pop("skipped", 0)
            run_span.note(jobs=sum(counts.values()))

        return CampaignResult(
            counts=counts,
            skipped=skipped,
            elapsed_seconds=time.monotonic() - start,
        )
