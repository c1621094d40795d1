"""Single-host campaign execution over a process pool.

The runner turns a :class:`~repro.campaign.spec.CampaignSpec` into
finished :class:`~repro.campaign.store.JobRecord` rows.  It is a thin
transport for the one campaign engine,
:class:`repro.cluster.scheduler.ClusterScheduler`, driven in-process:
each ``ProcessPoolExecutor`` slot is a registered scheduler worker that
leases a job, runs it with :func:`repro.campaign.executor.run_attempt`
and reports the outcome back.  So the contract — **one bad job never
kills a campaign** — is the scheduler's:

- every job gets a wall-clock budget (enforced with ``SIGALRM`` inside
  the worker, so even a runaway compression loop is interrupted);
- a failed attempt is retried up to ``spec.max_retries`` times with
  exponential backoff;
- a worker-process *crash* breaks the whole pool; every in-flight slot
  is charged one attempt through the scheduler's disconnect path and
  the pool is rebuilt;
- when retries are exhausted the failure is recorded in the store —
  with its error message — and the campaign moves on.

What stays here is transport: the parent process appends each ok or
final-attempt record to the main ``results.jsonl`` as it lands (so an
interrupt leaves a resumable checkpoint), and the ``campaign.run``
span roots the campaign's trace.  The ``executor_factory`` argument
swaps in :class:`InProcessExecutor` so the whole machinery (including
retries, timeouts and simulated crashes) runs single-process and fast
under test.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.campaign.executor import attempt_record, run_attempt
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.obs import tracectx

if TYPE_CHECKING:
    from repro.cluster.scheduler import CampaignExec, ClusterScheduler

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
        workers: parallel worker processes (ignored by a custom
            single-slot executor only in that submissions serialise).
        executor_factory: zero-arg callable building an executor; the
            default builds a ``ProcessPoolExecutor(workers)``.  Pass
            ``InProcessExecutor`` for in-process runs.
        on_event: optional callback receiving human-readable progress
            lines (the CLI prints them).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        workers: int = 1,
        executor_factory: Optional[Callable[[], object]] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.workers = max(1, workers)
        self._factory = executor_factory or (
            lambda: ProcessPoolExecutor(max_workers=self.workers)
        )
        self._on_event = on_event

    def _emit(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def run(self, resume: bool = False) -> CampaignResult:
        """Execute every job that has no record yet; return aggregate
        counts.  With ``resume`` an existing campaign directory is
        continued instead of rejected."""
        # Imported on first run, not with repro.campaign: the engine's
        # dataclasses cost ~15 ms to build, which every `repro` command
        # would otherwise pay at start-up.
        from repro.cluster.scheduler import ClusterScheduler

        start = time.monotonic()
        scheduler = ClusterScheduler(on_event=self._on_event)
        slots = [f"slot{i}" for i in range(self.workers)]
        for slot in slots:
            scheduler.register_worker(slot, pid=os.getpid())
        if obs.enabled():
            # The campaign span and every job span join this trace.
            tracectx.begin_trace()
        with obs.span(
            "campaign.run",
            campaign=self.spec.name,
            experiment=self.spec.experiment,
            workers=self.workers,
        ) as run_span:
            exec_ = scheduler.campaigns[
                scheduler.submit(self.spec, self.store.root, resume=resume)
            ]
            run_span.note(jobs=exec_.queue.pending_count)
            self._executor = self._factory()
            try:
                self._drive(scheduler, exec_, slots)
            except KeyboardInterrupt:
                # Every finished job is already checkpointed (the store
                # flushes per record), so `campaign resume` picks up
                # cleanly at the first unrecorded job.  Cancel what we
                # can and let the interrupt propagate.
                done = sum(exec_.counts.values())
                obs.log(
                    "warning",
                    "campaign interrupted",
                    campaign=self.spec.name,
                    records_checkpointed=done + exec_.skipped,
                    pending=exec_.queue.pending_count + exec_.queue.leased_count,
                )
                self._emit(
                    f"interrupted: {done} records checkpointed this run; "
                    f"continue with `campaign resume {self.store.root}`"
                )
                self._shutdown_quietly()
                raise
            finally:
                self._executor.shutdown(wait=True)
                obs.flush()

        return CampaignResult(
            counts=dict(exec_.counts),
            skipped=exec_.skipped,
            elapsed_seconds=time.monotonic() - start,
        )

    def _drive(
        self, scheduler: ClusterScheduler, exec_: CampaignExec, slots: list
    ) -> None:
        """Lease to free slots and settle outcomes until the scheduler
        finalizes the campaign."""
        crash_isolated = getattr(self._executor, "supports_crash_isolation", True)
        in_flight: dict = {}  # future -> (slot, lease message)
        while scheduler.active():
            busy = {slot for slot, _ in in_flight.values()}
            free = [slot for slot in slots if slot not in busy]
            while free:
                message = scheduler.request_lease(free[0])
                if message is None:
                    break
                payload = message["payload"]
                payload["trace"] = message.get("trace")
                if "inject_mode" in payload:
                    payload["allow_hard_crash"] = crash_isolated
                try:
                    future = self._executor.submit(run_attempt, payload)
                except BrokenExecutor:
                    # The pool was already dead; this attempt never ran,
                    # so it goes back uncharged.
                    exec_.queue.unlease(message["job_id"])
                    self._rebuild(scheduler, in_flight)
                    break
                in_flight[future] = (free.pop(0), message)
            if not in_flight:
                time.sleep(scheduler.next_eligible_in() or 0.0)
                continue
            # With a free slot, wake when the next backoff expires.
            finished, _ = wait(
                in_flight,
                timeout=scheduler.next_eligible_in() if free else None,
                return_when=FIRST_COMPLETED,
            )
            broke = False
            for future in finished:
                try:
                    outcome = future.result()
                except BrokenExecutor:
                    broke = True
                    continue
                slot, message = in_flight.pop(future)
                if outcome.ok or message["final"]:
                    self.store.append(
                        attempt_record(message["payload"], message["trial"], outcome)
                    )
                scheduler.handle_result(
                    slot,
                    {
                        "campaign_id": message["campaign_id"],
                        "job_id": message["job_id"],
                        **outcome.result_fields(),
                    },
                )
            if broke:
                self._rebuild(scheduler, in_flight)

    def _rebuild(self, scheduler: ClusterScheduler, in_flight: dict) -> None:
        """A worker died and took the pool with it: the scheduler
        charges every in-flight slot one attempt (its disconnect path),
        then a fresh pool takes over."""
        for slot, _ in in_flight.values():
            scheduler.disconnect_worker(slot)
            scheduler.register_worker(slot, pid=os.getpid())
        in_flight.clear()
        obs.counter_add("campaign.pool_rebuilds")
        self._emit("worker pool broke (crashed worker); rebuilding pool")
        self._shutdown_quietly()
        self._executor = self._factory()

    def _shutdown_quietly(self) -> None:
        try:
            self._executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 — a broken pool may refuse shutdown
            pass
