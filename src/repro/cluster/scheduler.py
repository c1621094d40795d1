"""The campaign engine: campaigns in, leases out, records merged.

:class:`ClusterScheduler` is the only place campaign execution is
decided.  It owns job expansion, the lease queue, retry with
exponential backoff, the terminal give-up, crash charging, the
once-per-campaign unenforceable-budget warning, progress lines, trace
propagation and finalize.  Its one transport,
:mod:`repro.cluster.service`, only moves payloads and outcomes over
sockets: the workers ``campaign run`` and ``cluster run`` fork, and any
``repro cluster worker`` that joins a listening run, write terminal
records to their own ``shard-<worker_id>/`` sub-store, merged at
finalize.

Crash recovery is one rule: a lease that expires or a worker whose
connection drops charges the job exactly one attempt through
:meth:`ClusterScheduler.tick` or
:meth:`ClusterScheduler.disconnect_worker`.

The class is deliberately synchronous with an injected clock, so every
failure path (lease expiry, duplicate completion, a worker dying
mid-job) unit-tests without sockets or sleeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.campaign import executor as executor_mod
from repro.campaign.executor import AttemptOutcome, attempt_record
from repro.obs import tracectx
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import STATUS_CRASHED, STATUS_OK, ResultStore
from repro.cluster.queue import Lease, LeaseQueue, QueuedJob

STATE_RUNNING = "running"
STATE_DONE = "done"

SCHEDULER_SHARD = "scheduler"


@dataclass
class WorkerInfo:
    """What the scheduler knows about one registered worker."""

    worker_id: str
    pid: int = 0
    last_seen: float = 0.0
    connected: bool = True
    jobs_done: int = 0


@dataclass
class CampaignExec:
    """One submitted campaign's execution state."""

    campaign_id: str
    spec: CampaignSpec
    store: ResultStore
    queue: LeaseQueue
    state: str = STATE_RUNNING
    counts: dict = field(default_factory=dict)
    retries: int = 0
    skipped: int = 0
    warned_unenforced: bool = False
    started_at: float = 0.0
    finished_at: Optional[float] = None
    # Trace context: the campaign's trace id, the id reserved for its
    # span and that span's parent (the span open at submit, e.g. the
    # local runner's ``campaign.run``).  The span event itself is
    # emitted at finalize (duration known); reserving the id at submit
    # lets every job message carry it, so worker spans parent to a
    # span that does not exist in any sink yet.
    trace_id: str = ""
    span_id: str = ""
    span_parent: Optional[str] = None
    span_wall: float = 0.0

    def bump(self, status: str) -> None:
        self.counts[status] = self.counts.get(status, 0) + 1

    def wire_trace(self) -> Optional[dict]:
        """The ``trace`` payload for this campaign's lease messages."""
        if not self.trace_id:
            return None
        return {"trace": self.trace_id, "parent": self.span_id or None}


class ClusterScheduler:
    """Synchronous scheduler core (transport-free, clock-injected).

    Args:
        lease_seconds: lease lifetime between heartbeats; expiry charges
            the leased job one attempt.
        heartbeat_seconds: interval workers are told to heartbeat at
            (must be comfortably under ``lease_seconds``).
        clock: monotonic time source, injected in tests.
        on_event: optional human-readable progress callback (the CLI
            prints these lines; the local runner passes its own).
    """

    def __init__(
        self,
        lease_seconds: float = 30.0,
        heartbeat_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        on_event: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.lease_seconds = lease_seconds
        self.heartbeat_seconds = heartbeat_seconds
        self.clock = clock
        self.campaigns: dict[str, CampaignExec] = {}
        self.workers: dict[str, WorkerInfo] = {}
        self._order: list[str] = []
        self._submit_seq = 0
        self._on_event = on_event

    def _emit(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    # -- campaign lifecycle ---------------------------------------------
    def submit(
        self, spec: CampaignSpec, store_root, resume: bool = False
    ) -> str:
        """Open (or resume) a campaign and queue its unfinished jobs.

        Inherits the store's spec-hash check: submitting a spec against
        a directory holding a different campaign raises
        :class:`repro.campaign.store.SpecMismatchError`.
        """
        store = ResultStore(store_root)
        store.open_campaign(spec, resume=resume)
        all_jobs = spec.jobs()
        # Records may still be sitting un-merged in shards from an
        # earlier scheduler that died before finalize — resume must not
        # re-run those jobs (and merge will reconcile them).
        done_ids = store.completed_ids(include_shards=True)
        now = self.clock()
        pending = [
            QueuedJob(job=job, position=position, enqueued_at=now)
            for position, job in enumerate(all_jobs)
            if job.job_id not in done_ids
        ]
        self._submit_seq += 1
        campaign_id = f"c{self._submit_seq}-{spec.name}"
        queue = LeaseQueue(
            jobs=pending,
            max_retries=spec.max_retries,
            retry_backoff=spec.retry_backoff,
            lease_seconds=self.lease_seconds,
            clock=self.clock,
        )
        exec_ = CampaignExec(
            campaign_id=campaign_id,
            spec=spec,
            store=store,
            queue=queue,
            skipped=len(all_jobs) - len(pending),
            started_at=self.clock(),
        )
        if obs.enabled():
            # One trace per campaign; join the process trace if the
            # scheduler runs inside one (the runner's campaign.run).
            exec_.trace_id = (
                tracectx.current_trace_id() or tracectx.new_trace_id()
            )
            exec_.span_id = obs.new_span_id()
            exec_.span_parent = tracectx.current_parent()
            exec_.span_wall = time.time()
        self.campaigns[campaign_id] = exec_
        self._order.append(campaign_id)
        obs.counter_add("cluster.campaigns_submitted")
        obs.observe("cluster.queue_depth", len(pending))
        obs.log(
            "info",
            "campaign started",
            campaign=spec.name,
            campaign_id=campaign_id,
            experiment=spec.experiment,
            jobs=len(pending),
            workers=len([w for w in self.workers.values() if w.connected]),
        )
        self._emit(
            f"submitted {campaign_id}: {len(pending)} jobs "
            f"({exec_.skipped} already recorded)"
        )
        if not pending:
            self._finalize(exec_)
        return campaign_id

    def _finalize(self, exec_: CampaignExec) -> None:
        """Merge shards into the main store and stamp the manifest —
        after this, ``campaign report``/``diag``/``obs`` read the merged
        directory exactly as they read a single-host run's."""
        # Merge/finalize spans attach under the campaign span (managed
        # manually, so it is never on this thread's stack).
        with tracectx.adopted(exec_.wire_trace()):
            merged = exec_.store.merge_shards()
            counts = dict(exec_.counts)
            counts["skipped"] = exec_.skipped
            exec_.store.finalize(counts)
        exec_.state = STATE_DONE
        exec_.finished_at = self.clock()
        if exec_.span_id:
            obs.emit_span_event(
                "cluster.campaign",
                ts=exec_.span_wall,
                dur=max(0.0, exec_.finished_at - exec_.started_at),
                span_id=exec_.span_id,
                parent=exec_.span_parent,
                trace=exec_.trace_id,
                status="ok",
                campaign=exec_.spec.name,
                campaign_id=exec_.campaign_id,
                experiment=exec_.spec.experiment,
            )
        obs.log(
            "info",
            "campaign finalized",
            campaign_id=exec_.campaign_id,
            state=STATE_DONE,
            merged_records=merged,
            **{k: v for k, v in counts.items()},
        )
        obs.flush()
        self._emit(
            f"finalized {exec_.campaign_id}: "
            + (", ".join(f"{v} {k}" for k, v in sorted(counts.items())) or "empty")
        )

    def active(self) -> bool:
        """Whether any campaign is still running."""
        return any(
            e.state == STATE_RUNNING for e in self.campaigns.values()
        )

    # -- worker lifecycle -----------------------------------------------
    def register_worker(self, worker_id: str, pid: int = 0) -> dict:
        """Admit a worker; returns the ``registered`` message body."""
        self.workers[worker_id] = WorkerInfo(
            worker_id=worker_id, pid=pid, last_seen=self.clock()
        )
        obs.counter_add("cluster.workers_registered")
        self._emit(f"worker {worker_id} registered (pid {pid})")
        return {
            "heartbeat_seconds": self.heartbeat_seconds,
            "lease_seconds": self.lease_seconds,
        }

    def heartbeat(self, worker_id: str) -> None:
        """Refresh every lease the worker holds."""
        info = self.workers.get(worker_id)
        if info is not None:
            info.last_seen = self.clock()
        for exec_ in self.campaigns.values():
            if exec_.state == STATE_RUNNING:
                exec_.queue.heartbeat(worker_id)

    def disconnect_worker(self, worker_id: str) -> None:
        """A worker's connection dropped: its leases return to the
        queue *now* (a closed socket is proof of death — no need to
        wait out the lease)."""
        info = self.workers.get(worker_id)
        if info is None or not info.connected:
            return
        info.connected = False
        released = 0
        for exec_ in self.campaigns.values():
            if exec_.state != STATE_RUNNING:
                continue
            for lease in exec_.queue.release_worker(worker_id):
                self._charge_crash(
                    exec_,
                    lease,
                    f"worker {worker_id} disconnected mid-job",
                )
                released += 1
            if exec_.queue.drained():
                self._finalize(exec_)
        if released:
            obs.counter_add("cluster.leases_released", released)
        self._emit(
            f"worker {worker_id} disconnected ({released} leases released)"
        )

    # -- the lease/result plane -----------------------------------------
    def request_lease(self, worker_id: str) -> Optional[dict]:
        """Hand the next eligible job to ``worker_id`` as a ``job``
        message body, or ``None`` when nothing is ready."""
        info = self.workers.get(worker_id)
        if info is not None:
            info.last_seen = self.clock()
        for campaign_id in self._order:
            exec_ = self.campaigns[campaign_id]
            if exec_.state != STATE_RUNNING:
                continue
            lease = exec_.queue.lease(worker_id)
            if lease is None:
                continue
            if obs.enabled():
                if lease.queued.enqueued_at:
                    obs.observe(
                        "cluster.lease_wait_seconds",
                        max(0.0, lease.issued_at - lease.queued.enqueued_at),
                    )
                obs.observe(
                    "cluster.queue_depth",
                    exec_.queue.pending_count + exec_.queue.leased_count,
                )
            return self._job_message(exec_, lease)
        return None

    def next_eligible_in(self) -> Optional[float]:
        """Seconds until the soonest retry backoff among running
        campaigns expires (``None`` when nothing is pending) — when a
        parked lease request can next be served."""
        waits = [
            exec_.queue.next_eligible_in()
            for exec_ in self.campaigns.values()
            if exec_.state == STATE_RUNNING
        ]
        return min((w for w in waits if w is not None), default=None)

    def _payload(self, exec_: CampaignExec, queued: QueuedJob) -> dict:
        """The :mod:`repro.campaign.executor` payload of one attempt."""
        job = queued.job
        payload = {
            "job_id": job.job_id,
            "experiment": job.experiment,
            "params": job.params_dict(),
            "seed": job.seed,
            "timeout_seconds": exec_.spec.timeout_seconds,
            "attempt": queued.attempt,
        }
        inject = exec_.spec.inject_failures
        if inject is not None and inject.applies_to(
            job, queued.position, queued.attempt
        ):
            payload["inject_mode"] = inject.mode
        return payload

    def _job_message(self, exec_: CampaignExec, lease: Lease) -> dict:
        queued = lease.queued
        job = queued.job
        message = {
            "campaign_id": exec_.campaign_id,
            "lease_id": lease.lease_id,
            "job_id": job.job_id,
            "trial": job.trial,
            "payload": self._payload(exec_, queued),
            "final": exec_.queue.is_final_attempt(queued),
            "store_root": str(exec_.store.root),
        }
        trace = exec_.wire_trace()
        if trace is not None:
            message["trace"] = trace
        return message

    def handle_result(self, worker_id: str, message: dict) -> None:
        """Consume one worker ``result``; stale completions (lease
        already rescheduled / campaign gone) are no-ops — the record
        the worker wrote is reconciled by dedupe at merge time."""
        exec_ = self.campaigns.get(message.get("campaign_id", ""))
        if exec_ is None or exec_.state != STATE_RUNNING:
            obs.counter_add("cluster.results_stale")
            return
        job_id = message.get("job_id", "")
        queued = exec_.queue.resolve(job_id, worker_id)
        if queued is None:
            obs.counter_add("cluster.results_stale")
            return
        obs.counter_add("campaign.attempts")
        if message.get("timeout_enforced") is False and not exec_.warned_unenforced:
            exec_.warned_unenforced = True
            obs.warn_once(
                "campaign.timeout-unenforced",
                "per-job wall-clock budgets are not enforceable here "
                "(no SIGALRM or worker off the main thread); jobs may "
                "overrun their budget",
                timeout_seconds=exec_.spec.timeout_seconds,
            )
            self._emit(
                "warning: per-job timeout cannot be enforced on this "
                "platform (no SIGALRM); budgets are advisory"
            )
        status = message.get("status", "")
        duration = float(message.get("duration", 0.0))
        if status == STATUS_OK:
            exec_.queue.mark_done(job_id)
            exec_.bump(STATUS_OK)
            info = self.workers.get(worker_id)
            if info is not None:
                info.jobs_done += 1
            obs.counter_add("campaign.ok")
            obs.observe("campaign.job_seconds", duration)
            self._emit(
                f"ok {job_id} via {worker_id} "
                f"({duration:.2f}s, attempt {queued.attempt + 1})"
            )
        else:
            # A final failure's record is already written (the lease
            # said final=true).
            self._charge(exec_, queued, status, message.get("error"))
        if exec_.queue.drained():
            self._finalize(exec_)

    # -- failure accounting ----------------------------------------------
    def _charge(
        self,
        exec_: CampaignExec,
        queued: QueuedJob,
        status: str,
        error: Optional[str],
    ) -> None:
        """Charge one failed attempt: requeue it with backoff, or give
        up when retries are exhausted (the caller has written the
        terminal record)."""
        job_id = queued.job.job_id
        if not exec_.queue.is_final_attempt(queued):
            delay = exec_.queue.retry(queued)
            exec_.retries += 1
            obs.counter_add("campaign.retries")
            obs.observe("cluster.backoff_seconds", delay)
            self._emit(
                f"retry {job_id} (attempt {queued.attempt + 1}, "
                f"after {delay:.2f}s): {error}"
            )
            return
        exec_.queue.mark_done(job_id)
        exec_.bump(status)
        obs.counter_add(f"campaign.{status}")
        obs.log(
            "warning",
            "job gave up",
            job_id=job_id,
            status=status,
            attempts=queued.attempt + 1,
            error=error,
        )
        self._emit(
            f"gave up on {job_id} after {queued.attempt + 1} attempts: {error}"
        )

    def _timeout_enforced_hint(self, exec_: CampaignExec) -> Optional[bool]:
        if (
            exec_.spec.timeout_seconds is not None
            and not executor_mod.alarm_supported()
        ):
            return False
        return None

    def _charge_crash(
        self, exec_: CampaignExec, lease: Lease, error: str
    ) -> None:
        """Charge a dead lease one attempt; a terminal crash record goes
        to the scheduler's own shard, since no worker wrote one."""
        queued = lease.queued
        obs.counter_add("campaign.attempts")
        if exec_.queue.is_final_attempt(queued):
            outcome = AttemptOutcome(
                status=STATUS_CRASHED,
                duration=max(0.0, self.clock() - lease.issued_at),
                error=error,
                timeout_enforced=self._timeout_enforced_hint(exec_),
            )
            shard = exec_.store.shard_store(SCHEDULER_SHARD)
            shard.root.mkdir(parents=True, exist_ok=True)
            shard.append(
                attempt_record(
                    self._payload(exec_, queued), queued.job.trial, outcome
                )
            )
        self._charge(exec_, queued, STATUS_CRASHED, error)

    def tick(self) -> int:
        """Periodic housekeeping: expire overdue leases (heartbeat
        loss ⇒ crash recovery) and finalize drained campaigns.  Returns
        how many leases expired."""
        expired = 0
        for exec_ in list(self.campaigns.values()):
            if exec_.state != STATE_RUNNING:
                continue
            for lease in exec_.queue.expire():
                expired += 1
                obs.counter_add("cluster.leases_expired")
                self._charge_crash(
                    exec_,
                    lease,
                    f"lease expired (worker {lease.worker_id} "
                    f"missed heartbeats)",
                )
            if exec_.queue.drained():
                self._finalize(exec_)
        return expired
