"""One job attempt, executed wherever the work landed.

This is the execution core of the one campaign engine
(:class:`repro.cluster.scheduler.ClusterScheduler`): every cluster
worker — forked by ``campaign run``/``cluster run`` or started as
``repro cluster worker`` — calls :func:`run_attempt` on the payload
its lease carries, and the store record of a finished attempt comes
from :func:`attempt_record`.  Keeping it in one module is what makes
the determinism contract cheap to state: a job's metrics are a pure
function of ``(experiment, params, seed)``, so the same payload yields
bit-identical metrics no matter which worker ran it.

The payload is a plain JSON-able (wire-encodable) dict:

``job_id, experiment, params, seed, attempt, timeout_seconds`` plus the
optional fault-injection field ``inject_mode`` and an optional
``trace`` field — an obs trace context
(:func:`repro.obs.tracectx.wire_context`) adopted for the duration of
the attempt, so the job's spans parent to the campaign span of
whichever process scheduled it.  ``trace`` never reaches the
experiment function: metrics stay a pure function of
``(experiment, params, seed)``.
"""

from __future__ import annotations

import signal
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.campaign.store import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    JobRecord,
)


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock budget."""


class WorkerCrash(Exception):
    """A crash forced by the spec's fault-injection drill, recorded as
    ``crashed`` (the worker survives; ``cluster run
    --drill-kill-worker`` exercises real worker death)."""


class InjectedFailure(Exception):
    """A failure forced by the spec's fault-injection drill."""


def alarm_supported() -> bool:
    """Whether this platform can enforce per-job wall-clock budgets
    (``SIGALRM`` exists — Windows and some embedded Pythons lack it).
    Split out so tests can stub the no-SIGALRM path."""
    return hasattr(signal, "SIGALRM")


def execute_payload(payload: dict) -> dict:
    """Run one job attempt inside a worker process."""
    inject_mode = payload.get("inject_mode")
    if inject_mode == "crash":
        raise WorkerCrash("injected worker crash")
    if inject_mode == "exception":
        raise InjectedFailure(
            f"injected failure (attempt {payload['attempt']})"
        )

    from repro.campaign.experiments import get_experiment

    fn = get_experiment(payload["experiment"])
    timeout = payload.get("timeout_seconds")
    use_alarm = (
        timeout is not None
        and alarm_supported()
        and threading.current_thread() is threading.main_thread()
    )

    def _on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {timeout}s budget")

    from repro.obs import tracectx

    start = time.perf_counter()
    if use_alarm:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        with tracectx.adopted(payload.get("trace")), obs.span(
            "campaign.job",
            job_id=payload.get("job_id"),
            experiment=payload["experiment"],
            attempt=payload["attempt"],
        ):
            metrics = fn(payload["params"], payload["seed"])
        if isinstance(metrics, dict):
            # Stream the job's numeric metrics into the sink so `repro
            # obs watch` can roll them live and the store's diag.json
            # timeseries has per-job points.  Reads the dict only —
            # the non-perturbation invariant holds.
            obs.publish_metrics(
                "campaign.job",
                metrics,
                job_id=payload.get("job_id"),
                experiment=payload["experiment"],
            )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        # Workers outlive jobs, and a killed one runs no exit hooks;
        # snapshots are cumulative per pid, so
        # flushing after every job keeps the sink's last-per-pid merge
        # correct without double counting.
        obs.flush()
    if not isinstance(metrics, dict):
        raise TypeError(
            f"experiment {payload['experiment']!r} returned "
            f"{type(metrics).__name__}, expected a metrics dict"
        )
    return {
        "metrics": metrics,
        "duration": time.perf_counter() - start,
        # None: no budget requested; False: budget silently unenforceable
        # on this platform/thread — the record and the scheduler's
        # one-time warning surface it.
        "timeout_enforced": use_alarm if timeout is not None else None,
    }


def classify_failure(exc: BaseException) -> tuple[str, str]:
    """Map an attempt's exception to a ``(status, error)`` pair."""
    if isinstance(exc, JobTimeout):
        return STATUS_TIMEOUT, str(exc)
    if isinstance(exc, WorkerCrash):
        return STATUS_CRASHED, str(exc)
    return STATUS_FAILED, f"{type(exc).__name__}: {exc}"


@dataclass
class AttemptOutcome:
    """What one in-worker attempt produced, exception-free.

    ``status`` is one of the store's ``STATUS_*`` constants; ``metrics``
    is populated only on success.
    """

    status: str
    duration: float
    metrics: Optional[dict] = None
    error: Optional[str] = None
    timeout_enforced: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """Whether the attempt produced usable metrics."""
        return self.status == STATUS_OK

    def result_fields(self) -> dict:
        """The outcome half of a scheduler ``result`` message (unset
        optional fields left out)."""
        fields = {"status": self.status, "duration": self.duration}
        if self.error is not None:
            fields["error"] = self.error
        if self.timeout_enforced is not None:
            fields["timeout_enforced"] = self.timeout_enforced
        return fields


def run_attempt(payload: dict) -> AttemptOutcome:
    """Execute one attempt and fold any failure into the outcome.

    ``KeyboardInterrupt`` and ``SystemExit`` still propagate — a worker
    being told to die is not a job failure.
    """
    start = time.perf_counter()
    try:
        out = execute_payload(payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 — any job error is a job failure
        status, error = classify_failure(exc)
        enforced: Optional[bool] = None
        if payload.get("timeout_seconds") is not None and not alarm_supported():
            enforced = False
        return AttemptOutcome(
            status=status,
            duration=time.perf_counter() - start,
            error=error,
            timeout_enforced=enforced,
        )
    return AttemptOutcome(
        status=STATUS_OK,
        duration=out["duration"],
        metrics=out["metrics"],
        timeout_enforced=out["timeout_enforced"],
    )


def attempt_record(payload: dict, trial: int, outcome: AttemptOutcome) -> JobRecord:
    """The store record of one terminal attempt (ok, or the final
    failure) — the single place an attempt becomes a ``JobRecord``."""
    return JobRecord(
        job_id=payload["job_id"],
        experiment=payload["experiment"],
        params=payload["params"],
        trial=trial,
        seed=payload["seed"],
        status=outcome.status,
        attempts=int(payload.get("attempt", 0)) + 1,
        duration_seconds=outcome.duration,
        metrics=outcome.metrics,
        error=outcome.error,
        timeout_enforced=outcome.timeout_enforced,
    )

