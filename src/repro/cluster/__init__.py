"""Distributed campaign execution: scheduler, worker protocol, transport.

The **scheduler** (:mod:`repro.cluster.scheduler`) is the repo's one
campaign engine: it owns job expansion, a work-stealing lease queue
with heartbeat-backed crash recovery (:mod:`repro.cluster.queue`),
retry and give-up accounting, and the shard-merge finalize.
**Workers** (:mod:`repro.cluster.worker`) own execution via the shared
:mod:`repro.campaign.executor` core and write their records to
per-worker ``shard-<id>/`` sub-stores.  The two talk a JSON-lines
protocol over TCP or a Unix socket (:mod:`repro.cluster.protocol`),
served by the asyncio shell in :mod:`repro.cluster.service`, whose
:func:`run_cluster` is the one local transport: ``repro campaign run``
and ``repro cluster run`` both fork their workers through it, and
``cluster run --listen`` lets ``repro cluster worker`` processes on
other hosts join.

The determinism contract carries over unchanged: job metrics are a
pure function of ``(experiment, params, seed)``, so the same spec
digests identically (:func:`repro.campaign.store.metrics_digest`)
whether it ran on one worker or N workers with a mid-run crash.  See
``docs/cluster.md``.

Names are exported lazily, so the socket and asyncio modules load on
first use of a name that needs them.
"""

from importlib import import_module

_EXPORTS = {
    "Endpoint": "protocol",
    "MessageStream": "protocol",
    "ProtocolError": "protocol",
    "parse_endpoint": "protocol",
    "Lease": "queue",
    "LeaseQueue": "queue",
    "QueuedJob": "queue",
    "CampaignExec": "scheduler",
    "ClusterScheduler": "scheduler",
    "WorkerInfo": "scheduler",
    "FleetExitedError": "service",
    "SchedulerServer": "service",
    "run_cluster": "service",
    "spawn_worker": "service",
    "ClusterWorker": "worker",
    "default_worker_id": "worker",
    "run_worker": "worker",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
