"""The one campaign engine: ``campaign run`` and ``cluster run`` share
the scheduler's accounting, counters, warnings and trace tree.

Covers what only exists because both front ends drive
:class:`repro.cluster.scheduler.ClusterScheduler` over forked workers:
the counters `obs watch` reads, the once-per-campaign
unenforceable-budget warning, the local run's single connected trace,
the respawn of a worker killed mid-campaign, and the import weight of
``campaign run``.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    get_experiment,
    metrics_digest,
    register_experiment,
)
from repro.campaign.spec import FaultInjection
from repro.campaign.store import JobRecord
from repro.cluster.scheduler import STATE_DONE, ClusterScheduler
from repro.obs.report import trace_summary
from repro.obs.watch import WatchState

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@register_experiment("engine_echo")
def _echo(params: dict, seed: int) -> dict:
    return {"value": params.get("x", 0) * 3, "seed_mod": seed % 89}


def _result(message: dict, status: str, **extra) -> dict:
    return {
        "campaign_id": message["campaign_id"],
        "job_id": message["job_id"],
        "status": status,
        "duration": 0.01,
        **extra,
    }


class TestSchedulerCounters:
    def test_watch_sees_the_retry_of_a_cluster_run(self, tmp_path):
        """`obs watch` reads `campaign.attempts`; the scheduler used to
        count `cluster.attempts`, so cluster runs showed 0 retried."""
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        scheduler = ClusterScheduler()
        spec = CampaignSpec(
            name="retry-once",
            experiment="engine_echo",
            grid={"x": [1]},
            max_retries=1,
            retry_backoff=0.0,
        )
        scheduler.submit(spec, tmp_path / "c")
        scheduler.register_worker("w0")
        first = scheduler.request_lease("w0")
        scheduler.handle_result("w0", _result(first, "failed", error="boom"))
        second = scheduler.request_lease("w0")
        assert second["payload"]["attempt"] == 1
        scheduler.handle_result("w0", _result(second, "ok"))
        obs.flush()

        state = WatchState()
        state.ingest(obs.load_events(str(sink)))
        progress = state.job_progress()
        assert progress["retried"] == 1
        assert progress["done"] == 1
        assert progress["attempts"] == 2

    def test_unenforced_budget_warns_once_per_campaign(self, tmp_path):
        events = []
        scheduler = ClusterScheduler(on_event=events.append)
        spec = CampaignSpec(
            name="noalarm",
            experiment="engine_echo",
            grid={"x": [1, 2, 3]},
            timeout_seconds=5.0,
        )
        scheduler.submit(spec, tmp_path / "c")
        scheduler.register_worker("w0")
        for _ in range(3):
            message = scheduler.request_lease("w0")
            scheduler.handle_result(
                "w0", _result(message, "ok", timeout_enforced=False)
            )
        (exec_,) = scheduler.campaigns.values()
        assert exec_.state == STATE_DONE
        warnings = [e for e in events if "cannot be enforced" in e]
        assert len(warnings) == 1


@register_experiment("engine_kill_once")
def _kill_once(params: dict, seed: int) -> dict:
    """SIGKILLs its own worker while the flag file exists (consuming
    it); otherwise a pure function of ``(params, seed)``."""
    flag = params.get("flag")
    if params.get("x") == 2 and flag and os.path.exists(flag):
        os.unlink(flag)
        os.kill(os.getpid(), signal.SIGKILL)
    return {"value": params.get("x", 0) * 5, "seed_mod": seed % 83}


class TestLocalRunner:
    def test_local_trace_is_one_tree_rooted_at_campaign_run(self, tmp_path):
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        spec = CampaignSpec(
            name="traced",
            experiment="engine_echo",
            grid={"x": [1, 2, 3]},
            max_retries=1,
            retry_backoff=0.0,
            inject_failures=FaultInjection(count=1, attempts=1),
        )
        store = ResultStore(tmp_path / "traced")
        CampaignRunner(spec, store, workers=2).run()
        obs.flush()
        events = obs.load_events(str(sink))
        summary = trace_summary(events)
        assert summary["root"]["name"] == "campaign.run"
        assert summary["n_roots"] == 1
        assert summary["n_orphans"] == 0
        assert len(summary["trace_ids"]) == 1
        assert summary["compute_seconds"] > 0.0
        campaign = next(
            e for e in events
            if e.get("kind") == "span" and e.get("name") == "cluster.campaign"
        )
        assert campaign["parent"] == summary["root"]["id"]
        counters = obs.merge_events(events)["counters"]
        assert counters["campaign.attempts"] == 4
        assert counters["campaign.retries"] == 1
        assert "cluster.attempts" not in counters


    def test_killed_only_worker_is_respawned_once(self, tmp_path):
        """SIGKILL the only worker mid-job: one replacement is forked,
        the job is charged one attempt, the records digest like the
        jobs called directly, and counters count once across the fork
        and the respawn (each child starts from zero)."""
        flag = tmp_path / "kill.flag"
        flag.write_text("armed")
        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        spec = CampaignSpec(
            name="respawn",
            experiment="engine_kill_once",
            grid={"x": [1, 2, 3]},
            fixed={"flag": str(flag)},
            max_retries=1,
            retry_backoff=0.0,
        )
        events = []
        store = ResultStore(tmp_path / "respawn")
        result = CampaignRunner(
            spec, store, workers=1, on_event=events.append
        ).run()
        obs.flush()
        assert result.counts == {"ok": 3}
        assert [e for e in events if "respawned" in e] == [
            "worker w0 killed by signal 9; respawned as w1"
        ]
        records = store.load_records()
        assert {r.params["x"]: r.attempts for r in records.values()} == {
            1: 1, 2: 2, 3: 1,
        }
        fn = get_experiment(spec.experiment)
        direct = [
            JobRecord(
                job_id=job.job_id, experiment=job.experiment,
                params=job.params_dict(), trial=job.trial, seed=job.seed,
                status="ok", attempts=1, duration_seconds=0.0,
                metrics=fn(job.params_dict(), job.seed),
            )
            for job in spec.jobs()
        ]
        assert metrics_digest(records) == metrics_digest(direct)
        state = WatchState()
        state.ingest(obs.load_events(str(sink)))
        counters = state.counters()
        assert counters["cluster.campaigns_submitted"] == 1
        assert counters["cluster.workers_registered"] == 2
        assert counters["cluster.workers_respawned"] == 1
        assert counters["campaign.attempts"] == 4
        assert counters["campaign.retries"] == 1
        assert counters["campaign.ok"] == 3
        assert state.job_progress()["retried"] == 1


def test_campaign_import_leaves_asyncio_and_service_unloaded():
    """`campaign run` pays for the scheduler and queue only — never the
    asyncio socket service (guards the benchmark's `setup_s`)."""
    code = (
        "import sys\n"
        "from repro.campaign import CampaignRunner\n"
        "print('asyncio' in sys.modules, 'repro.cluster.service' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert done.stdout.split() == ["False", "False"]
