"""End-to-end cluster runs with real worker subprocesses.

Drills, all deadline-bounded (no fixed sleeps):

* the one-shot ``run_cluster`` path with a worker SIGKILLed mid-run —
  every job must still complete and the merged store must be
  digest-identical to a single-host run of the same spec;
* the lease plane over TCP and a Unix socket — exactly one lease
  request per attempt plus one drained request per worker (no idle
  polling);
* a remote worker — ``repro cluster worker`` joining a ``cluster run
  --listen`` scheduler next to its forked fleet.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    metrics_digest,
)
from repro.campaign.spec import FaultInjection
from repro.cluster import parse_endpoint, run_cluster

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture(autouse=True)
def worker_pythonpath(monkeypatch):
    """Worker subprocesses import repro via PYTHONPATH."""
    monkeypatch.setenv("PYTHONPATH", str(REPO / "src"))


def drill_spec(name="int-drill", retry_backoff=0.0):
    # Importable by worker subprocesses, fast, with injected failures
    # so the retry plane is exercised too.
    return CampaignSpec(
        name=name,
        experiment="lzw_recovery",
        grid={"size": [30, 40, 50]},
        trials=2,
        max_retries=2,
        retry_backoff=retry_backoff,
        inject_failures=FaultInjection(count=2, attempts=1),
    )


class TestKillDrill:
    def test_two_workers_one_killed_digest_matches_single_host(
        self, tmp_path
    ):
        """The acceptance drill: 2 workers, w0 SIGKILLed mid-run; all
        jobs complete and the metrics digest equals the single-host
        run's — crash recovery must not change a single metric byte."""
        result = run_cluster(
            drill_spec(),
            tmp_path / "cluster",
            workers=2,
            lease_seconds=10.0,
            heartbeat_seconds=0.3,
            drill_kill_worker=2,
            deadline_seconds=120.0,
        )
        assert result["state"] == "done"
        assert result["counts"]["ok"] == 6
        assert result["counts"].get("crashed", 0) == 0
        assert result["counts"].get("failed", 0) == 0

        cluster_store = ResultStore(tmp_path / "cluster")
        records = cluster_store.load_records()
        assert len(records) == 6
        assert all(record.ok for record in records.values())
        # The kill and the injected failures left retry fingerprints in
        # the wall-clock fields only.
        assert max(record.attempts for record in records.values()) >= 2

        single_store = ResultStore(tmp_path / "single")
        single = CampaignRunner(drill_spec(), single_store).run()
        assert single.counts == {"ok": 6}
        assert metrics_digest(records) == metrics_digest(
            single_store.load_records()
        )


    def test_only_worker_killed_is_respawned(self, tmp_path):
        """With one worker the drill leaves no survivor: a fresh fork
        replaces it and finishes the campaign, digest unchanged."""
        events = []
        result = run_cluster(
            drill_spec(),
            tmp_path / "cluster",
            workers=1,
            drill_kill_worker=2,
            on_event=events.append,
            deadline_seconds=120.0,
        )
        assert result["state"] == "done"
        assert result["counts"] == {"ok": 6, "skipped": 0}
        assert "worker w0 killed by signal 9; respawned as w1" in events
        records = ResultStore(tmp_path / "cluster").load_records()
        single_store = ResultStore(tmp_path / "single")
        assert CampaignRunner(drill_spec(), single_store).run().counts == {"ok": 6}
        assert metrics_digest(records) == metrics_digest(
            single_store.load_records()
        )


class TestLeasePlane:
    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_one_lease_request_per_attempt_plus_one_drain_per_worker(
        self, tmp_path, transport
    ):
        """No polling: every lease request is answered by a job or, once
        per worker, by the final drain — a retry backoff is waited out
        with the request parked, not re-asked."""
        obs.enable()
        endpoint = (
            parse_endpoint(f"unix:{tmp_path / 'sched.sock'}")
            if transport == "unix"
            else None
        )
        result = run_cluster(
            drill_spec(name="lease-count", retry_backoff=0.2),
            tmp_path / "cluster",
            workers=2,
            endpoint=endpoint,
            deadline_seconds=120.0,
        )
        assert result["state"] == "done"
        assert result["counts"]["ok"] == 6
        records = ResultStore(tmp_path / "cluster").load_records()
        attempts = sum(record.attempts for record in records.values())
        assert attempts == 6 + 2  # two injected, retried failures
        counters = obs.counters_snapshot()
        assert counters["cluster.lease_requests"] == attempts + 2


def popen_repro(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", *argv],
        env=env,
        text=True,
        **kwargs,
    )


def run_repro(*argv, timeout=60):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestRemoteWorker:
    def test_cluster_worker_joins_a_listening_run(self, tmp_path):
        """`cluster worker` (a fresh interpreter, as on another host)
        joins a `cluster run --listen` scheduler next to its one forked
        worker; both drain, and the digest matches the single-host
        run."""
        spec = CampaignSpec(
            name="remote",
            experiment="lzw_recovery",
            grid={"size": [2000, 2400]},
            trials=8,
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        sock = tmp_path / "sched.sock"
        run = popen_repro(
            "cluster", "run", str(spec_path), "--out", str(tmp_path / "out"),
            "--workers", "1", "--listen", f"unix:{sock}", "--quiet",
            "--deadline", "120",
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        worker = None
        try:
            deadline = time.monotonic() + 60.0
            while not sock.exists():
                assert run.poll() is None, run.stderr.read()
                assert time.monotonic() < deadline, "scheduler never listened"
                time.sleep(0.01)
            worker = popen_repro(
                "cluster", "worker", "--connect", f"unix:{sock}",
                "--worker-id", "remote", "--quiet",
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            assert run.wait(timeout=120) == 0, run.stderr.read()
            assert worker.wait(timeout=30) == 0, worker.stderr.read()
        finally:
            for proc in (run, worker):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)

        store = ResultStore(tmp_path / "out")
        records = store.load_records()
        assert len(records) == 16
        assert all(record.ok for record in records.values())
        remote = ResultStore(tmp_path / "out" / "shard-remote")
        assert remote.load_records(), "the remote worker ran no job"
        single_store = ResultStore(tmp_path / "single")
        assert CampaignRunner(spec, single_store).run().counts == {"ok": 16}
        assert metrics_digest(records) == metrics_digest(
            single_store.load_records()
        )


class TestTraceDrill:
    def test_kill_drill_yields_one_connected_trace_tree(self, tmp_path):
        """The tracing acceptance drill: 2 real workers sharing one obs
        sink, one SIGKILLed mid-run — scheduler, workers, and shard
        store must still stitch into a single trace tree rooted at the
        scheduler's campaign span, with zero orphans, and the merged
        events must export to valid Chrome Trace JSON."""
        from repro.obs.export import event_pid, render_chrome_trace
        from repro.obs.report import trace_summary

        sink = tmp_path / "obs.jsonl"
        obs.enable(sink_path=str(sink))
        result = run_cluster(
            drill_spec(name="trace-drill"),
            tmp_path / "cluster",
            workers=2,
            lease_seconds=10.0,
            heartbeat_seconds=0.3,
            drill_kill_worker=2,
            deadline_seconds=120.0,
            obs_sink=str(sink),
        )
        obs.flush()
        obs.reset()
        assert result["state"] == "done"
        assert result["counts"]["ok"] == 6

        events = obs.load_events_multi([str(sink)])
        summary = trace_summary(events)
        assert summary["root"]["name"] == "cluster.campaign"
        assert summary["n_orphans"] == 0
        assert len(summary["trace_ids"]) == 1
        assert summary["merge_seconds"] > 0.0

        job_spans = [
            e for e in events
            if e.get("kind") == "span" and e.get("name") == "campaign.job"
        ]
        assert job_spans
        # every job span parents directly to the scheduler's campaign
        # span, even though it was emitted in another process
        assert {s["parent"] for s in job_spans} == {summary["root"]["id"]}
        assert {s.get("trace") for s in job_spans} == {
            summary["trace_ids"][0]
        }
        # worker spans carry worker pids, distinct from the scheduler's
        scheduler_pid = event_pid(
            next(e for e in events if e.get("name") == "cluster.campaign")
        )
        assert all(event_pid(s) != scheduler_pid for s in job_spans)

        doc = json.loads(render_chrome_trace(events, origin=str(sink)))
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in phases
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"cluster.campaign", "campaign.job", "store.merge"} <= names
