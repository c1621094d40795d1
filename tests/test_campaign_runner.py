"""Runner semantics: retries, timeouts, crash tolerance, resume.

Every campaign here runs on real workers forked from the test process,
so experiments registered below (and monkeypatches) are visible to
them; what a worker observes comes back through files.
"""

import json
import os
import shutil
import signal
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    register_experiment,
)
from repro.campaign.spec import FaultInjection


@pytest.fixture(autouse=True)
def clean_obs():
    """warn_once dedupes per process even while disabled; isolate it."""
    obs.reset()
    yield
    obs.reset()

# Set by the ``calls`` fixture before a run; forked workers inherit it
# and append one line per call.
CALL_LOG = None


@pytest.fixture
def calls(tmp_path, monkeypatch):
    """The seeds ``test_echo`` was called with, in call order."""
    path = tmp_path / "calls.log"
    path.touch()
    monkeypatch.setitem(globals(), "CALL_LOG", path)
    return lambda: [int(line) for line in path.read_text().split()]


@register_experiment("test_echo")
def _echo(params: dict, seed: int) -> dict:
    """Fast deterministic experiment for runner tests."""
    if CALL_LOG is not None:
        with open(CALL_LOG, "a") as log:
            log.write(f"{seed}\n")
    return {"value": params.get("x", 0) * 10, "seed_mod": seed % 97}


@register_experiment("test_flaky")
def _flaky(params: dict, seed: int) -> dict:
    """Fails every attempt for x >= threshold."""
    if params.get("x", 0) >= params.get("threshold", 99):
        raise RuntimeError(f"boom x={params['x']}")
    return {"value": params.get("x", 0)}


@register_experiment("test_sleepy")
def _sleepy(params: dict, seed: int) -> dict:
    """Sleeps; used for timeout and wall-clock parallelism tests."""
    time.sleep(params.get("sleep", 0.01))
    return {"slept": params.get("sleep", 0.01)}


def run_spec(spec, tmp_path, resume=False, workers=1):
    store = ResultStore(tmp_path / spec.name)
    runner = CampaignRunner(spec, store, workers=workers)
    return runner.run(resume=resume), store


class TestHappyPath:
    def test_all_jobs_recorded_ok(self, tmp_path):
        spec = CampaignSpec(
            name="ok", experiment="test_echo", grid={"x": [1, 2, 3]}, trials=2
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 6}
        records = store.load_records()
        assert len(records) == 6
        assert all(r.ok and r.attempts == 1 for r in records.values())
        assert {r.metrics["value"] for r in records.values()} == {10, 20, 30}

    def test_experiment_receives_derived_seed(self, tmp_path, calls):
        spec = CampaignSpec(
            name="seeds", experiment="test_echo", grid={"x": [1]}, trials=3
        )
        run_spec(spec, tmp_path)
        seeds = calls()
        assert len(set(seeds)) == 3
        assert seeds == [job.seed for job in spec.jobs()]


class TestRetries:
    def test_injected_failure_then_retry_succeeds(self, tmp_path):
        spec = CampaignSpec(
            name="retry",
            experiment="test_echo",
            grid={"x": [1, 2, 3, 4]},
            max_retries=2,
            retry_backoff=0.0,
            inject_failures=FaultInjection(count=2, attempts=1),
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 4}
        attempts = sorted(r.attempts for r in store.load_records().values())
        assert attempts == [1, 1, 2, 2]

    def test_permanent_failure_recorded_not_raised(self, tmp_path):
        spec = CampaignSpec(
            name="fail",
            experiment="test_flaky",
            grid={"x": [1, 100]},
            fixed={"threshold": 50},
            max_retries=1,
            retry_backoff=0.0,
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 1, "failed": 1}
        failed = [r for r in store.load_records().values() if not r.ok]
        assert len(failed) == 1
        assert failed[0].attempts == 2  # first try + one retry
        assert "boom x=100" in failed[0].error

    def test_retry_backoff_delays_reattempt(self, tmp_path):
        spec = CampaignSpec(
            name="backoff",
            experiment="test_echo",
            grid={"x": [1]},
            max_retries=1,
            retry_backoff=0.15,
            inject_failures=FaultInjection(count=1, attempts=1),
        )
        start = time.monotonic()
        result, _ = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 1}
        assert time.monotonic() - start >= 0.15


class TestTimeout:
    def test_overrunning_job_is_killed_and_recorded(self, tmp_path):
        spec = CampaignSpec(
            name="timeout",
            experiment="test_sleepy",
            grid={"sleep": [0.01, 5.0]},
            timeout_seconds=0.25,
            max_retries=0,
        )
        start = time.monotonic()
        result, store = run_spec(spec, tmp_path)
        assert time.monotonic() - start < 3.0  # the 5 s job did not run out
        assert result.counts == {"ok": 1, "timeout": 1}
        timed_out = [r for r in store.load_records().values() if not r.ok]
        assert timed_out[0].status == "timeout"
        assert "0.25" in timed_out[0].error


class TestCrashTolerance:
    def test_crashed_worker_recorded_campaign_continues(self, tmp_path):
        spec = CampaignSpec(
            name="crash",
            experiment="test_echo",
            grid={"x": [1, 2, 3]},
            max_retries=0,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        result, store = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 2, "crashed": 1}
        records = store.load_records()
        assert len(records) == 3  # the crash is a record, not an abort

    def test_crash_then_retry_succeeds(self, tmp_path):
        spec = CampaignSpec(
            name="crash-retry",
            experiment="test_echo",
            grid={"x": [1, 2]},
            max_retries=1,
            retry_backoff=0.0,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        result, _ = run_spec(spec, tmp_path)
        assert result.counts == {"ok": 2}


class TestResume:
    def spec(self):
        return CampaignSpec(
            name="resume", experiment="test_echo", grid={"x": [1, 2, 3]}, trials=2
        )

    def test_fresh_directory_rejects_resumeless_rerun(self, tmp_path):
        run_spec(self.spec(), tmp_path)
        with pytest.raises(FileExistsError, match="resume"):
            run_spec(self.spec(), tmp_path)

    def test_resume_skips_completed_jobs(self, tmp_path, calls):
        run_spec(self.spec(), tmp_path)
        assert len(calls()) == 6
        result, _ = run_spec(self.spec(), tmp_path, resume=True)
        assert result.skipped == 6
        assert result.counts == {}
        assert len(calls()) == 6  # nothing re-executed

    def test_resume_runs_only_missing_jobs(self, tmp_path):
        spec = self.spec()
        result, store = run_spec(spec, tmp_path)
        # Simulate an interruption: drop the records of two jobs, from
        # the merged log and from the worker shards it was merged from.
        records = store.load_records()
        keep = list(records)[:-2]
        store.results_path.write_text(
            "".join(json.dumps(records[k].to_dict()) + "\n" for k in keep)
        )
        for shard in store.shard_stores():
            shutil.rmtree(shard.root)
        result, store = run_spec(spec, tmp_path, resume=True)
        assert result.skipped == 4
        assert result.counts == {"ok": 2}
        assert len(store.load_records()) == 6

    def test_resume_different_spec_rejected(self, tmp_path):
        run_spec(self.spec(), tmp_path)
        other = CampaignSpec(
            name="resume", experiment="test_echo", grid={"x": [9]}, trials=2
        )
        with pytest.raises(ValueError, match="fresh directory"):
            run_spec(other, tmp_path, resume=True)


class TestTimeoutEnforcement:
    """Per-job budgets silently do nothing without SIGALRM; the runner
    must say so (once) and stamp ``timeout_enforced: false`` on the
    records instead of pretending the budget was live."""

    def _run(self, tmp_path, spec):
        events = []
        store = ResultStore(tmp_path / spec.name)
        runner = CampaignRunner(spec, store, on_event=events.append)
        return runner.run(), store, events

    def test_unenforceable_budget_flagged_and_warned_once(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.executor as executor_mod

        monkeypatch.setattr(executor_mod, "alarm_supported", lambda: False)
        spec = CampaignSpec(
            name="noalarm",
            experiment="test_echo",
            grid={"x": [1, 2, 3]},
            timeout_seconds=5.0,
        )
        result, store, events = self._run(tmp_path, spec)
        assert result.counts == {"ok": 3}
        records = store.load_records().values()
        assert all(r.timeout_enforced is False for r in records)
        warnings = [e for e in events if "cannot be enforced" in e]
        assert len(warnings) == 1  # once per campaign, not per job

    def test_enforceable_budget_stamped_true(self, tmp_path):
        if not hasattr(__import__("signal"), "SIGALRM"):
            pytest.skip("platform has no SIGALRM")
        spec = CampaignSpec(
            name="alarm",
            experiment="test_echo",
            grid={"x": [1]},
            timeout_seconds=5.0,
        )
        result, store, events = self._run(tmp_path, spec)
        (record,) = store.load_records().values()
        assert record.timeout_enforced is True
        assert not any("cannot be enforced" in e for e in events)

    def test_no_budget_means_not_applicable(self, tmp_path):
        spec = CampaignSpec(
            name="nobudget", experiment="test_echo", grid={"x": [1]}
        )
        _, store, _ = self._run(tmp_path, spec)
        (record,) = store.load_records().values()
        assert record.timeout_enforced is None


@register_experiment("test_interrupt_once")
def _interrupt_once(params: dict, seed: int) -> dict:
    """While the flag file exists (consuming it), interrupt the campaign
    as a terminal's Ctrl-C would — SIGINT to the scheduler, the
    worker's parent — and hang until the scheduler tears this worker
    down; a resumed campaign sails through."""
    flag = params.get("flag")
    if params.get("x") == 2 and flag and os.path.exists(flag):
        os.unlink(flag)
        os.kill(os.getppid(), signal.SIGINT)
        time.sleep(60)
    return {"value": params.get("x", 0)}


class TestKeyboardInterrupt:
    def test_interrupt_checkpoints_then_resume_completes(self, tmp_path):
        flag = tmp_path / "interrupt.flag"
        flag.write_text("armed")

        def spec():
            return CampaignSpec(
                name="ki",
                experiment="test_interrupt_once",
                grid={"x": [1, 2, 3]},
                fixed={"flag": str(flag)},
            )

        events = []
        store = ResultStore(tmp_path / "ki")
        runner = CampaignRunner(spec(), store, on_event=events.append)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        # The finished job sits in its worker's shard, and the user is
        # pointed at `campaign resume`.
        assert len(store.load_records(include_shards=True)) == 1
        assert any("campaign resume" in e for e in events)

        result, store = run_spec(spec(), tmp_path, resume=True)
        assert result.skipped == 1
        assert result.counts == {"ok": 2}
        assert len(store.load_records()) == 3


class TestProcessPool:
    def test_real_pool_end_to_end_with_injected_crash(self, tmp_path):
        """A pool of two forked workers: an injected crash, retry,
        full recovery."""
        spec = CampaignSpec(
            name="forked",
            experiment="lzw_recovery",
            grid={"size": [30, 40]},
            trials=1,
            max_retries=2,
            retry_backoff=0.0,
            timeout_seconds=60,
            inject_failures=FaultInjection(count=1, attempts=1, mode="crash"),
        )
        store = ResultStore(tmp_path / "forked")
        result = CampaignRunner(spec, store, workers=2).run()
        assert result.counts == {"ok": 2}
        records = store.load_records()
        assert all(r.ok for r in records.values())
        assert max(r.attempts for r in records.values()) >= 2

    def test_parallel_workers_cut_wall_time(self, tmp_path):
        """Scheduler-level parallelism: sleep-bound jobs finish faster
        with 4 workers than with 1 regardless of core count."""
        def spec(name):
            return CampaignSpec(
                name=name,
                experiment="test_sleepy",
                grid={"i": list(range(8))},
                fixed={"sleep": 0.15},
            )

        start = time.monotonic()
        result1, _ = run_spec(spec("w1"), tmp_path, workers=1)
        serial = time.monotonic() - start
        start = time.monotonic()
        result4, _ = run_spec(spec("w4"), tmp_path, workers=4)
        parallel = time.monotonic() - start
        assert result1.counts == result4.counts == {"ok": 8}
        assert parallel < serial
