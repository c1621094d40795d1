"""`repro campaign status`: the read-only progress snapshot.

Pure functions first (:func:`campaign_status` / :func:`render_status`
over stores in every lifecycle state), then the CLI front end as a
subprocess — including the spec-mismatch resume bugfix, which must
fail with exit 2 naming both hashes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    campaign_status,
    register_experiment,
    render_status,
)
from repro.campaign.spec import FaultInjection
from repro.campaign.store import JobRecord

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


@register_experiment("status_echo")
def _echo(params: dict, seed: int) -> dict:
    return {"value": params.get("x", 0)}


def finished_store(tmp_path, name="st", xs=(1, 2, 3), prune_shards=True):
    """A finished campaign.  ``campaign run`` keeps its workers' shard
    dirs beside the merged log as an audit trail; with
    ``prune_shards`` they are removed, so the merged ``results.jsonl``
    alone is what the tests below edit and the status reads."""
    spec = CampaignSpec(
        name=name,
        experiment="status_echo",
        grid={"x": list(xs)},
        trials=2,
        max_retries=1,
        retry_backoff=0.0,
        inject_failures=FaultInjection(count=1, attempts=1),
    )
    store = ResultStore(tmp_path / name)
    CampaignRunner(spec, store).run()
    if prune_shards:
        for shard in store.shard_stores():
            shutil.rmtree(shard.root)
    return store


class TestCampaignStatus:
    def test_finished_campaign_counts(self, tmp_path):
        store = finished_store(tmp_path, prune_shards=False)
        status = campaign_status(store)
        assert status["name"] == "st"
        assert status["n_jobs"] == 6
        assert status["recorded"] == 6
        assert status["pending"] == 0
        assert status["by_status"] == {"ok": 6}
        assert status["retried"] == 1  # the injected first-attempt failure
        assert status["finished"] is True
        assert status["wall_seconds"] >= 0.0
        assert status["shards"] == 1  # the one worker's audit trail
        assert status["spec_hash"] == store.load_manifest()["spec_hash"]

    def test_in_progress_campaign_reports_pending(self, tmp_path):
        store = finished_store(tmp_path)
        # Rewind to mid-run: drop two records and the finished stamp.
        records = list(store.load_records().values())[:-2]
        store.results_path.write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in records)
        )
        manifest = store.load_manifest()
        del manifest["finished_at"]
        store.manifest_path.write_text(json.dumps(manifest))
        status = campaign_status(store)
        assert status["recorded"] == 4
        assert status["pending"] == 2
        assert status["finished"] is False
        assert status["wall_seconds"] is not None  # live elapsed time

    def test_unmerged_shard_records_are_counted(self, tmp_path):
        store = finished_store(tmp_path)
        records = list(store.load_records().values())
        # Move one record out of the main log into a worker shard, as a
        # cluster run mid-flight would leave it.
        store.results_path.write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in records[:-1])
        )
        shard = store.shard_store("w9")
        shard.root.mkdir(parents=True, exist_ok=True)
        shard.append(records[-1])
        status = campaign_status(store)
        assert status["recorded"] == 6  # shard record folded in
        assert status["pending"] == 0
        assert status["shards"] == 1

    def test_failures_split_out_by_status(self, tmp_path):
        store = finished_store(tmp_path, name="fs")
        records = list(store.load_records().values())
        records[0] = JobRecord(**{**records[0].to_dict()})
        records[0].status = "timeout"
        records[0].metrics = None
        store.results_path.write_text(
            "".join(json.dumps(r.to_dict()) + "\n" for r in records)
        )
        status = campaign_status(store)
        assert status["by_status"] == {"ok": 5, "timeout": 1}


class TestRenderStatus:
    def test_finished_text_block(self, tmp_path):
        text = render_status(campaign_status(finished_store(tmp_path)))
        assert "campaign st (finished)" in text
        assert "6/6 recorded, 0 pending" in text
        assert "6 ok, 0 failed" in text
        assert "1 jobs needed more than one attempt" in text
        assert "shards" not in text  # no shard dirs left

    def test_shard_line_appears_for_cluster_dirs(self, tmp_path):
        store = finished_store(tmp_path)
        shard = store.shard_store("w0")
        shard.root.mkdir(parents=True, exist_ok=True)
        text = render_status(campaign_status(store))
        assert "1 worker shard dirs" in text


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


class TestStatusCli:
    @pytest.fixture(scope="class")
    def campaign_dir(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli-status")
        spec = tmp / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "cli-st",
                    "experiment": "lzw_recovery",
                    "grid": {"size": [30, 40]},
                }
            )
        )
        out = tmp / "run"
        proc = run_cli(
            "campaign", "run", str(spec), "--out", str(out), "--quiet"
        )
        assert proc.returncode == 0, proc.stderr
        return tmp, spec, out

    def test_status_renders_and_exits_zero(self, campaign_dir):
        _, _, out = campaign_dir
        proc = run_cli("campaign", "status", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "campaign cli-st (finished)" in proc.stdout
        assert "2/2 recorded, 0 pending" in proc.stdout

    def test_status_json_is_machine_readable(self, campaign_dir):
        _, _, out = campaign_dir
        proc = run_cli("campaign", "status", str(out), "--json")
        assert proc.returncode == 0, proc.stderr
        status = json.loads(proc.stdout)
        assert status["recorded"] == 2
        assert status["by_status"] == {"ok": 2}

    def test_missing_directory_exits_two(self, tmp_path):
        proc = run_cli("campaign", "status", str(tmp_path / "nope"))
        assert proc.returncode == 2
        assert "no campaign manifest" in proc.stderr

    def test_resume_with_mismatched_spec_names_both_hashes(
        self, campaign_dir, tmp_path
    ):
        """The resume bugfix: a foreign spec against an existing
        directory exits 2 with a message naming both spec hashes."""
        tmp, spec, out = campaign_dir
        original = CampaignSpec.from_json_file(spec)
        other_path = tmp_path / "other.json"
        other_path.write_text(
            json.dumps(
                {
                    "name": "cli-st",
                    "experiment": "lzw_recovery",
                    "grid": {"size": [30, 40, 50]},
                }
            )
        )
        other = CampaignSpec.from_json_file(other_path)
        proc = run_cli(
            "campaign", "run", str(other_path), "--out", str(out),
            "--resume", "--quiet",
        )
        assert proc.returncode == 2
        assert original.spec_hash() in proc.stderr
        assert other.spec_hash() in proc.stderr
        assert "fresh directory" in proc.stderr
