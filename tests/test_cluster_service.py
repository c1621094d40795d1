"""The event-driven lease plane of :class:`SchedulerServer`, and the
one-shot run's failure paths.

An in-process server with raw protocol clients: a ``lease`` nothing
can serve yet is parked and answered — with ``job`` or ``drain`` — the
moment scheduler state allows, so the lease-plane assertions are about
message order, never about how long something took.
"""

import asyncio
import contextlib
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    JobRecord,
    ResultStore,
    get_experiment,
    metrics_digest,
)
from repro.cluster import (
    ClusterScheduler,
    Endpoint,
    FleetExitedError,
    MessageStream,
    SchedulerServer,
    run_cluster,
)
from repro.cluster import protocol, service
from repro.obs.export import event_pid
from repro.obs.report import trace_summary

# Bound on every read, so a reply that never comes fails the test
# instead of hanging it.
READ_TIMEOUT = 10.0


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def one_job_spec(**overrides):
    fields = dict(
        name="svc", experiment="lzw_recovery", grid={"size": [30]},
        max_retries=1, retry_backoff=0.0,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


@contextlib.asynccontextmanager
async def serving(scheduler, **kwargs):
    server = SchedulerServer(
        scheduler, Endpoint(kind="tcp", host="127.0.0.1", port=0), **kwargs
    )
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


def run_scenario(scenario):
    """Run ``scenario()`` on a fresh loop; return every error the loop
    reported (e.g. an exception escaping a connection handler)."""
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        await scenario()
        gc.collect()  # surface "exception never retrieved" now

    asyncio.run(main())
    return errors


class RawWorker:
    """A worker speaking the wire protocol by hand."""

    def __init__(self, worker_id, reader, writer):
        self.worker_id = worker_id
        self.reader = reader
        self.writer = writer

    @classmethod
    async def register(cls, endpoint, worker_id):
        reader, writer = await asyncio.open_connection(
            endpoint.host, endpoint.port
        )
        worker = cls(worker_id, reader, writer)
        await worker.send(
            type=protocol.MSG_REGISTER, pid=0,
            protocol=protocol.PROTOCOL_VERSION,
        )
        assert (await worker.recv())["type"] == protocol.MSG_REGISTERED
        return worker

    async def send(self, **message):
        message.setdefault("worker_id", self.worker_id)
        self.writer.write(protocol.encode_message(message))
        await self.writer.drain()

    async def recv(self):
        line = await asyncio.wait_for(self.reader.readline(), READ_TIMEOUT)
        return protocol.decode_message(line) if line else None

    async def lease(self):
        await self.send(type=protocol.MSG_LEASE)

    async def report(self, job, status):
        await self.send(
            type=protocol.MSG_RESULT, campaign_id=job["campaign_id"],
            lease_id=job["lease_id"], job_id=job["job_id"],
            status=status, duration=0.0,
        )

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


async def until(predicate):
    """Yield to the server until ``predicate()`` holds."""
    async def poll():
        while not predicate():
            await asyncio.sleep(0.01)

    await asyncio.wait_for(poll(), READ_TIMEOUT)


class TestTransport:
    def test_tcp_connect_disables_nagle(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            port = listener.getsockname()[1]
            sock = Endpoint(kind="tcp", host="127.0.0.1", port=port).connect()
            try:
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ) != 0
            finally:
                sock.close()
        finally:
            listener.close()

    def test_register_with_another_protocol_version_is_refused(
        self, tmp_path
    ):
        scheduler = ClusterScheduler()
        scheduler.submit(one_job_spec(), tmp_path / "out")

        def old_worker(endpoint):
            sock = endpoint.connect(timeout=READ_TIMEOUT)
            sock.settimeout(READ_TIMEOUT)
            stream = MessageStream(sock)
            try:
                stream.send(
                    {"type": protocol.MSG_REGISTER, "worker_id": "old",
                     "pid": 0, "protocol": 1}
                )
                return stream.recv(), stream.recv()
            finally:
                stream.close()

        async def scenario():
            async with serving(scheduler) as server:
                reply, after = await asyncio.to_thread(
                    old_worker, server.endpoint
                )
                assert reply["type"] == protocol.MSG_ERROR
                assert "worker speaks 1" in reply["error"]
                assert (
                    f"scheduler speaks {protocol.PROTOCOL_VERSION}"
                    in reply["error"]
                )
                assert after is None  # connection closed
                assert "old" not in scheduler.workers

        assert run_scenario(scenario) == []


    def test_refused_worker_reports_the_error_and_exits_2(self, capsys):
        from repro import cli

        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(READ_TIMEOUT)

        def refuse():
            conn, _ = listener.accept()
            with conn:
                stream = MessageStream(conn)
                stream.recv()
                stream.send(
                    {"type": protocol.MSG_ERROR, "error": "version mismatch"}
                )

        thread = threading.Thread(target=refuse)
        thread.start()
        try:
            port = listener.getsockname()[1]
            code = cli.main([
                "cluster", "worker", "--connect", f"tcp:127.0.0.1:{port}",
                "--quiet",
            ])
        finally:
            thread.join(READ_TIMEOUT)
            listener.close()
        assert code == 2
        assert "version mismatch" in capsys.readouterr().err


async def closed_by_server(reader):
    """Whether the server closed the connection without a reply: EOF,
    or a reset when it closed with bytes of ours still unread."""
    try:
        return await asyncio.wait_for(reader.read(), READ_TIMEOUT) == b""
    except ConnectionResetError:
        return True


def direct_digest(spec):
    """The metrics digest of the spec's jobs called directly."""
    fn = get_experiment(spec.experiment)
    return metrics_digest([
        JobRecord(
            job_id=job.job_id, experiment=job.experiment,
            params=job.params_dict(), trial=job.trial, seed=job.seed,
            status="ok", attempts=1, duration_seconds=0.0,
            metrics=json.loads(json.dumps(fn(job.params_dict(), job.seed))),
        )
        for job in spec.jobs()
    ])


class TestMalformedMessages:
    @pytest.mark.parametrize(
        "line",
        [
            protocol.encode_message({"type": protocol.MSG_LEASE}),
            protocol.encode_message(
                {"type": protocol.MSG_REGISTER, "worker_id": "bad",
                 "pid": "abc", "protocol": protocol.PROTOCOL_VERSION}
            ),
            b"x" * (protocol.MAX_LINE_BYTES + 1) + b"\n",
            # The control messages of the retired service mode.
            protocol.encode_message(
                {"type": "submit", "spec": one_job_spec(name="x").to_dict(),
                 "store": "never-written", "resume": False}
            ),
            protocol.encode_message({"type": "status"}),
            protocol.encode_message({"type": "cancel", "campaign_id": "c1-svc"}),
            protocol.encode_message({"type": "shutdown"}),
        ],
        ids=["lease-without-worker-id", "register-with-bad-pid", "oversized",
             "retired-submit", "retired-status", "retired-cancel",
             "retired-shutdown"],
    )
    def test_closes_the_connection_and_keeps_serving(self, tmp_path, line):
        spec = one_job_spec()
        scheduler = ClusterScheduler()
        scheduler.submit(spec, tmp_path / "out")

        async def scenario():
            async with serving(scheduler) as server:
                reader, writer = await asyncio.open_connection(
                    server.endpoint.host, server.endpoint.port
                )
                with contextlib.suppress(ConnectionError):
                    writer.write(line)
                    await writer.drain()
                assert await closed_by_server(reader)
                writer.close()
                # A real forked worker then runs the campaign to its end.
                proc = service.spawn_worker(server.endpoint, "good")
                try:
                    await asyncio.wait_for(
                        server.draining.wait(), READ_TIMEOUT
                    )
                    assert await asyncio.to_thread(proc.wait, 5.0) == 0
                finally:
                    proc.kill()
                    await asyncio.to_thread(proc.wait, 5.0)

        assert run_scenario(scenario) == []
        assert "bad" not in scheduler.workers
        assert not scheduler.active()
        assert len(scheduler.campaigns) == 1
        records = ResultStore(tmp_path / "out").load_records()
        assert metrics_digest(records) == direct_digest(spec)


class TestParkedLeases:
    def test_parked_lease_gets_the_job_when_its_backoff_expires(
        self, tmp_path
    ):
        scheduler = ClusterScheduler()
        scheduler.submit(
            one_job_spec(retry_backoff=0.2), tmp_path / "out"
        )

        async def scenario():
            async with serving(scheduler) as server:
                worker = await RawWorker.register(server.endpoint, "a")
                await worker.lease()
                first = await worker.recv()
                assert first["type"] == protocol.MSG_JOB
                # A retryable failure holds the job back for the
                # backoff; the lease sent right behind it is parked,
                # not answered.
                await worker.report(first, "failed")
                await worker.lease()
                retry = await worker.recv()
                assert retry["type"] == protocol.MSG_JOB
                assert retry["job_id"] == first["job_id"]
                assert retry["payload"]["attempt"] == 1
                await worker.report(retry, "ok")
                await worker.lease()
                assert (await worker.recv())["type"] == protocol.MSG_DRAIN
                assert server.draining.is_set()
                await worker.close()

        assert run_scenario(scenario) == []
        assert not scheduler.active()

    def test_parked_lease_is_drained_when_the_campaign_finalizes(
        self, tmp_path
    ):
        scheduler = ClusterScheduler()
        scheduler.submit(one_job_spec(), tmp_path / "out")

        async def scenario():
            async with serving(scheduler) as server:
                busy = await RawWorker.register(server.endpoint, "busy")
                idle = await RawWorker.register(server.endpoint, "idle")
                await busy.lease()
                job = await busy.recv()
                assert job["type"] == protocol.MSG_JOB
                await idle.lease()  # nothing left: parked
                await until(lambda: "idle" in server._parked)
                await busy.report(job, "ok")
                assert (await idle.recv())["type"] == protocol.MSG_DRAIN
                await busy.lease()
                assert (await busy.recv())["type"] == protocol.MSG_DRAIN
                await busy.close()
                await idle.close()

        assert run_scenario(scenario) == []
        assert not scheduler.active()

    def test_worker_closing_while_parked_is_disconnected_cleanly(
        self, tmp_path
    ):
        scheduler = ClusterScheduler()
        scheduler.submit(one_job_spec(), tmp_path / "out")

        async def scenario():
            async with serving(scheduler) as server:
                busy = await RawWorker.register(server.endpoint, "busy")
                gone = await RawWorker.register(server.endpoint, "gone")
                await busy.lease()
                job = await busy.recv()
                await gone.lease()
                await until(lambda: "gone" in server._parked)
                await gone.close()
                await until(lambda: not scheduler.workers["gone"].connected)
                assert "gone" not in server._parked
                # Finalizing drains the parked set: the closed worker
                # must not be in it any more.
                await busy.report(job, "ok")
                await busy.lease()
                assert (await busy.recv())["type"] == protocol.MSG_DRAIN
                await busy.close()

        assert run_scenario(scenario) == []
        assert scheduler.workers["busy"].jobs_done == 1


    def test_stop_closes_open_connections_and_waits_for_handlers(
        self, tmp_path
    ):
        scheduler = ClusterScheduler()
        scheduler.submit(one_job_spec(), tmp_path / "out")

        async def scenario():
            async with serving(scheduler) as server:
                busy = await RawWorker.register(server.endpoint, "busy")
                await busy.lease()
                assert (await busy.recv())["type"] == protocol.MSG_JOB
                worker = await RawWorker.register(server.endpoint, "a")
                await worker.lease()
                await until(lambda: "a" in server._parked)
            # stop() returned: the handlers already ran their disconnect.
            assert not scheduler.workers["a"].connected
            assert not scheduler.workers["busy"].connected
            assert await worker.recv() is None
            await worker.close()
            await busy.close()

        assert run_scenario(scenario) == []


def doomed_worker(endpoint, worker_id, obs_sink=None):
    """Stands in for :func:`spawn_worker`: a worker that dies at once."""
    return subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"])


class TestOneShotRun:
    def test_dead_fleet_fails_fast_naming_exit_codes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(service, "spawn_worker", doomed_worker)
        started = time.monotonic()
        with pytest.raises(FleetExitedError, match="w0=3, w1=3"):
            run_cluster(
                one_job_spec(), tmp_path / "out", workers=2,
                deadline_seconds=60.0,
            )
        assert time.monotonic() - started < 30.0

    def test_cli_reports_a_dead_fleet_as_an_error(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setattr(service, "spawn_worker", doomed_worker)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(one_job_spec().to_dict()))
        code = cli.main([
            "cluster", "run", str(spec_path), "--out", str(tmp_path / "out"),
            "--workers", "1", "--quiet", "--deadline", "60",
        ])
        assert code == 2
        assert "error: every worker exited" in capsys.readouterr().err

    def test_cli_rejects_an_unknown_experiment_before_writing(
        self, tmp_path, capsys
    ):
        from repro import cli

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(one_job_spec(experiment="no_such_experiment").to_dict())
        )
        code = cli.main([
            "cluster", "run", str(spec_path), "--out", str(tmp_path / "out"),
            "--quiet",
        ])
        assert code == 2
        assert (
            "error: unknown experiment 'no_such_experiment'"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()


class TestForkedWorkers:
    def test_workers_record_only_their_own_events(self, tmp_path):
        """Forked workers start with no sink, trace or counters of the
        scheduler's: each shard sink holds one worker pid, no snapshot
        carries a scheduler counter, and the sinks still stitch into
        one trace."""
        scheduler_sink = tmp_path / "scheduler.jsonl"
        obs.enable(sink_path=str(scheduler_sink))
        result = run_cluster(
            one_job_spec(grid={"size": [30, 40, 50]}, trials=2),
            tmp_path / "out", workers=2, obs_shards=True,
            deadline_seconds=60.0,
        )
        obs.flush()
        obs.reset()
        assert result["state"] == "done"
        shards = sorted((tmp_path / "out").glob("shard-w*/obs.jsonl"))
        assert shards
        for shard in shards:
            events = obs.load_events(str(shard))
            pids = {event_pid(event) for event in events}
            assert len(pids) == 1 and os.getpid() not in pids, (shard, pids)
            for event in events:
                if event.get("kind") == "counters":
                    assert "cluster.campaigns_submitted" not in event["counters"]
        summary = trace_summary(
            obs.load_events_multi([str(scheduler_sink), *map(str, shards)])
        )
        assert len(summary["trace_ids"]) == 1
        assert summary["n_orphans"] == 0

    def test_parked_worker_dies_on_terminate(self, tmp_path):
        """SIGTERM is the default action in a forked worker, even when
        the scheduler's loop handles SIGTERM itself."""
        scheduler = ClusterScheduler()
        scheduler.submit(one_job_spec(), tmp_path / "out")

        async def scenario():
            async with serving(scheduler) as server:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGTERM, server.dispatch
                )
                # The only job is checked out, so the fork parks.
                busy = await RawWorker.register(server.endpoint, "busy")
                await busy.lease()
                assert (await busy.recv())["type"] == protocol.MSG_JOB
                proc = service.spawn_worker(server.endpoint, "parked")
                try:
                    await until(lambda: "parked" in server._parked)
                    proc.terminate()
                    code = await asyncio.to_thread(proc.wait, 5.0)
                finally:
                    proc.kill()
                    await asyncio.to_thread(proc.wait, 5.0)
                assert code == -signal.SIGTERM
                await until(lambda: not scheduler.workers["parked"].connected)
                await busy.close()

        assert run_scenario(scenario) == []
