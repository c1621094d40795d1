"""Transport and process management around the scheduler core.

Two entry points, both thin shells over
:class:`repro.cluster.scheduler.ClusterScheduler`:

- :class:`SchedulerServer` — an asyncio JSON-lines server speaking
  :mod:`repro.cluster.protocol` on TCP or a Unix socket.  It is
  event-driven: a ``lease`` nothing can serve yet is parked, and every
  event that can change the answer (result, disconnect, a lease
  expiring, a retry backoff running out) re-runs
  :meth:`SchedulerServer.dispatch`, which hands parked workers their
  ``job`` or ``drain``.  The only timers are the backoff wake-up and
  the reaper task driving ``scheduler.tick()`` (lease expiry — crash
  recovery, off the critical path).  Malformed messages (undecodable,
  oversized, a missing or mistyped field, an unknown type) close the
  sender's connection and nothing else.
- :func:`run_cluster` — the one local transport, behind both
  ``repro campaign run`` and ``repro cluster run``: submit one
  campaign, fork N local workers from this process
  (:func:`spawn_worker`), replace a worker that a signal kills while
  the campaign still runs, wait until the campaign finalizes (or the
  fleet is gone, or the deadline passes), reap the workers.  Forking
  skips a fresh interpreter's start-up and imports.
  ``drill_kill_worker`` SIGKILLs the first worker right after the Nth
  result — the crash-recovery drill the CI smoke and the integration
  tests run.  With ``endpoint`` set, ``repro cluster worker``
  processes on other hosts can join the same campaign.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import threading
import time
from typing import Callable, Optional

from repro import obs
from repro.campaign.experiments import get_experiment
from repro.campaign.spec import CampaignSpec
from repro.cluster import protocol
from repro.cluster.protocol import Endpoint, ProtocolError
from repro.cluster.scheduler import ClusterScheduler
from repro.cluster.worker import run_worker
from repro.obs import tracectx


class FleetExitedError(RuntimeError):
    """No worker of a local run is left while its campaign is still
    running: each exited, or signal deaths used up the respawn bound."""


def _field(message: dict, name: str, convert=str, default=None):
    """``convert(message[name])``, or ``default`` when the field is
    absent.  A missing required field or one ``convert`` rejects is a
    :class:`ProtocolError`: it closes the sender's connection like any
    other malformed message."""
    value = message.get(name, default)
    if value is not None:
        try:
            return convert(value)
        except (TypeError, ValueError):
            pass
    raise ProtocolError(
        f"{message['type']!r} message with a missing or malformed {name!r}"
    )


class SchedulerServer:
    """Asyncio transport for one :class:`ClusterScheduler`.

    Args:
        scheduler: the synchronous scheduler core.
        endpoint: where to listen; for TCP, port ``0`` picks an
            ephemeral port (read the bound one from ``self.endpoint``
            after :meth:`start`).
        tick_interval: reaper cadence (lease expiry, finalize).
        on_result: called after each worker ``result`` is applied.
    """

    def __init__(
        self,
        scheduler: ClusterScheduler,
        endpoint: Endpoint,
        tick_interval: float = 0.1,
        on_result: Optional[Callable[[], None]] = None,
    ) -> None:
        self.scheduler = scheduler
        self.endpoint = endpoint
        self.tick_interval = tick_interval
        self._on_result = on_result
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        # Set once no campaign is running and the fleet is told to
        # drain.
        self.draining = asyncio.Event()
        # Parked lease requests, oldest first: worker_id -> writer.
        self._parked: dict[str, asyncio.StreamWriter] = {}
        self._wakeup: Optional[asyncio.TimerHandle] = None
        # Open connections and the tasks serving them, so stop() can
        # close them and let every handler finish.
        self._connections: dict[asyncio.StreamWriter, asyncio.Task] = {}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Bind, listen, and start the reaper."""
        if self.endpoint.kind == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle, path=self.endpoint.path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle, host=self.endpoint.host or "127.0.0.1",
                port=self.endpoint.port, limit=protocol.MAX_LINE_BYTES,
            )
            host, port = self._server.sockets[0].getsockname()[:2]
            self.endpoint = Endpoint(kind="tcp", host=host, port=port)
        self._reaper = asyncio.ensure_future(self._reap_loop())
        self.dispatch()
        obs.log("info", "cluster scheduler listening", endpoint=str(self.endpoint))

    async def stop(self) -> None:
        """Stop accepting, close open connections and wait for their
        handlers, cancel the reaper, drop the socket file."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        handlers = list(self._connections.values())
        for writer in self._connections:
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
        if self._wakeup is not None:
            self._wakeup.cancel()
        if self.endpoint.kind == "unix":
            try:
                os.unlink(self.endpoint.path)
            except OSError:
                pass

    async def _reap_loop(self) -> None:
        while True:
            if self.scheduler.tick():
                self.dispatch()
            await asyncio.sleep(self.tick_interval)

    # -- the lease plane -------------------------------------------------
    def dispatch(self) -> None:
        """Answer every parked lease request scheduler state now
        allows: ``job`` while eligible work lasts, ``drain`` to all once
        the fleet is done; otherwise wake up when the soonest retry
        backoff expires."""
        for worker_id in list(self._parked):
            job = self.scheduler.request_lease(worker_id)
            if job is None:
                break
            self._parked.pop(worker_id).write(
                protocol.encode_message({"type": protocol.MSG_JOB, **job})
            )
        if not self.scheduler.active():
            drain = protocol.encode_message({"type": protocol.MSG_DRAIN})
            for writer in self._parked.values():
                writer.write(drain)
            self._parked.clear()
            self.draining.set()
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        delay = self.scheduler.next_eligible_in() if self._parked else None
        if delay is not None:
            self._wakeup = asyncio.get_running_loop().call_later(
                delay, self.dispatch
            )

    # -- connection handling --------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, message: dict) -> None:
        writer.write(protocol.encode_message(message))
        await writer.drain()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections[writer] = asyncio.current_task()
        worker_id: Optional[str] = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:  # a line over the reader's limit
                    raise ProtocolError(str(exc)) from exc
                if not line:
                    break
                message = protocol.decode_message(line.rstrip(b"\n"))
                kind = message["type"]
                if kind == protocol.MSG_REGISTER:
                    version = message.get("protocol")
                    if version != protocol.PROTOCOL_VERSION:
                        await self._send(
                            writer,
                            {
                                "type": protocol.MSG_ERROR,
                                "error": (
                                    f"protocol version mismatch: worker "
                                    f"speaks {version!r}, scheduler "
                                    f"speaks {protocol.PROTOCOL_VERSION}"
                                ),
                            },
                        )
                        break
                    worker_id = _field(message, "worker_id")
                    body = self.scheduler.register_worker(
                        worker_id, pid=_field(message, "pid", int, default=0)
                    )
                    await self._send(
                        writer, {"type": protocol.MSG_REGISTERED, **body}
                    )
                elif kind == protocol.MSG_LEASE:
                    obs.counter_add("cluster.lease_requests")
                    self._parked[_field(message, "worker_id")] = writer
                    self.dispatch()
                elif kind == protocol.MSG_HEARTBEAT:
                    self.scheduler.heartbeat(_field(message, "worker_id"))
                elif kind == protocol.MSG_RESULT:
                    self.scheduler.handle_result(
                        _field(message, "worker_id"), message
                    )
                    if self._on_result is not None:
                        self._on_result()
                    self.dispatch()
                elif kind == protocol.MSG_GOODBYE:
                    break
                else:
                    raise ProtocolError(f"unknown message type {kind!r}")
        except (ProtocolError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            # Nothing may be written to a closed connection.
            self._parked = {
                w: parked
                for w, parked in self._parked.items()
                if parked is not writer
            }
            if worker_id is not None:
                # EOF from a registered worker: clean goodbye or death,
                # either way its leases must not stay checked out.
                self.scheduler.disconnect_worker(worker_id)
                self.dispatch()
            try:
                writer.close()
                await writer.wait_closed()
            except OSError:
                pass
            del self._connections[writer]


# -- one-shot local cluster run -----------------------------------------
class ForkedWorker:
    """The parent's handle on a worker :func:`spawn_worker` forked.

    It has the part of the :class:`subprocess.Popen` interface
    :func:`run_cluster` uses (``pid``, ``returncode``, ``poll``,
    ``wait``, ``kill``, ``terminate``), so a ``Popen`` can stand in
    for it.  As in ``Popen``, one lock guards ``waitpid``: a blocking
    :meth:`wait` on one thread and ``poll``/timed ``wait`` on another
    reap the pid exactly once.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        self._waitpid_lock = threading.Lock()

    def _reap(self, flags: int) -> None:
        # Caller holds _waitpid_lock.
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, flags)
            if pid == self.pid:
                self.returncode = os.waitstatus_to_exitcode(status)

    def poll(self) -> Optional[int]:
        """The exit code if the worker has exited, else None (a
        negative code is the signal that killed it)."""
        if self._waitpid_lock.acquire(blocking=False):
            try:
                self._reap(os.WNOHANG)
            finally:
                self._waitpid_lock.release()
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until the worker exits; :class:`subprocess.TimeoutExpired`
        when ``timeout`` seconds pass first."""
        if timeout is None:
            with self._waitpid_lock:
                self._reap(0)
            return self.returncode
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(f"worker pid {self.pid}", timeout)
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, 0.05)
        return self.returncode

    def _send_signal(self, signum: int) -> None:
        # Not once reaped: the pid may belong to another process by then.
        if self.poll() is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass

    def terminate(self) -> None:
        """SIGTERM the worker."""
        self._send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL the worker."""
        self._send_signal(signal.SIGKILL)


def _reset_forked_worker(obs_sink: Optional[str]) -> None:
    """Undo, in a freshly forked worker, what the scheduler's event
    loop and process installed: the loop's signal wake-up fd and its
    SIGINT/SIGTERM handlers, the caller's stdout/stderr, and its obs
    sink and trace context (the fork hook already emptied counters)."""
    signal.set_wakeup_fd(-1)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    os.close(devnull)
    level = obs.current_level()
    obs.disable()
    tracectx.clear_trace()
    if obs_sink is not None:
        obs.enable(sink_path=obs_sink, level=level)


def spawn_worker(
    endpoint: Endpoint,
    worker_id: str,
    obs_sink: Optional[str] = None,
) -> ForkedWorker:
    """Fork this process into one cluster worker.

    The child runs :func:`repro.cluster.worker.run_worker` — what
    ``repro cluster worker`` runs — against ``endpoint`` and leaves
    with :func:`os._exit` and its exit code (0 drained, 2 scheduler
    unreachable or protocol error, 1 anything else), so it never runs
    the parent's atexit hooks or returns into the caller.  It records
    obs events to ``obs_sink`` at the parent's level, or none; its
    jobs adopt the trace context their lease carries.  POSIX only.
    """
    pid = os.fork()
    if pid:
        return ForkedWorker(pid)
    code = 1
    try:
        _reset_forked_worker(obs_sink)
        code = run_worker(endpoint, worker_id)
    finally:
        os._exit(code)


def run_cluster(
    spec: CampaignSpec,
    store_root,
    workers: int = 2,
    endpoint: Optional[Endpoint] = None,
    resume: bool = False,
    lease_seconds: float = 30.0,
    heartbeat_seconds: float = 1.0,
    obs_shards: bool = False,
    obs_sink: Optional[str] = None,
    drill_kill_worker: Optional[int] = None,
    on_event: Optional[Callable[[str], None]] = None,
    deadline_seconds: Optional[float] = 600.0,
) -> dict:
    """Run one campaign on a local fleet of workers forked from this
    process (:func:`spawn_worker`).

    The spec's experiment is resolved here, before the fork, so every
    worker inherits it already imported, and an unknown experiment
    raises :class:`KeyError` before anything is written.
    Blocks until the campaign finalizes, reaps the workers, and
    returns the outcome counts.

    A worker that a signal kills while the campaign still runs is
    replaced by a fresh fork under the next free id (``w<N>``), so one
    bad job never kills a campaign, even with one worker.  Replacements
    are bounded by the campaign's attempt budget (pending jobs times
    ``max_retries + 1``).  Raises :class:`FleetExitedError` (naming the
    exit codes) as soon as no worker is left with the campaign still
    running — the workers exited with an exit code, or signal deaths
    used up the bound — and :class:`TimeoutError` when
    ``deadline_seconds`` (``None``: no deadline) pass first.

    ``drill_kill_worker=N`` SIGKILLs the first worker right after the
    Nth job completes — the lease/disconnect recovery drill.
    ``obs_shards`` points each worker's obs sink at
    ``<store>/shard-<worker_id>/obs.jsonl``; ``obs_sink`` instead gives
    every worker the *same* sink path (one merged JSONL file — fine for
    smoke-scale fleets, where one-line appends don't interleave), which
    together with the scheduler writing to the same file yields a
    single self-contained sink whose span tree ``obs report --trace``
    can stitch with no extra globbing.
    """
    get_experiment(spec.experiment)
    scheduler = ClusterScheduler(
        lease_seconds=lease_seconds,
        heartbeat_seconds=heartbeat_seconds,
        on_event=on_event,
    )
    campaign_id = scheduler.submit(spec, store_root, resume=resume)
    exec_ = scheduler.campaigns[campaign_id]
    respawns_left = exec_.queue.pending_count * (spec.max_retries + 1)

    def emit(message: str) -> None:
        if on_event is not None:
            on_event(message)

    async def _drive() -> dict:
        nonlocal respawns_left
        loop = asyncio.get_running_loop()
        procs: list[ForkedWorker] = []  # index i runs as worker w<i>
        exits: dict[asyncio.Future, int] = {}  # live worker's wait -> i
        drilled = False

        def drill() -> None:
            nonlocal drilled
            if (
                drilled
                or drill_kill_worker is None
                or exec_.queue.done_count < drill_kill_worker
                or procs[0].poll() is not None
            ):
                return
            drilled = True
            procs[0].kill()
            obs.counter_add("cluster.drill_kills")
            emit(
                f"drill: SIGKILLed worker w0 after "
                f"{exec_.queue.done_count} results"
            )

        server = SchedulerServer(
            scheduler,
            endpoint or Endpoint(kind="tcp", host="127.0.0.1", port=0),
            on_result=drill,
        )
        await server.start()

        def start_worker() -> str:
            # A respawn forks while executor threads sit in waitpid on
            # the other workers; they hold no lock the child touches.
            worker_id = f"w{len(procs)}"
            sink = obs_sink
            if obs_shards:
                shard_root = exec_.store.shard_store(worker_id).root
                shard_root.mkdir(parents=True, exist_ok=True)
                sink = str(shard_root / "obs.jsonl")
            procs.append(spawn_worker(server.endpoint, worker_id, obs_sink=sink))
            exits[loop.run_in_executor(None, procs[-1].wait)] = len(procs) - 1
            return worker_id

        draining = asyncio.ensure_future(server.draining.wait())
        deadline = (
            None if deadline_seconds is None else loop.time() + deadline_seconds
        )
        try:
            # A campaign with nothing left to run finalized at submit.
            for _ in range(max(1, workers) if scheduler.active() else 0):
                start_worker()
            while exits and not draining.done():
                done, _ = await asyncio.wait(
                    {draining, *exits},
                    timeout=(
                        None if deadline is None
                        else max(0.0, deadline - loop.time())
                    ),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    raise TimeoutError(
                        f"cluster run exceeded {deadline_seconds}s deadline"
                    )
                for exited in done & exits.keys():
                    index = exits.pop(exited)
                    code = procs[index].returncode
                    if code < 0 and scheduler.active() and respawns_left > 0:
                        respawns_left -= 1
                        obs.counter_add("cluster.workers_respawned")
                        emit(
                            f"worker w{index} killed by signal {-code}; "
                            f"respawned as {start_worker()}"
                        )
            if scheduler.active():
                codes = ", ".join(
                    f"w{index}={proc.returncode}"
                    for index, proc in enumerate(procs)
                )
                raise FleetExitedError(
                    f"every worker exited before {campaign_id} finished "
                    f"(exit codes: {codes})"
                )
            # Campaign finalized; let workers see the drain reply.
            if exits:
                await asyncio.wait(set(exits), timeout=10.0)
        finally:
            draining.cancel()
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            await server.stop()
        counts = dict(exec_.counts)
        counts["skipped"] = exec_.skipped
        return {
            "campaign_id": campaign_id,
            "state": exec_.state,
            "counts": counts,
            "retries": exec_.retries,
            "elapsed_seconds": (
                (exec_.finished_at or scheduler.clock()) - exec_.started_at
            ),
            "store": str(exec_.store.root),
        }

    return asyncio.run(_drive())
