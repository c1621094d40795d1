"""The cluster wire protocol: JSON lines over TCP or a Unix socket.

One message per line, each a JSON object with a ``type`` field.  The
worker side is strictly request/response for flow control — a worker
sends ``lease`` and reads exactly one of ``job`` / ``drain`` back —
while ``heartbeat``, ``result`` and ``goodbye`` are one-way (the
scheduler never replies to them, so a single reader loop on each side
suffices and messages can never interleave).

A ``lease`` the scheduler cannot serve yet is *parked*, not refused:
the reply is withheld until a job becomes eligible (a requeue, a
retry backoff expiring) or the fleet drains, so an idle
worker simply blocks on its read and nothing polls.  The scheduler
keeps reading the parked worker's heartbeats and ``goodbye`` meanwhile.

Worker → scheduler::

    register   {worker_id, pid, protocol}      -> registered | error
    lease      {worker_id}                     -> job | drain (parked
                                                  until one applies)
    heartbeat  {worker_id}                     (one-way)
    result     {worker_id, campaign_id, lease_id, job_id, status,
                duration, metrics?, error?, timeout_enforced?,
                trace?}                        (one-way)
    goodbye    {worker_id}                     (one-way, then close)

Scheduler → worker::

    registered {heartbeat_seconds, lease_seconds}
    job        {campaign_id, lease_id, job_id, payload, final,
                store_root, trial, trace?}
    drain      {}

``register`` carries :data:`PROTOCOL_VERSION`; a scheduler speaking a
different version replies ``error`` naming both and closes the
connection.  Version 2 dropped version 1's ``idle {retry_after}``
lease reply in favour of parking.

The optional ``trace`` field is the campaign's observability trace
context, ``{trace: <trace_id>, parent: <scheduler campaign span id>}``
(:func:`repro.obs.tracectx.wire_context`).  A worker adopts it for the
duration of the leased job — so the job's spans join the scheduler's
span tree — and echoes it verbatim on the ``result``.  It is absent
when the scheduler runs without observability.

TCP connections set ``TCP_NODELAY``: a worker writes ``result`` and
``lease`` back to back, and Nagle's algorithm would otherwise hold the
``lease`` until the scheduler's delayed ACK fires.

Any other ``type`` is a protocol error: the scheduler closes that one
connection and nothing else.  That includes ``submit``, ``status``,
``cancel`` and ``shutdown``, the control messages of the retired
service mode.

Determinism note: nothing on the wire feeds the job's metrics — the
``payload`` carries the ``(experiment, params, seed)`` triple and
nothing else the experiment reads, so transport cannot perturb
results.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from typing import Optional

PROTOCOL_VERSION = 2

# A line larger than this is a protocol violation, not a big job — the
# largest legitimate message is a result with a metrics dict.
MAX_LINE_BYTES = 4 * 1024 * 1024

# worker -> scheduler
MSG_REGISTER = "register"
MSG_LEASE = "lease"
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_GOODBYE = "goodbye"
# scheduler -> worker
MSG_REGISTERED = "registered"
MSG_JOB = "job"
MSG_DRAIN = "drain"
MSG_ERROR = "error"


class ProtocolError(Exception):
    """A malformed, oversized, or out-of-order protocol message."""


def encode_message(message: dict) -> bytes:
    """One JSON line, ready for the socket."""
    if "type" not in message:
        raise ProtocolError("message has no 'type'")
    data = json.dumps(message, sort_keys=True, separators=(",", ":"))
    line = data.encode("utf-8") + b"\n"
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    return line


def decode_message(line: bytes) -> dict:
    """Parse one received line; raises :class:`ProtocolError` on junk."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable protocol line: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("protocol line is not an object with a 'type'")
    return message


@dataclass(frozen=True)
class Endpoint:
    """Where the scheduler listens: ``tcp`` host/port or a Unix socket.

    Spelled ``unix:/path/to.sock``, ``tcp:host:port``, or bare
    ``host:port`` (tcp).  Unix sockets are the default transport for
    same-host fleets — no port allocation, file permissions for free.
    """

    kind: str  # "tcp" | "unix"
    host: str = ""
    port: int = 0
    path: str = ""

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    def connect(self, timeout: Optional[float] = 30.0) -> socket.socket:
        """Open a client socket to this endpoint."""
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            sock.connect(self.path)
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        return sock


def parse_endpoint(text: str) -> Endpoint:
    """Parse an endpoint string (see :class:`Endpoint` for spellings)."""
    if text.startswith("unix:"):
        path = text[len("unix:"):]
        if not path:
            raise ValueError(f"empty unix socket path in {text!r}")
        return Endpoint(kind="unix", path=path)
    if text.startswith("tcp:"):
        text = text[len("tcp:"):]
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cannot parse endpoint {text!r}; expected unix:/path, "
            f"tcp:host:port, or host:port"
        )
    try:
        port_num = int(port)
    except ValueError as exc:
        raise ValueError(f"bad port in endpoint {text!r}") from exc
    return Endpoint(kind="tcp", host=host, port=port_num)


class MessageStream:
    """Blocking message framing over one socket.

    ``send`` is serialized with a lock so the worker's heartbeat thread
    and its main loop can share the connection; ``recv`` has a single
    caller by protocol design (see module docstring).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, message: dict) -> None:
        """Write one message (thread-safe)."""
        data = encode_message(message)
        with self._send_lock:
            self._sock.sendall(data)

    def recv(self) -> Optional[dict]:
        """Read one message; ``None`` on a clean EOF."""
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            return None
        return decode_message(line.rstrip(b"\n"))

    def close(self) -> None:
        """Tear the connection down, quietly."""
        for closer in (self._reader.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
