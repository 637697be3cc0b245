"""Network serving tier: a socket facade in front of :class:`EstimationServer`.

A length-prefixed JSON protocol (``service/wire.py``) served by a
thread-per-connection front end puts a real wire — codec, syscalls,
TCP — between clients and the micro-batching server, so a client may
live in another process or on another machine.

Verbs (the ``op`` field of each request frame):

* ``bound`` — one query, one bound.  Admission control surfaces as a
  typed response: ``{"ok": false, "error": "overloaded", "queue_depth":
  n, "max_queue": m, "retry_after_ms": t}`` — the client's cue to back
  off, never a dropped connection.
* ``bound_batch`` — several queries; per-item results so one overloaded
  slot does not discard the computed remainder.
* ``metrics`` — the server's ``metrics_snapshot()``: one flat dict of
  its own ``server.*`` counters and latency histograms, the installed
  ``repro.obs`` registry's metrics when one is installed, and the
  ``health`` and ``conditioning_cache`` blocks.
* ``health`` — liveness plus the served statistics version and the
  catalog generation.

Malformed input degrades per-connection: a bad frame gets a
``bad_request`` response (when the stream is still framed) and the
connection is closed; the listener and every other connection keep
serving.

:class:`NetClient` is the thin typed client.  :func:`connect_clients`
opens one per thread of :func:`~repro.service.server.generate_load`,
the load generator for both the in-process server and this tier.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, replace

from ..db.query import Query
from . import faults
from .server import EstimationServer, ServerOverloadedError
from .wire import (
    FrameError,
    MAX_FRAME_BYTES,
    encode_frame,
    query_from_wire,
    query_to_wire,
    read_frame,
    wire_to_float,
    write_frame,
)

__all__ = [
    "NetServer",
    "NetClient",
    "NetRequestError",
    "ConnectTimeoutError",
    "DeadlineExceededError",
    "RetryPolicy",
    "connect_clients",
]


class NetRequestError(RuntimeError):
    """The server answered a request with a non-overload error."""

    def __init__(self, error: str, detail: str = "") -> None:
        super().__init__(f"{error}: {detail}" if detail else error)
        self.error = error
        self.detail = detail


class ConnectTimeoutError(ConnectionError):
    """No connection could be established within the deadline budget."""


class DeadlineExceededError(TimeoutError):
    """A retried call exhausted its deadline/attempt budget.

    ``last_error`` is the final underlying failure (reset, overload,
    server error) — the reason the budget ran out, preserved so callers
    and logs can tell a flaky network from a saturated server."""

    def __init__(self, message: str, last_error: Exception | None = None) -> None:
        super().__init__(message)
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry/timeout/backoff budget for one call.

    A call (``bound``/``bound_batch``/``metrics``/``health``) gets at
    most ``deadline_seconds`` of wall clock and ``max_attempts``
    attempts; between attempts the client sleeps an exponentially
    growing backoff (``initial_backoff_seconds`` ×
    ``backoff_multiplier``^attempt, capped at ``max_backoff_seconds``),
    raised to the server's ``retry_after_ms`` hint when an overload
    response carries one, and multiplied by up to ``1 + jitter`` of
    seeded randomness so a fleet of backing-off clients does not
    stampede in phase.  ``seed`` makes the jitter stream deterministic
    (chaos tests replay exactly); None seeds from the OS.

    Connection failures, resets and torn frames reconnect and retry;
    ``overloaded`` / ``unavailable`` / ``server_error`` responses retry;
    ``bad_request`` never retries — resending a malformed request cannot
    help.  A call that exhausts its budget raises
    :class:`DeadlineExceededError` carrying the last underlying failure.
    """

    max_attempts: int = 6
    deadline_seconds: float = 30.0
    initial_backoff_seconds: float = 0.01
    max_backoff_seconds: float = 1.0
    backoff_multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = None

    def backoff_seconds(
        self,
        attempt: int,
        rng: random.Random,
        retry_after_ms: float | None = None,
    ) -> float:
        base = min(
            self.max_backoff_seconds,
            self.initial_backoff_seconds * self.backoff_multiplier**attempt,
        )
        if retry_after_ms is not None:
            try:
                base = max(base, float(retry_after_ms) / 1000.0)
            except (TypeError, ValueError):
                pass
        if self.jitter > 0:
            base *= 1.0 + self.jitter * rng.random()
        return base


class NetServer:
    """A thread-per-connection socket front end over an estimation server.

    The protocol layer adds no policy of its own: admission control,
    batching, hot swap and metrics all live in the
    :class:`EstimationServer` (and below); this class only translates
    frames to ``submit`` calls and results/errors back to frames.
    """

    def __init__(
        self,
        server: EstimationServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        backlog: int = 128,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.max_frame_bytes = max_frame_bytes
        self.backlog = backlog
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()
        self._stopping = False
        self.connections_served = 0
        self.frame_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "NetServer":
        if self._listener is not None:
            raise RuntimeError("network server already started")
        listener = socket.create_server(
            (self.host, self.port), backlog=self.backlog, reuse_port=False
        )
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._stopping = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="net-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        listener, self._listener = self._listener, None
        if listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does (accept fails with EINVAL), so the
            # accept thread exits now instead of at the join timeout.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(5.0)
            self._accept_thread = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def __enter__(self) -> "NetServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping and listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                break  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                if self._stopping:
                    conn.close()
                    break
                self._connections.add(conn)
            self.connections_served += 1
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = read_frame(conn, self.max_frame_bytes)
                except FrameError as exc:
                    # The stream may be unframed garbage at this point, so
                    # answer once (best-effort) and drop the connection.
                    self.frame_errors += 1
                    try:
                        write_frame(
                            conn,
                            {"ok": False, "error": "bad_request", "detail": str(exc)},
                        )
                    except OSError:
                        pass
                    return
                if request is None:
                    return  # client closed cleanly
                try:
                    response = self._handle(request)
                except Exception as exc:
                    # _handle answers expected failures as typed error
                    # responses; anything escaping it is a server bug,
                    # which the client must still hear about rather than
                    # see an unexplained connection close.
                    response = {
                        "ok": False,
                        "error": "server_error",
                        "detail": repr(exc),
                    }
                # Chaos sites on the response path: "net.connection.reset"
                # drops the connection before any reply byte (the
                # InjectedFault is an OSError — the handler below treats
                # it exactly like a real reset); "net.response.stall"
                # (a sleep spec) holds the reply past the client's read
                # timeout; "net.response.partial" sends a torn frame and
                # drops the connection mid-reply.
                faults.fire("net.connection.reset")
                faults.fire("net.response.stall")
                try:
                    blob = encode_frame(response)
                except FrameError as exc:
                    # The response exceeded the frame cap.  Encoding runs
                    # before any byte is sent, so the stream is still
                    # framed: answer with a small error frame, then drop
                    # the connection — mirroring the read-side handling.
                    self.frame_errors += 1
                    try:
                        write_frame(
                            conn,
                            {"ok": False, "error": "server_error", "detail": str(exc)},
                        )
                    except OSError:
                        pass
                    return
                sent = faults.corrupt(
                    "net.response.partial", blob, lambda b: b[: max(1, len(b) // 2)]
                )
                conn.sendall(sent)
                if sent is not blob:
                    return  # injected partial write: drop mid-frame
        except OSError:
            pass  # connection reset / server stopping
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op == "bound":
            return self._handle_bound(request)
        if op == "bound_batch":
            return self._handle_bound_batch(request)
        if op == "metrics":
            return {"ok": True, "metrics": self.server.metrics_snapshot()}
        if op == "health":
            return self._handle_health()
        return {"ok": False, "error": "bad_request", "detail": f"unknown op {op!r}"}

    def _overloaded(self, exc: ServerOverloadedError) -> dict:
        return {
            "ok": False,
            "error": "overloaded",
            "detail": str(exc),
            "queue_depth": getattr(exc, "queue_depth", None),
            "max_queue": getattr(exc, "max_queue", None),
            "retry_after_ms": 1.0,
        }

    def _handle_bound(self, request: dict) -> dict:
        try:
            query = query_from_wire(request.get("query"))
        except (ValueError, TypeError, KeyError) as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        try:
            future = self.server.submit(query)
        except ServerOverloadedError as exc:
            return self._overloaded(exc)
        except RuntimeError as exc:  # server stopped / not accepting
            return {"ok": False, "error": "unavailable", "detail": str(exc)}
        try:
            return {"ok": True, "bound": future.result(self.request_timeout)}
        except Exception as exc:
            return {"ok": False, "error": "server_error", "detail": repr(exc)}

    def _handle_bound_batch(self, request: dict) -> dict:
        payload = request.get("queries")
        if not isinstance(payload, list):
            return {
                "ok": False,
                "error": "bad_request",
                "detail": "'queries' must be a list",
            }
        try:
            queries = [query_from_wire(q) for q in payload]
        except (ValueError, TypeError, KeyError) as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}
        # One submit_many call: the admitted items reach the batcher as
        # one queue entry, so the frame is served together.  Per-item
        # status, so one overloaded admission does not discard the rest.
        slots: list[dict] = []
        for slot in self.server.submit_many(queries):
            if isinstance(slot, ServerOverloadedError):
                slots.append(self._overloaded(slot))
            elif isinstance(slot, Exception):
                slots.append({"ok": False, "error": "unavailable", "detail": str(slot)})
            else:
                try:
                    slots.append({"ok": True, "bound": slot.result(self.request_timeout)})
                except Exception as exc:
                    slots.append(
                        {"ok": False, "error": "server_error", "detail": repr(exc)}
                    )
        return {"ok": True, "results": slots}

    def _handle_health(self) -> dict:
        estimator = self.server.estimator
        info = {"ok": True, "pid": os.getpid()}
        health = getattr(self.server, "health_status", None)
        if callable(health):
            # ok / degraded / stopped plus the liveness/readiness split
            # and the degradation reason — the supervisor-facing verdict.
            info.update(health())
        else:
            info["status"] = "ok" if self.server.running else "stopped"
        version = getattr(estimator, "version", None)
        if version is not None:
            info["version"] = version
        generation = getattr(estimator, "generation", None)
        if callable(generation):
            try:
                info["generation"] = generation()
            except Exception:
                pass
        return info


class NetClient:
    """A blocking request/response client for one server connection.

    Not thread-safe: a connection carries one in-flight request at a
    time, so give each client thread its own ``NetClient`` (they are one
    socket each).  Overload responses raise
    :class:`~repro.service.server.ServerOverloadedError`, so retry logic
    written against the in-process server works unchanged over the wire.

    Connecting is bounded: the constructor keeps retrying refused
    connections for at most ``connect_timeout`` seconds (default
    ``connect_retries × connect_retry_seconds``) and then raises
    :class:`ConnectTimeoutError` — a dead server fails the client fast
    with a typed error instead of spinning until some outer timeout.

    With a :class:`RetryPolicy`, every call runs under its deadline
    budget: connection failures and torn frames reconnect automatically,
    retryable error responses back off (honoring the server's
    ``retry_after_ms`` hint) and retry, and budget exhaustion raises
    :class:`DeadlineExceededError`.  ``retries``/``reconnects`` count
    what the policy actually did.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        connect_retries: int = 40,
        connect_retry_seconds: float = 0.25,
        connect_timeout: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_retry_seconds = connect_retry_seconds
        self.connect_timeout = (
            connect_timeout
            if connect_timeout is not None
            else max(1, connect_retries) * connect_retry_seconds
        )
        self.retry = retry
        self._rng = random.Random(retry.seed if retry is not None else None)
        self.retries = 0
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._connect(time.monotonic() + self.connect_timeout)

    def _connect(self, deadline: float) -> None:
        """Establish the connection, retrying refused attempts until
        ``deadline``; raises :class:`ConnectTimeoutError` past it."""
        last_error: Exception | None = None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 and last_error is not None:
                raise ConnectTimeoutError(
                    f"could not connect to {self.host}:{self.port} within "
                    f"budget: {last_error}"
                ) from last_error
            try:
                sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=min(self.timeout, max(remaining, 0.001)),
                )
            except OSError as exc:
                last_error = exc
                time.sleep(
                    max(0.0, min(self.connect_retry_seconds, deadline - time.monotonic()))
                )
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.timeout)
            self._sock = sock
            return

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "NetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, payload: dict) -> dict:
        """One raw request/response exchange, no retries."""
        sock = self._sock
        if sock is None:
            raise ConnectionError("client is not connected")
        write_frame(sock, payload)
        response = read_frame(sock)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    @staticmethod
    def _error_for(response: dict) -> Exception:
        error = response.get("error", "unknown")
        if error == "overloaded":
            exc = ServerOverloadedError(response.get("detail", "server overloaded"))
            exc.queue_depth = response.get("queue_depth")
            exc.max_queue = response.get("max_queue")
            exc.retry_after_ms = response.get("retry_after_ms")
            return exc
        return NetRequestError(error, response.get("detail", ""))

    @classmethod
    def _raise_for(cls, response: dict) -> None:
        raise cls._error_for(response)

    _RETRYABLE_ERRORS = ("overloaded", "unavailable", "server_error")

    def _call(self, payload: dict) -> dict:
        """One request under the retry policy (or a single raw attempt).

        A successful response is returned; a non-retryable error
        response raises immediately; everything else — resets, torn
        frames, stalled reads past the socket timeout, retryable error
        responses — reconnects/backs off and retries until the policy's
        deadline or attempt budget runs out.
        """
        policy = self.retry
        if policy is None:
            response = self.request(payload)
            if not response.get("ok"):
                self._raise_for(response)
            return response
        deadline = time.monotonic() + policy.deadline_seconds
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            retry_after = None
            try:
                if self._sock is None:
                    self._connect(deadline)
                    self.reconnects += 1
                # The read must give up while budget remains: a stalled
                # response consumes this attempt, not the whole deadline.
                self._sock.settimeout(min(self.timeout, remaining))
                response = self.request(payload)
            except (FrameError, OSError) as exc:
                # OSError covers resets, refused reconnects and socket
                # timeouts; FrameError covers a frame torn mid-stream.
                # The connection state is unknown — drop and redial.
                last_error = exc
                self._drop_connection()
            else:
                if response.get("ok"):
                    if self._sock is not None:
                        self._sock.settimeout(self.timeout)
                    return response
                if response.get("error") not in self._RETRYABLE_ERRORS:
                    self._raise_for(response)
                last_error = self._error_for(response)
                retry_after = response.get("retry_after_ms")
            if attempt + 1 >= policy.max_attempts:
                break
            delay = policy.backoff_seconds(attempt, self._rng, retry_after)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self.retries += 1
            time.sleep(min(delay, remaining))
        raise DeadlineExceededError(
            f"{payload.get('op', 'request')!r} exhausted its retry budget "
            f"({policy.max_attempts} attempts / {policy.deadline_seconds:g}s): "
            f"{last_error!r}",
            last_error,
        )

    def bound(self, query: "Query | dict") -> float:
        """The bound of one query (a :class:`Query` or its wire form)."""
        wire = query if isinstance(query, dict) else query_to_wire(query)
        response = self._call({"op": "bound", "query": wire})
        return wire_to_float(response["bound"])

    def bound_batch(self, queries) -> list[float]:
        """Bounds for several queries; raises on the first failed slot."""
        wires = [q if isinstance(q, dict) else query_to_wire(q) for q in queries]
        response = self._call({"op": "bound_batch", "queries": wires})
        bounds = []
        for slot in response["results"]:
            if not slot.get("ok"):
                self._raise_for(slot)
            bounds.append(wire_to_float(slot["bound"]))
        return bounds

    def metrics(self) -> dict:
        return self._call({"op": "metrics"})["metrics"]

    def health(self) -> dict:
        return self._call({"op": "health"})


@contextlib.contextmanager
def connect_clients(
    host: str,
    port: int,
    count: int,
    *,
    timeout: float = 30.0,
    retry: RetryPolicy | None = None,
):
    """``count`` connected :class:`NetClient` s, closed on exit — one per
    client thread of :func:`~repro.service.server.generate_load`.

    Every client carries ``retry``; a seeded policy is re-seeded to
    ``seed + i`` for client ``i``, so clients backing off together draw
    different jitter and do not retry in phase.
    """
    clients: list[NetClient] = []
    try:
        for i in range(count):
            policy = retry
            if retry is not None and retry.seed is not None:
                policy = replace(retry, seed=retry.seed + i)
            clients.append(NetClient(host, port, timeout=timeout, retry=policy))
        yield clients
    finally:
        for client in clients:
            client.close()
