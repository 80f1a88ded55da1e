"""``remi serve``: the concurrent NDJSON-over-TCP network layer.

One resident :class:`~repro.service.facade.MiningService` serves many
concurrent clients.  The wire protocol is newline-delimited JSON both
ways: each client line is one envelope request
(:mod:`repro.service.envelopes` — including the untyped ``remi batch``
legacy forms), each server line one versioned response.  Responses
stream back as soon as each request completes, so a slow mine does not
head-of-line-block a fast one — clients correlate by ``id``.

Concurrency model:

* **bounded worker pool** — mining runs on a fixed
  :class:`~concurrent.futures.ThreadPoolExecutor`; the asyncio loop only
  parses, schedules and writes.
* **MVCC snapshot reads** — the only read path: every query serves from
  the immutable epoch session it loaded
  (:meth:`~repro.service.facade.MiningService.enable_snapshots`), so
  **reads never wait for writes** and writes never wait for reads.  The
  server therefore needs a snapshot-capable KB (the interned store or a
  KB image); any other backend is rejected with ``TypeError``.
* **one update lock** (an :class:`asyncio.Lock`) serializes updates
  against each other, together with their replica fan-out and the
  supervisor's bootstrap/admit phases; each update mutates the live KB
  and publishes the next epoch session before its response is written.
* **router mode** (``remi serve --workers N``): a
  :class:`~repro.service.workers.WorkerPool` of N spawned processes each
  holds an epoch replica of the KB (rehydrated from
  :mod:`repro.kb.wire` bytes).  ``mine``/``describe`` dispatch to any
  replica — true multi-core scaling, the GIL no longer serializes
  mining — while updates apply to the router's authoritative KB under
  the update lock and then fan to every replica in epoch lock-step
  before the response is written (read-your-writes holds across
  processes).  ``--workers 0`` keeps the single-process path as the
  bit-identical differential reference.
* **same-connection ordering**: an update flushes that connection's own
  pending queries first and the next line is only read after the
  update's response, so a client that sends ``mine, update, mine``
  observes the second mine against the mutated KB — read-your-writes,
  exactly like :meth:`~repro.core.batch.BatchMiner.serve_jsonl`.
* **backpressure** — at most ``max_pending`` requests may be in flight;
  beyond that the server stops reading sockets, which TCP propagates to
  the clients.
* **graceful drain** — a ``{"type": "shutdown"}`` line (or
  :meth:`MiningServer.drain`, or SIGINT on the CLI) stops accepting,
  lets every in-flight request finish and answer, then closes.  The
  drain task is held (never GC'd mid-flight); a drain failure is logged
  and re-raised from :meth:`MiningServer.serve_until_drained`.

Run it::

    remi serve kb.hdt --port 8757 --pool 4

or in-process (the test/bench harness does this)::

    server = MiningServer(MiningService(kb), port=0)
    await server.start()            # port 0 → ephemeral, see server.port
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, Optional, Set

from repro.core.batch import ERR_BAD_REQUEST
from repro.service.envelopes import (
    ERR_TIMEOUT,
    PROTOCOL_VERSION,
    Response,
    request_id_of,
    request_kind_of,
)
from repro.service.facade import MiningService
from repro.service.supervisor import FleetSupervisor
from repro.service.workers import WorkerPool, WorkerPoolError, WorkerTimeout

_LOG = logging.getLogger(__name__)


class MiningServer:
    """A concurrent NDJSON-over-TCP front end for one :class:`MiningService`.

    Parameters
    ----------
    service:
        The façade all requests route through.  Construction switches it
        to MVCC snapshot reads; a KB without snapshot support raises
        ``TypeError``.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    pool_workers:
        Threads in the mining pool — the request-level parallelism.
    max_pending:
        In-flight request bound; beyond it the server stops reading
        sockets (backpressure).
    workers:
        An optional :class:`~repro.service.workers.WorkerPool` of
        process replicas — router mode.  ``mine``/``describe`` requests
        dispatch to a replica (falling back to the local façade when the
        pool is unusable); applied updates fan to every replica under
        the update lock, before the update's response is written.
        The pool's lifecycle belongs to its creator: :meth:`start`
        starts it (idempotent), but :meth:`drain` never stops it, so one
        pool can outlive several servers (the bench reuses one across
        tiers).
    supervise:
        In router mode, run a :class:`~repro.service.supervisor.
        FleetSupervisor` over the pool for the server's lifetime
        (heartbeats, crash detection, respawns under this server's
        update lock).  Knobs come from the service config
        (``heartbeat_interval`` etc.); an interval of ``0`` disables the
        loop even when this is True.  The supervisor — unlike the pool —
        belongs to the server: :meth:`drain` stops it.
    """

    def __init__(
        self,
        service: MiningService,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_workers: int = 4,
        max_pending: int = 32,
        workers: Optional[WorkerPool] = None,
        supervise: bool = True,
    ):
        if pool_workers < 1:
            raise ValueError(f"pool_workers must be ≥ 1, got {pool_workers}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be ≥ 1, got {max_pending}")
        service.enable_snapshots()
        self.service = service
        self.host = host
        self.port = port
        self.pool_workers = pool_workers
        self.max_pending = max_pending
        self.requests_in_flight = 0
        #: Responses that could not be delivered because the client had
        #: already disconnected (the request still completed and its
        #: accounting balanced — see :meth:`_send`).
        self.responses_dropped = 0
        #: Replica request deadlines that fired; each one answered its
        #: client with a typed ``timeout`` error envelope.
        self.request_timeouts = 0
        self._workers = workers
        self._supervise = supervise
        self._supervisor: Optional[FleetSupervisor] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._update_lock = asyncio.Lock()
        self._inflight: Optional[asyncio.Semaphore] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        self._draining = False
        self._done: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._drain_error: Optional[BaseException] = None

    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and begin accepting; returns once listening."""
        if self._workers is not None:
            # Spawning replicas blocks on process startup + wire
            # rehydration; keep the loop responsive while they come up.
            await asyncio.get_running_loop().run_in_executor(
                None, self._workers.start
            )
            if self._supervise:
                config = self.service.config
                self._supervisor = FleetSupervisor(
                    self._workers,
                    exclusive=self._update_lock,
                    heartbeat_interval=config.heartbeat_interval,
                    max_restarts=config.max_restarts,
                    backoff_base=config.restart_backoff,
                )
                self._supervisor.start()
        self._pool = ThreadPoolExecutor(
            max_workers=self.pool_workers, thread_name_prefix="remi-serve"
        )
        self._inflight = asyncio.Semaphore(self.max_pending)
        self._done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def workers(self) -> Optional[WorkerPool]:
        """The process-replica pool when running in router mode."""
        return self._workers

    @property
    def supervisor(self) -> Optional[FleetSupervisor]:
        """The fleet supervisor, when router mode runs supervised."""
        return self._supervisor

    def telemetry(self) -> Dict:
        """Serving counters for the ``stats`` envelope and the CLI's
        shutdown summary: delivery accounting plus, in router mode, the
        pool's fan-out/epoch numbers."""
        info: Dict = {
            "responses_dropped": self.responses_dropped,
            "requests_in_flight": self.requests_in_flight,
            "request_timeouts": self.request_timeouts,
        }
        if self._workers is not None:
            info["workers"] = self._workers.stats()
        return info

    async def serve_until_drained(self) -> None:
        """Block until a drain completes (shutdown request or :meth:`drain`).

        Re-raises the failure when the drain itself broke — a swallowed
        drain error would report a clean shutdown that never happened.
        """
        assert self._done is not None, "call start() first"
        await self._done.wait()
        if self._drain_error is not None:
            raise self._drain_error

    async def drain(self) -> None:
        """Graceful stop: no new connections, in-flight requests finish
        and answer, then sockets close and the pool shuts down.

        Always releases :meth:`serve_until_drained` waiters — a failure
        mid-drain is recorded (and re-raised, both here and there)
        instead of leaving them blocked forever.
        """
        if self._draining:
            await self.serve_until_drained()
            return
        self._draining = True
        try:
            await self._drain_inner()
        except BaseException as exc:
            self._drain_error = exc
            raise
        finally:
            assert self._done is not None
            self._done.set()

    async def _drain_inner(self) -> None:
        assert self._server is not None
        if self._supervisor is not None:
            # Stop supervising before the pool's owner can stop the pool
            # — a respawn racing the teardown would spawn into a fleet
            # that is being reaped.
            await self._supervisor.stop()
        self._server.close()
        await self._server.wait_closed()
        # In-flight requests (on EVERY connection, not just the one that
        # asked to shut down) finish and ANSWER before any socket closes
        # — re-checked in a loop because a handler mid-read may schedule
        # one more request while we wait.
        while self._request_tasks:
            await asyncio.gather(*list(self._request_tasks), return_exceptions=True)
        # Idle connections sit blocked in readline(); closing their
        # transport unblocks them so their handlers can flush and exit.
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        current = asyncio.current_task()
        pending = [t for t in self._conn_tasks if t is not current]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        assert self._pool is not None
        self._pool.shutdown(wait=True)

    def _log_drain_result(self, task: "asyncio.Task") -> None:
        """Done-callback for the held shutdown-triggered drain task:
        retrieves the exception (so the loop never warns about it being
        unretrieved) and logs it; the stored ``_drain_error`` already
        surfaces it to :meth:`serve_until_drained` callers."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            _LOG.error("graceful drain failed: %r", exc)

    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        pending: Set[asyncio.Task] = set()
        line_no = 0
        try:
            while not self._draining:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                line_no += 1
                stripped = line.strip()
                if not stripped or stripped.startswith(b"#"):
                    continue
                try:
                    payload = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    await self._send(
                        writer,
                        write_lock,
                        Response.failure(
                            str(line_no),
                            "?",
                            f"line {line_no}: invalid JSON ({exc})",
                            ERR_BAD_REQUEST,
                            line=line_no,
                        ).to_json(),
                    )
                    continue
                is_typed = isinstance(payload, dict)
                kind = payload.get("type") if is_typed else None
                if kind == "shutdown":
                    await self._flush(pending)
                    await self._send(
                        writer,
                        write_lock,
                        {
                            "v": PROTOCOL_VERSION,
                            "id": str(payload.get("id", line_no)),
                            "kind": "shutdown",
                            "ok": True,
                            "result": {"draining": True},
                        },
                    )
                    # Hold the drain task: an untracked ensure_future can
                    # be GC'd mid-flight and swallows any drain failure.
                    task = asyncio.ensure_future(self.drain())
                    self._drain_task = task
                    task.add_done_callback(self._log_drain_result)
                    break
                if kind == "update" or (is_typed and kind is None and "op" in payload):
                    # This connection's own queries first (ordering),
                    # then the update lock.  In router mode the fan-out
                    # happens under the lock and before the response:
                    # when the client reads the update's ack, every
                    # replica has applied it — read-your-writes holds
                    # across processes.
                    await self._flush(pending)
                    async with self._update_lock:
                        record = await self._run(payload, line_no)
                        await self._fan_out(payload, line_no, record)
                    await self._send(writer, write_lock, record)
                    continue
                assert self._inflight is not None
                await self._inflight.acquire()  # backpressure: stop reading when full
                self.requests_in_flight += 1
                query = asyncio.ensure_future(
                    self._answer_query(payload, line_no, writer, write_lock)
                )
                pending.add(query)
                query.add_done_callback(pending.discard)
                self._request_tasks.add(query)
                query.add_done_callback(self._request_tasks.discard)
            await self._flush(pending)
        finally:
            self._connections.discard(writer)
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                if not writer.is_closing():
                    writer.close()

    async def _answer_query(
        self,
        payload,
        line_no: int,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        # The balance of _handle_connection's acquire: exactly one
        # release + decrement per admitted query, no matter what the
        # handler or the socket does (the finally also covers a _send
        # that raises because the client disconnected mid-reply).
        try:
            # MVCC: the query pins its epoch session inside the façade,
            # so it never waits for the update lock.
            record = await self._dispatch(payload, line_no)
            await self._send(writer, write_lock, record)
        finally:
            self.requests_in_flight -= 1
            assert self._inflight is not None
            self._inflight.release()

    async def _run(self, payload, line_no: int) -> Dict:
        """Hand one decoded payload to the façade on the worker pool."""
        loop = asyncio.get_running_loop()
        assert self._pool is not None
        return await loop.run_in_executor(
            self._pool, partial(self.service.handle_json, payload, line=line_no)
        )

    @staticmethod
    def _routes_to_replica(payload) -> bool:
        """Whether a query payload may be served by a worker replica.

        Mirrors :func:`~repro.service.envelopes.parse_request`'s legacy
        dispatch: a bare list and a typeless dict without ``op`` are
        mine requests; updates and stats stay on the router (updates
        mutate the authoritative KB, stats report router telemetry)."""
        if isinstance(payload, list):
            return True
        if not isinstance(payload, dict):
            return False  # malformed; the local façade shapes the error
        kind = payload.get("type")
        if kind is None:
            return "op" not in payload
        return kind in ("mine", "describe")

    async def _dispatch(self, payload, line_no: int) -> Dict:
        """Route one query: replica in router mode, local façade
        otherwise — and always local when the pool cannot answer (every
        replica dead), so scale-out never costs availability."""
        if self._workers is not None and self._routes_to_replica(payload):
            try:
                return await self._workers.request(payload, line_no)
            except WorkerTimeout as exc:
                # The deadline is the latency contract: no local retry
                # (it would double the client-visible worst case), a
                # typed error envelope instead — never a hung client.
                # The wedged replica is already terminated; the
                # supervisor respawns it.
                self.request_timeouts += 1
                _LOG.warning("replica request deadline expired (%s)", exc)
                return Response.failure(
                    request_id_of(payload, line_no),
                    request_kind_of(payload),
                    str(exc),
                    ERR_TIMEOUT,
                    line=line_no,
                ).to_json()
            except WorkerPoolError as exc:
                _LOG.warning("worker pool unavailable (%s); serving locally", exc)
        record = await self._run(payload, line_no)
        if (
            isinstance(payload, dict)
            and payload.get("type") == "stats"
            and record.get("ok")
        ):
            # Serving telemetry rides on the stats envelope: delivery
            # accounting plus the pool's per-replica epochs in router
            # mode (how the smoke client checks fan-out landed).
            record.setdefault("result", {})["server"] = self.telemetry()
        return record

    async def _fan_out(self, payload, line_no: int, record: Dict) -> None:
        """Replicate one applied update to every worker, under the
        caller's update lock.  No-op outside router mode, for failed
        updates, and for ineffective ones (content unchanged ⇒ replicas
        already exact; the router's epoch did not move either)."""
        if self._workers is None or not record.get("ok"):
            return
        if not record.get("result", {}).get("applied"):
            return
        try:
            await self._workers.broadcast_update(
                payload, line_no, expect_epoch=self.service.kb.epoch
            )
        except WorkerPoolError as exc:
            _LOG.warning("update fan-out failed (%s)", exc)

    @staticmethod
    async def _flush(pending: Set[asyncio.Task]) -> None:
        if pending:
            await asyncio.gather(*list(pending), return_exceptions=True)

    async def _send(
        self, writer: asyncio.StreamWriter, write_lock: asyncio.Lock, record: Dict
    ) -> None:
        """Write one response line; a client gone mid-reply is normal.

        Never raises for transport failures: the caller's accounting
        (semaphore, in-flight counter) must settle exactly once whether
        or not the response was deliverable, and a half-dead socket can
        fail in ``write`` as well as in ``drain``.  Undeliverable
        responses are counted in :attr:`responses_dropped`.
        """
        data = json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n"
        async with write_lock:  # responses from overlapping tasks must not interleave
            if writer.is_closing():
                self.responses_dropped += 1
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                self.responses_dropped += 1


async def run_server(
    service: MiningService,
    host: str = "127.0.0.1",
    port: int = 8757,
    pool_workers: int = 4,
    max_pending: int = 32,
    ready=None,
    workers: Optional[WorkerPool] = None,
    on_summary=None,
) -> None:
    """Start a server and block until it drains (the CLI entry point).

    *ready*, when given, is called once with the bound ``(host, port)`` —
    the CLI prints the listening line from it so wrappers can wait for
    readiness on stderr.  *workers* routes queries to a process-replica
    pool (see :class:`MiningServer`); its lifecycle stays with the
    caller.  *on_summary*, when given, receives the server's final
    :meth:`~MiningServer.telemetry` after the drain — even a failed one
    — so the CLI can print the shutdown summary.
    """
    server = MiningServer(
        service,
        host=host,
        port=port,
        pool_workers=pool_workers,
        max_pending=max_pending,
        workers=workers,
    )
    await server.start()
    if ready is not None:
        ready((server.host, server.port))
    try:
        await server.serve_until_drained()
    except asyncio.CancelledError:
        await server.drain()
        raise
    finally:
        if on_summary is not None:
            on_summary(server.telemetry())


__all__ = ["MiningServer", "run_server"]
