"""Multi-process scale-out: epoch-replicated mining workers.

The GIL caps the single-process server at roughly one core no matter how
many threads the pool holds.  The fix is the classic replicated-read topology: the asyncio front door becomes a
**router**, and mining runs in N worker *processes*, each holding a full
replica of the dictionary-encoded KB rehydrated once from
:mod:`repro.kb.wire` bytes (no N-Triples/HDT re-parse, same dense term
IDs, same epoch).

Consistency protocol (epoch lock-step):

* every replica starts from the router KB's wire image, so router and
  replicas share the epoch counter's *meaning*: one applied single-op
  update bumps each copy by exactly one;
* queries (``mine``/``describe``) dispatch to any live replica — least
  in-flight first — and the reply carries the replica's epoch back as
  telemetry;
* updates are applied to the router's authoritative KB first (under the
  server's update lock), then **fanned to every replica**, which
  replays the same envelope through its own façade and rolls its own
  MVCC snapshot session, exactly as the in-process server does;
* after the fan-out the router compares every ack epoch against its own.
  A replica that diverged (crashed mid-apply, missed a delta) is
  **resynced** wholesale from fresh wire bytes — the lock guarantees
  the KB is quiescent, so the image is exact — and the event is counted
  in :attr:`WorkerPool.resyncs` (a healthy run reports zero).

Failure detection is bounded-time, not best-effort: every dispatch round
carries a **request deadline** (:attr:`WorkerPool.request_timeout`).  A
replica that *hangs* instead of crashing — the pipe stays open but no
reply ever comes — trips the deadline, raises a typed
:class:`WorkerTimeout` (the server turns it into a structured error
envelope; the client never hangs), and the wedged process is terminated
on the spot.  Dead and wedged slots are then *respawned* by the
:class:`~repro.service.supervisor.FleetSupervisor` through the
:meth:`prepare_bootstrap` → :meth:`respawn` → :meth:`admit` cycle, the
last step running under the server's update lock so the fresh replica
re-enters dispatch at the router's exact epoch.

Each replica owns one duplex :func:`multiprocessing.Pipe`; the parent
side serializes access per replica with a thread lock and runs the
blocking send/recv round on a small dedicated thread pool, so the
asyncio loop never blocks.  Workers are ``spawn``\\ ed, not forked: the
router is a threaded asyncio process, and a fork would duplicate its
locks mid-flight — spawn also forces the wire path, which is the point.

Deterministic chaos: a :class:`~repro.service.faults.FaultPlan` threads
through the pool (parent-side wire corruption) and into every spawned
worker (kill/hang/drop/delay/die-mid-update points in the message loop),
so each recovery path above is pinned by a replayable test instead of
hoped-for.

The pool does not own the router's KB and never mutates it; the caller
that created the pool stops it (:meth:`WorkerPool.stop`).
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import connection as _mp_connection
from typing import Dict, List, Optional

from repro.service.config import ServiceConfig
from repro.service.faults import (
    DELAY_RESPONSE,
    DIE_MID_UPDATE,
    DROP_RESPONSE,
    FAULT_EXIT_CODE,
    FaultPlan,
    HANG_MID_REQUEST,
    KILL_BEFORE_READY,
    KILL_MID_REQUEST,
)

#: Fork would clone the router's threads' locks in unknown states; spawn
#: gives each worker a clean interpreter that imports this module fresh.
_SPAWN = multiprocessing.get_context("spawn")

#: Pipe failures that mean "this replica is gone", not "bad request".
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionError, OSError)


class WorkerPoolError(RuntimeError):
    """The pool cannot serve: no live replicas, or not started."""


class WorkerTimeout(WorkerPoolError):
    """A replica failed to answer within the request deadline.

    The wedged process has already been terminated and its slot marked
    dead when this raises; the supervisor respawns it.  The server maps
    this onto a structured ``timeout`` error envelope — the client sees
    a typed failure, never a hung connection.
    """

    def __init__(self, worker: int, deadline: float):
        super().__init__(
            f"worker {worker} exceeded the {deadline:g}s request deadline"
        )
        self.worker = worker
        self.deadline = deadline


def _is_update_payload(payload) -> bool:
    """Worker-side mirror of the envelope dispatch: is this an update?"""
    return isinstance(payload, dict) and (
        payload.get("type") == "update"
        or (payload.get("type") is None and "op" in payload)
    )


def _worker_main(
    conn, bootstrap: Dict, config_json: Dict, worker_id: int, warm: bool,
    faults_json: Optional[Dict] = None,
) -> None:
    """A worker process: one KB replica behind one message loop.

    Runs in the spawned child.  Builds its replica from the *bootstrap*
    descriptor — either ``{"kind": "wire", "data": bytes}`` rehydrated
    into a live :class:`~repro.kb.interned.InternedKnowledgeBase`, or
    ``{"kind": "image", "path": str}`` mmap-opened as an
    :class:`~repro.kb.image.ImageKnowledgeBase` (the page cache is shared
    across the fleet, so N replicas cost one copy of the cold data) —
    fronts it with its own :class:`~repro.service.facade.MiningService`
    in MVCC snapshot mode (reads pin epoch sessions; replayed updates
    roll the session — the same discipline as the in-process server),
    then answers framed messages until told to stop or the pipe dies.

    *faults_json* rebuilds this worker's own
    :class:`~repro.service.faults.FaultPlan` (occurrence counters local
    to this process), whose scheduled rules fire at the named points of
    the loop below.
    """
    from repro.service.facade import MiningService

    plan = FaultPlan.from_json(faults_json) if faults_json else None

    def fires(point: str):
        return plan.fire(point, worker=worker_id) if plan is not None else None

    def build(descriptor: Dict):
        if descriptor["kind"] == "image":
            from repro.kb.image import ImageKnowledgeBase

            kb = ImageKnowledgeBase(descriptor["path"])
        else:
            from repro.kb.wire import kb_from_bytes

            kb = kb_from_bytes(descriptor["data"])
        service = MiningService(kb, ServiceConfig.from_json(config_json))
        service.enable_snapshots()
        if warm:
            service.warm_up()
        return kb, service

    kb, service = build(bootstrap)
    requests = 0
    if fires(KILL_BEFORE_READY) is not None:
        os._exit(FAULT_EXIT_CODE)
    conn.send(
        {"kind": "ready", "worker": worker_id, "pid": os.getpid(), "epoch": kb.epoch}
    )
    while True:
        try:
            message = conn.recv()
        except _PIPE_ERRORS:
            break
        kind = message.get("kind")
        if kind == "stop":
            conn.send(
                {
                    "kind": "stopped",
                    "worker": worker_id,
                    "epoch": kb.epoch,
                    "requests": requests,
                }
            )
            break
        if kind == "request":
            payload = message["payload"]
            if fires(KILL_MID_REQUEST) is not None:
                os._exit(FAULT_EXIT_CODE)
            hang = fires(HANG_MID_REQUEST)
            if hang is not None:
                # A wedge, not a crash: the process stays alive and
                # silent until the router's deadline expires and kills
                # it (or the sleep runs out, whichever first).
                time.sleep(hang.delay)
            record = service.handle_json(payload, line=message.get("line"))
            requests += 1
            if _is_update_payload(payload) and fires(DIE_MID_UPDATE) is not None:
                # Applied, never acked: the fan-out sees a corpse and the
                # respawned replica must come back at the router's epoch.
                os._exit(FAULT_EXIT_CODE)
            if fires(DROP_RESPONSE) is not None:
                continue  # swallow the reply; the deadline reports it
            delay = fires(DELAY_RESPONSE)
            if delay is not None:
                time.sleep(delay.delay)
            conn.send(
                {
                    "kind": "response",
                    "worker": worker_id,
                    "epoch": kb.epoch,
                    "requests": requests,
                    "record": record,
                }
            )
        elif kind == "load":
            # Full resync: replace the replica wholesale (divergence
            # recovery; the router serialized a quiescent KB).  Always
            # wire — a diverged image replica's file no longer matches
            # the router's mutated epoch.  A frame that does not
            # rehydrate (corrupt bytes) is a typed error ack, never a
            # half-loaded replica: the old KB stays in place and the
            # router decides (it marks this replica dead).
            try:
                kb, service = build({"kind": "wire", "data": message["wire"]})
            except Exception as exc:  # noqa: BLE001 — report, don't die
                conn.send(
                    {
                        "kind": "error",
                        "worker": worker_id,
                        "epoch": kb.epoch,
                        "reason": f"resync failed: {type(exc).__name__}: {exc}",
                    }
                )
                continue
            conn.send({"kind": "loaded", "worker": worker_id, "epoch": kb.epoch})
        elif kind == "ping":
            # drop/delay model *pipe message* loss, so they cover pong
            # replies too — that is how a heartbeat exposes a replica
            # that is alive but no longer answering.
            if fires(DROP_RESPONSE) is not None:
                continue
            delay = fires(DELAY_RESPONSE)
            if delay is not None:
                time.sleep(delay.delay)
            conn.send(
                {
                    "kind": "pong",
                    "worker": worker_id,
                    "epoch": kb.epoch,
                    "requests": requests,
                }
            )
        else:
            conn.send(
                {
                    "kind": "error",
                    "worker": worker_id,
                    "epoch": kb.epoch,
                    "reason": f"unknown message kind {kind!r}",
                }
            )
    conn.close()


class _Replica:
    """Parent-side handle of one worker process."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "lock",
        "alive",
        "pid",
        "epoch",
        "requests",
        "in_flight",
    )

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: Serializes the pipe: strictly one in-flight round per replica,
        #: so every recv is the reply to this thread's send.
        self.lock = threading.Lock()
        self.alive = True
        self.pid: Optional[int] = None
        self.epoch = 0
        #: Last-acked replica epoch and lifetime requests, as seen by the
        #: router (refreshed on every reply — the stats surface).
        self.requests = 0
        self.in_flight = 0


class WorkerPool:
    """N spawned KB replicas behind an async dispatch/fan-out surface.

    Parameters
    ----------
    kb:
        The router's authoritative dictionary-encoded KB; its wire image
        seeds every replica.
    config:
        The :class:`~repro.service.ServiceConfig` each replica builds its
        façade from (defaults match the router's service).
    count:
        Number of worker processes (≥ 1).
    warm_up:
        Build each replica's mining substrate before it reports ready.
    start_timeout:
        Seconds the whole fleet gets to complete its ready handshakes —
        one shared deadline, not per replica (a worker that dies during
        spawn fails the startup immediately with its exit code).
    image_path:
        Explicit KB image file to bootstrap replicas from instead of
        shipping wire bytes.  When omitted, the pool bootstraps from
        ``kb.image_path`` automatically whenever the router KB is an
        unmutated image backend (``kb.epoch == kb.image_epoch`` — epochs
        only ever grow, so equality proves the file is still exact).
    request_timeout:
        Per-round deadline in seconds; a replica that does not answer in
        time raises :class:`WorkerTimeout` and is terminated (``None``
        inherits ``config.request_timeout``; ``0`` disables deadlines).
    faults:
        A :class:`~repro.service.faults.FaultPlan` for deterministic
        chaos testing: parent-side points fire on this instance, and
        every spawned worker rebuilds its own copy from JSON.
    """

    def __init__(
        self,
        kb,
        config: Optional[ServiceConfig] = None,
        count: int = 2,
        warm_up: bool = False,
        start_timeout: float = 120.0,
        image_path: Optional[str] = None,
        request_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ):
        if count < 1:
            raise ValueError(f"worker count must be ≥ 1, got {count}")
        if not getattr(kb, "supports_id_queries", False):
            raise WorkerPoolError(
                "multi-process serving needs a dictionary-encoded backend "
                f"(wire serialization), got {type(kb).__name__}"
            )
        self.kb = kb
        self.config = config or ServiceConfig()
        self.count = count
        self.warm_up = warm_up
        self.start_timeout = start_timeout
        self.image_path = str(image_path) if image_path is not None else None
        timeout = (
            self.config.request_timeout if request_timeout is None else request_timeout
        )
        #: Effective per-round deadline (``None`` = unbounded).
        self.request_timeout: Optional[float] = (
            timeout if timeout is not None and timeout > 0 else None
        )
        #: The active chaos plan (swappable between respawns by tests).
        self.faults = faults
        #: How replicas were seeded ("image" or "wire"); set by start().
        self.bootstrap_kind: Optional[str] = None
        #: The attached :class:`~repro.service.supervisor.FleetSupervisor`
        #: (set by the supervisor itself; ``None`` = fail-soft only).
        self.supervisor = None
        self._replicas: List[_Replica] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._stopped = False
        self._start_epoch: Optional[int] = None
        #: Fan-out/failure telemetry (the stats envelope's fleet view).
        self.updates_fanned = 0
        self.resyncs = 0
        self.requests_dispatched = 0
        self.timeouts = 0
        self.retries = 0
        self.restarts = 0
        self.last_fanout_lag_seconds = 0.0
        self.max_fanout_lag_seconds = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _faults_json(self) -> Optional[Dict]:
        return self.faults.to_json() if self.faults is not None else None

    def prepare_bootstrap(self) -> Dict:
        """The descriptor a replica builds from (image beats wire).

        An image bootstrap ships a path, not the KB: each spawned child
        mmaps the same file and the OS shares the pages, so per-replica
        RSS stays flat where wire rehydration pays the full store per
        process.  Safe only while the file is exact, i.e. while the
        router's epoch still equals the epoch the image (or the pool)
        started at — after any mutation, respawns fall back to fresh
        wire bytes.  **The KB must be quiescent for the duration** (the
        startup path runs before traffic; the supervisor calls this
        under the server's update lock).
        """
        if self.image_path is not None and (
            self._start_epoch is None or self.kb.epoch == self._start_epoch
        ):
            self.bootstrap_kind = "image"
            return {"kind": "image", "path": self.image_path}
        path = getattr(self.kb, "image_path", None)
        if path is not None and self.kb.epoch == getattr(self.kb, "image_epoch", None):
            self.bootstrap_kind = "image"
            return {"kind": "image", "path": str(path)}
        from repro.kb.wire import kb_to_bytes

        self.bootstrap_kind = "wire"
        return {"kind": "wire", "data": kb_to_bytes(self.kb, faults=self.faults)}

    def _spawn(self, index: int, bootstrap: Dict) -> _Replica:
        """Start one worker process; the ready handshake is the caller's."""
        parent_conn, child_conn = _SPAWN.Pipe()
        process = _SPAWN.Process(
            target=_worker_main,
            args=(
                child_conn,
                bootstrap,
                self.config.to_json(),
                index,
                self.warm_up,
                self._faults_json(),
            ),
            name=f"remi-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Replica(index, process, parent_conn)

    def _finish_handshake(self, replica: _Replica) -> None:
        """Consume one ready message (the conn must be readable)."""
        try:
            message = replica.conn.recv()
        except _PIPE_ERRORS as exc:
            replica.process.join(timeout=1.0)
            raise WorkerPoolError(
                f"worker {replica.index} died during startup "
                f"(exit code {replica.process.exitcode})"
            ) from exc
        if message.get("kind") != "ready":
            raise WorkerPoolError(
                f"worker {replica.index} sent {message!r} instead of ready"
            )
        replica.pid = message.get("pid")
        replica.epoch = message.get("epoch", 0)

    def start(self) -> None:
        """Spawn the replicas and wait for every ready handshake.

        Idempotent; blocking (call before the event loop runs, or via an
        executor).  The wait runs against one **shared** deadline across
        the whole fleet (``start_timeout``), polling every pipe at once;
        a worker that dies mid-spawn fails the startup immediately with
        its exit code instead of burning the rest of the deadline.
        Raises :class:`WorkerPoolError` on any failure — a half-started
        pool is stopped before the raise.
        """
        if self._started:
            return
        self._start_epoch = self.kb.epoch
        bootstrap = self.prepare_bootstrap()
        try:
            for index in range(self.count):
                self._replicas.append(self._spawn(index, bootstrap))
            deadline = time.monotonic() + self.start_timeout
            pending = {replica.conn: replica for replica in self._replicas}
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    waiting = sorted(r.index for r in pending.values())
                    raise WorkerPoolError(
                        f"workers {waiting} did not report ready within the "
                        f"shared {self.start_timeout}s startup deadline"
                    )
                ready = _mp_connection.wait(
                    list(pending), timeout=min(remaining, 0.25)
                )
                if not ready:
                    # Nothing readable yet: fail fast on any corpse
                    # instead of waiting out the deadline (a crashed
                    # child's pipe also turns readable-at-EOF, but
                    # checking liveness here catches it one tick sooner
                    # and is what bounds a spawn-time crash loop).
                    for replica in pending.values():
                        if not replica.process.is_alive():
                            raise WorkerPoolError(
                                f"worker {replica.index} died during startup "
                                f"(exit code {replica.process.exitcode})"
                            )
                    continue
                for conn in ready:
                    replica = pending.pop(conn)
                    self._finish_handshake(replica)
                    if replica.epoch != self.kb.epoch:
                        raise WorkerPoolError(
                            f"worker {replica.index} rehydrated at epoch "
                            f"{replica.epoch}, router is at {self.kb.epoch}"
                        )
        except BaseException:
            self._started = True  # let stop() tear down what spawned
            self.stop()
            raise
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * self.count), thread_name_prefix="remi-fanout"
        )
        self._started = True

    @staticmethod
    def _reap(process, graceful: float = 0.0) -> None:
        """terminate → kill → join: never leaves a live child behind.

        *graceful* first waits for a voluntary exit (the stop-ack path);
        SIGTERM follows, and a worker that ignores or blocks it (wedged
        in native code) is escalated to SIGKILL.
        """
        if graceful and process.is_alive():
            process.join(timeout=graceful)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def stop(self) -> None:
        """Stop every replica and reap the processes.  Idempotent.

        Escalates per replica: polite stop message (bounded lock/ack
        waits so a wedged replica cannot stall the shutdown), then
        terminate, then kill — ``stop()`` never leaves a live child.
        """
        if self._stopped:
            return
        self._stopped = True
        for replica in self._replicas:
            graceful = 0.0
            if replica.alive:
                acquired = replica.lock.acquire(timeout=5.0)
                if acquired:
                    try:
                        replica.conn.send({"kind": "stop"})
                        if replica.conn.poll(5.0):
                            ack = replica.conn.recv()
                            if ack.get("kind") == "stopped":
                                replica.epoch = ack.get("epoch", replica.epoch)
                                replica.requests = ack.get(
                                    "requests", replica.requests
                                )
                                graceful = 10.0
                    except _PIPE_ERRORS:
                        pass
                    finally:
                        replica.lock.release()
            replica.alive = False
            try:
                replica.conn.close()
            except OSError:
                pass
            self._reap(replica.process, graceful=graceful)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # supervision (respawn cycle; see repro.service.supervisor)
    # ------------------------------------------------------------------

    def respawn(self, index: int, bootstrap: Optional[Dict] = None) -> None:
        """Spawn a fresh process into dead slot *index* (blocking; the
        supervisor runs this on the executor).

        The new replica completes its ready handshake but is **not** yet
        in dispatch — :meth:`admit` (under the server's update lock)
        brings it to the router's exact epoch and marks it live.  Pass a
        *bootstrap* prepared under the lock (quiescent KB); omitting
        it serializes one here, which is only safe while no update can
        run concurrently.
        """
        self._require_started()
        old = self._replicas[index]
        if old.alive:
            raise WorkerPoolError(f"worker {index} is alive; refusing to respawn")
        try:
            old.conn.close()
        except OSError:
            pass
        self._reap(old.process)
        if bootstrap is None:
            bootstrap = self.prepare_bootstrap()
        replica = self._spawn(index, bootstrap)
        replica.alive = False
        deadline = time.monotonic() + self.start_timeout
        try:
            while not replica.conn.poll(0.25):
                if not replica.process.is_alive():
                    raise WorkerPoolError(
                        f"worker {index} died during respawn "
                        f"(exit code {replica.process.exitcode})"
                    )
                if time.monotonic() > deadline:
                    raise WorkerPoolError(
                        f"worker {index} did not report ready within "
                        f"{self.start_timeout}s of respawn"
                    )
            self._finish_handshake(replica)
        except BaseException:
            try:
                replica.conn.close()
            except OSError:
                pass
            self._reap(replica.process)
            raise
        self._replicas[index] = replica

    def admit(self, index: int) -> None:
        """Bring a respawned replica to the router's exact epoch and put
        it back into dispatch.

        Blocking; **must run under the server's update lock** — the
        epoch comparison and any resync image are only exact while the
        KB is quiescent, and admission must not interleave with an
        update fan-out (a replica admitted mid-fan-out would miss the
        very update being broadcast).
        """
        replica = self._replicas[index]
        if replica.alive:
            return
        if replica.epoch != self.kb.epoch:
            from repro.kb.wire import kb_to_bytes

            self.resyncs += 1
            wire = kb_to_bytes(self.kb, faults=self.faults)
            reply = self._roundtrip(replica, {"kind": "load", "wire": wire})
            if reply.get("kind") != "loaded":
                self._mark_dead(replica)
                raise WorkerPoolError(
                    f"worker {index} failed its post-respawn resync: "
                    f"{reply.get('reason', reply)!r}"
                )
            replica.epoch = reply.get("epoch", replica.epoch)
            if replica.epoch != self.kb.epoch:
                self._mark_dead(replica)
                raise WorkerPoolError(
                    f"worker {index} resynced to epoch {replica.epoch}, "
                    f"router is at {self.kb.epoch}"
                )
        replica.alive = True
        self.restarts += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    @property
    def live_count(self) -> int:
        return sum(1 for r in self._replicas if r.alive)

    def _require_started(self) -> None:
        if not self._started or self._stopped:
            raise WorkerPoolError("worker pool is not running")

    def _pick(self, worker: Optional[int]) -> _Replica:
        if worker is not None:
            replica = self._replicas[worker]
            if not replica.alive:
                raise WorkerPoolError(f"worker {worker} is dead")
            return replica
        live = [r for r in self._replicas if r.alive]
        if not live:
            raise WorkerPoolError("no live workers")
        return min(live, key=lambda r: (r.in_flight, r.index))

    def _roundtrip(
        self, replica: _Replica, message: Dict, timeout: Optional[float] = None
    ) -> Dict:
        """One framed send/recv on *replica*'s pipe (blocking; executor).

        Enforces the request deadline: a reply that does not arrive in
        time means the replica is wedged — it is marked dead and its
        process terminated *before* :class:`WorkerTimeout` raises, both
        because a wedged worker must not hold a core and because a late
        reply landing on a reused pipe would desynchronize the framing
        (every recv must answer this thread's send).
        """
        deadline = self.request_timeout if timeout is None else timeout
        with replica.lock:
            replica.conn.send(message)
            if deadline is not None and not replica.conn.poll(deadline):
                self.timeouts += 1
                self._mark_dead(replica)
                self._reap(replica.process)
                raise WorkerTimeout(replica.index, deadline)
            return replica.conn.recv()

    def _mark_dead(self, replica: _Replica) -> None:
        replica.alive = False
        try:
            replica.conn.close()
        except OSError:
            pass

    async def _round(
        self, replica: _Replica, message: Dict, timeout: Optional[float] = None
    ) -> Dict:
        """Run one round on the fan-out executor; marks dead on pipe loss."""
        loop = asyncio.get_running_loop()
        replica.in_flight += 1
        try:
            reply = await loop.run_in_executor(
                self._executor, self._roundtrip, replica, message, timeout
            )
        except WorkerTimeout:
            raise  # _roundtrip already marked dead + reaped the process
        except _PIPE_ERRORS as exc:
            self._mark_dead(replica)
            raise WorkerPoolError(
                f"worker {replica.index} died mid-request: {exc!r}"
            ) from exc
        finally:
            replica.in_flight -= 1
        replica.epoch = reply.get("epoch", replica.epoch)
        replica.requests = reply.get("requests", replica.requests + 1)
        return reply

    async def request(self, payload, line: Optional[int] = None, worker: Optional[int] = None) -> Dict:
        """Answer one query envelope on a replica; returns the envelope dict.

        Dispatches least-in-flight-first (or to the pinned *worker* —
        the differential tests interrogate specific replicas).  A replica
        dying mid-request is retried once on another — the retry is
        **counted** (:attr:`retries`) and, when every attempt fails, the
        raised :class:`WorkerPoolError` names the dead workers so
        operators can correlate with supervisor restarts.  A
        :class:`WorkerTimeout` is never retried: the deadline is the
        client-visible latency contract, and a second full deadline on
        another replica would break it — the typed error surfaces
        instead.
        """
        self._require_started()
        message = {"kind": "request", "payload": payload, "line": line}
        failed: List[int] = []
        for attempt in (0, 1):
            replica = self._pick(worker)
            try:
                reply = await self._round(replica, message)
            except WorkerTimeout:
                raise
            except WorkerPoolError as exc:
                failed.append(replica.index)
                if worker is not None or attempt or not self.live_count:
                    raise WorkerPoolError(
                        f"request failed on worker{'s' if len(failed) > 1 else ''} "
                        f"{failed}: {exc}"
                    ) from exc
                self.retries += 1
                continue
            self.requests_dispatched += 1
            return reply["record"]
        raise WorkerPoolError(  # pragma: no cover — the loop always raises
            f"no live workers (failed on {failed})"
        )

    async def broadcast_update(
        self, payload, line: Optional[int] = None, expect_epoch: Optional[int] = None
    ) -> List[Dict]:
        """Replay one applied update envelope on EVERY live replica.

        Must run under the server's update lock (the router KB — and
        therefore the expected epoch — is frozen while replicas apply).
        Waits for all acks, records the fan-out lag, then verifies each
        replica landed on *expect_epoch*; a mismatch triggers a full wire
        resync of that replica so drift never outlives the update that
        caused it.  A replica that crashes or wedges mid-fan-out is
        marked dead (and, when wedged, terminated) — the supervisor
        respawns it at the post-update epoch.
        """
        self._require_started()
        message = {"kind": "request", "payload": payload, "line": line}
        live = [r for r in self._replicas if r.alive]
        if not live:
            raise WorkerPoolError("no live workers")
        started = time.perf_counter()
        results = await asyncio.gather(
            *(self._round(replica, message) for replica in live),
            return_exceptions=True,
        )
        lag = time.perf_counter() - started
        self.updates_fanned += 1
        self.last_fanout_lag_seconds = lag
        if lag > self.max_fanout_lag_seconds:
            self.max_fanout_lag_seconds = lag
        acks: List[Dict] = []
        for replica, result in zip(live, results):
            if isinstance(result, BaseException):
                continue  # _round already marked it dead
            acks.append(result["record"])
            if expect_epoch is not None and replica.epoch != expect_epoch:
                await self._resync(replica, expect_epoch)
        return acks

    async def _resync(self, replica: _Replica, expect_epoch: int) -> None:
        """Reload *replica* from a fresh wire image of the router KB."""
        from repro.kb.wire import kb_to_bytes

        self.resyncs += 1
        wire = kb_to_bytes(self.kb, faults=self.faults)
        try:
            reply = await self._round(replica, {"kind": "load", "wire": wire})
        except WorkerPoolError:
            return  # dead slot; the supervisor respawns it
        if reply.get("kind") != "loaded" or replica.epoch != expect_epoch:
            self._mark_dead(replica)

    async def ping(self) -> List[Dict]:
        """Refresh every live replica's epoch/requests telemetry."""
        self._require_started()
        live = [r for r in self._replicas if r.alive]
        results = await asyncio.gather(
            *(self._round(replica, {"kind": "ping"}) for replica in live),
            return_exceptions=True,
        )
        return [r for r in results if not isinstance(r, BaseException)]

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def stats(self) -> Dict:
        """The fleet view surfaced in the stats envelope and the
        shutdown summary: replica drift plus the failure/recovery
        counters (timeouts, counted retries, supervisor restarts and
        given-up slots)."""
        supervisor = self.supervisor
        record = {
            "count": self.count,
            "alive": self.live_count,
            "bootstrap": self.bootstrap_kind,
            "requests_dispatched": self.requests_dispatched,
            "updates_fanned": self.updates_fanned,
            "resyncs": self.resyncs,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "restarts": self.restarts,
            "degraded": sorted(supervisor.degraded) if supervisor is not None else [],
            "supervised": supervisor is not None,
            "last_fanout_lag_seconds": round(self.last_fanout_lag_seconds, 6),
            "max_fanout_lag_seconds": round(self.max_fanout_lag_seconds, 6),
            "per_worker": [
                {
                    "worker": r.index,
                    "pid": r.pid,
                    "alive": r.alive,
                    "epoch": r.epoch,
                    "requests": r.requests,
                    "in_flight": r.in_flight,
                }
                for r in self._replicas
            ],
        }
        if supervisor is not None:
            record["supervisor"] = supervisor.stats()
        return record

    def __repr__(self) -> str:
        return (
            f"WorkerPool(count={self.count}, alive={self.live_count}, "
            f"epoch={self.kb.epoch})"
        )


__all__ = ["WorkerPool", "WorkerPoolError", "WorkerTimeout"]
