"""Fleet supervision: heartbeats, crash detection, bounded respawn.

:class:`~repro.service.workers.WorkerPool` detects failure (pipe loss,
request deadlines) but — before this module — only *degraded*: a dead
replica stayed dead, and a fleet under churn shrank monotonically toward
the single-process fallback.  :class:`FleetSupervisor` closes the loop.
It watches every slot with two complementary signals:

* ``process.is_alive()`` — catches **silent crashes**: a replica that
  died between requests never trips a pipe error because nobody was
  talking to it;
* **heartbeats** — a ``ping`` round (subject to the normal request
  deadline) sent to replicas that look alive and are *idle*.  A wedged
  process passes ``is_alive()`` forever; the ping is what exposes it.
  Busy replicas are not pinged — their in-flight request's own deadline
  is the detector, and a second message on the pipe would violate the
  one-round-per-replica framing anyway.

Dead slots are respawned through the pool's three-step cycle, phased so
the server's update lock is held only for the cheap parts::

    lock { bootstrap = pool.prepare_bootstrap() }   # exact image
    pool.respawn(index, bootstrap)                  # slow: spawn+handshake
    lock { pool.admit(index) }                      # epoch check/resync

The middle step — process spawn, KB rehydration, warm-up — runs outside
the lock, so updates keep flowing while the replacement boots.  The
final ``admit`` re-checks the epoch under quiescence and wire-resyncs if
updates landed meanwhile, so the replica re-enters dispatch at the
router's *exact* epoch: read-your-writes holds across a restart.

Respawns back off exponentially per slot (``backoff_base * 2**attempts``,
capped at ``backoff_max``) so a replica that dies at boot — bad image,
poisoned bootstrap, chaos plan — cannot hot-loop the spawn path; after
``max_restarts`` failed attempts the slot trips a **circuit breaker**
and joins :attr:`degraded` (visible in ``stats()``, ``telemetry()``, and
the shutdown summary) instead of burning CPU forever.

The supervisor is driven either by its own asyncio task
(:meth:`run` — the server starts one) or by explicit :meth:`poll` calls
(the chaos tests, which want deterministic interleavings, no timers).
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Dict, List, Optional, Set

from repro.service.workers import WorkerPool, WorkerPoolError


class FleetSupervisor:
    """Background monitor that keeps a :class:`WorkerPool` at full strength.

    Parameters
    ----------
    pool:
        The pool to supervise.  The supervisor attaches itself as
        ``pool.supervisor`` so the pool's ``stats()`` can report the
        supervision counters.
    exclusive:
        The :class:`asyncio.Lock` that serializes writers of the router
        KB — the server passes its update lock.  A standalone pool gets
        a private lock (safe only when nothing else mutates the KB).
    heartbeat_interval:
        Seconds between :meth:`run` iterations, and between heartbeat
        pings to any one idle replica.  ``0`` disables the background
        loop (``poll()`` still works when called explicitly).
    max_restarts:
        Failed respawn *attempts* per slot before its circuit breaker
        trips and the slot is abandoned as degraded.
    backoff_base / backoff_max:
        Exponential backoff window between respawn attempts on the same
        slot: ``min(backoff_base * 2**attempts, backoff_max)`` seconds.
    """

    def __init__(
        self,
        pool: WorkerPool,
        exclusive: Optional[asyncio.Lock] = None,
        heartbeat_interval: float = 2.0,
        max_restarts: int = 5,
        backoff_base: float = 0.5,
        backoff_max: float = 30.0,
    ):
        if heartbeat_interval < 0:
            raise ValueError(
                f"heartbeat_interval must be ≥ 0, got {heartbeat_interval}"
            )
        if max_restarts < 1:
            raise ValueError(f"max_restarts must be ≥ 1, got {max_restarts}")
        if backoff_base < 0 or backoff_max < 0:
            raise ValueError("restart backoff must be ≥ 0")
        self.pool = pool
        self._exclusive = exclusive or asyncio.Lock()
        self.heartbeat_interval = heartbeat_interval
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        #: Slots whose circuit breaker tripped: max_restarts respawn
        #: attempts failed, no further attempts will be made.
        self.degraded: Set[int] = set()
        #: Lifetime respawn attempts per slot (never reset on success —
        #: the breaker bounds total churn, not churn-since-last-good).
        self._attempts: Dict[int, int] = {}
        #: Monotonic instant before which a slot may not be retried.
        self._next_attempt: Dict[int, float] = {}
        self._last_heartbeat = 0.0
        self._task: Optional[asyncio.Task] = None
        self._stopping = False
        #: Supervision telemetry (restarts live on the pool; these are
        #: the monitor's own observations).
        self.heartbeats = 0
        self.crashes_detected = 0
        self.respawns_failed = 0
        pool.supervisor = self

    # ------------------------------------------------------------------
    # the monitor pass
    # ------------------------------------------------------------------

    async def poll(self, now: Optional[float] = None) -> List[int]:
        """One full supervision pass; returns the slots respawned.

        Deterministic and timer-free — the chaos tests drive recovery by
        calling this directly.  A pass: reap silent crashes
        (``is_alive()``), heartbeat idle live replicas (a wedged one
        trips the request deadline inside the ping and is marked dead),
        then attempt one respawn for every dead slot whose backoff
        window has elapsed and whose breaker has not tripped.
        """
        if now is None:
            now = time.monotonic()
        pool = self.pool
        if pool._stopped or not pool._started:
            return []
        # -- detection: silent crashes first, then wedges via heartbeat.
        for replica in pool._replicas:
            if replica.alive and not replica.process.is_alive():
                self.crashes_detected += 1
                pool._mark_dead(replica)
        if self.heartbeat_interval and (
            now - self._last_heartbeat >= self.heartbeat_interval
        ):
            self._last_heartbeat = now
            await self._heartbeat()
        # -- recovery: bounded respawn of whatever is dead.
        respawned: List[int] = []
        for replica in list(pool._replicas):
            index = replica.index
            if replica.alive or index in self.degraded:
                continue
            if now < self._next_attempt.get(index, 0.0):
                continue
            if await self._respawn_slot(index):
                respawned.append(index)
        return respawned

    async def _heartbeat(self) -> None:
        """Ping idle live replicas; the deadline inside the ping round is
        what catches a wedged-but-alive process."""
        pool = self.pool
        targets = [r for r in pool._replicas if r.alive and r.in_flight == 0]
        if not targets:
            return
        self.heartbeats += 1
        await asyncio.gather(
            *(self._ping_one(replica) for replica in targets),
            return_exceptions=False,
        )

    async def _ping_one(self, replica) -> None:
        try:
            await self.pool._round(replica, {"kind": "ping"})
        except WorkerPoolError:
            pass  # marked dead (and reaped, if it was a timeout)

    async def _respawn_slot(self, index: int) -> bool:
        """One respawn attempt for slot *index*: backoff bookkeeping,
        the lock-phased bootstrap/respawn/admit cycle, breaker trip
        on exhaustion.  Returns True when the slot is live again."""
        attempts = self._attempts.get(index, 0)
        self._attempts[index] = attempts + 1
        self._next_attempt[index] = time.monotonic() + min(
            self.backoff_base * (2 ** attempts), self.backoff_max
        )
        loop = asyncio.get_running_loop()
        pool = self.pool
        try:
            async with self._exclusive:
                bootstrap = await loop.run_in_executor(
                    pool._executor, pool.prepare_bootstrap
                )
            await loop.run_in_executor(pool._executor, pool.respawn, index, bootstrap)
            async with self._exclusive:
                await loop.run_in_executor(pool._executor, pool.admit, index)
        except WorkerPoolError:
            self.respawns_failed += 1
            if self._attempts[index] >= self.max_restarts:
                self.degraded.add(index)
            return False
        return True

    # ------------------------------------------------------------------
    # background loop
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """The background supervision loop (cancelled by :meth:`stop`)."""
        if not self.heartbeat_interval:
            return
        while not self._stopping:
            await asyncio.sleep(self.heartbeat_interval)
            if self._stopping:
                return
            try:
                await self.poll()
            except WorkerPoolError:
                return  # pool stopped under us mid-pass

    def start(self) -> None:
        """Start the background loop on the running event loop."""
        if self._task is None and self.heartbeat_interval:
            self._task = asyncio.get_running_loop().create_task(
                self.run(), name="remi-supervisor"
            )

    async def stop(self) -> None:
        """Stop the background loop (idempotent; awaits the task)."""
        self._stopping = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def stats(self) -> Dict:
        return {
            "heartbeat_interval": self.heartbeat_interval,
            "max_restarts": self.max_restarts,
            "heartbeats": self.heartbeats,
            "crashes_detected": self.crashes_detected,
            "respawns_failed": self.respawns_failed,
            "attempts": {str(k): v for k, v in sorted(self._attempts.items())},
            "degraded": sorted(self.degraded),
        }

    def __repr__(self) -> str:
        return (
            f"FleetSupervisor(pool={self.pool!r}, "
            f"restarts={self.pool.restarts}, degraded={sorted(self.degraded)})"
        )


__all__ = ["FleetSupervisor"]
