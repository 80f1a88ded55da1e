"""``repro.service`` — the single public API of the mining system.

Four layers, one front door:

* :mod:`repro.service.envelopes` — the typed request/response vocabulary
  (``MineRequest`` … ``StatsRequest`` → a versioned ``Response`` with
  uniform error objects);
* :mod:`repro.service.config` — :class:`ServiceConfig`, the validated
  construction surface that subsumes the scattered constructor kwargs;
* :mod:`repro.service.facade` — :class:`MiningService`, which owns the
  resident KB + shared :class:`~repro.core.batch.BatchMiner` and answers
  envelopes bit-identically to direct miner calls;
* :mod:`repro.service.server` — the concurrent ``remi serve``
  NDJSON-over-TCP layer (bounded worker pool, MVCC reads, update lock,
  backpressure, graceful drain);
* :mod:`repro.service.workers` — :class:`WorkerPool`, the multi-process
  scale-out: N spawned processes each holding an epoch replica of the
  KB (rehydrated via :mod:`repro.kb.wire`); the server routes queries
  to replicas and fans updates to all of them in epoch lock-step.
* :mod:`repro.service.supervisor` — :class:`FleetSupervisor`, which
  keeps the pool at full strength: heartbeats + liveness sweeps detect
  crashed/wedged replicas, bounded-backoff respawns bring them back at
  the router's exact epoch (under the server's update lock), and a
  circuit breaker abandons slots that keep dying.
* :mod:`repro.service.faults` — :class:`FaultPlan`, the deterministic
  chaos harness: seeded (point, occurrence) schedules that make every
  recovery path above replayable and testable.

The plugin registries the service resolves its names through live in
:mod:`repro.registry` (KB backends, miners, prominence providers,
complexity estimators) and are re-exported here for convenience.
"""

from repro.registry import (
    ESTIMATORS,
    KB_BACKENDS,
    MINERS,
    PROMINENCE,
    Registry,
    RegistryError,
)
from repro.service.config import ServiceConfig
from repro.service.envelopes import (
    DescribeRequest,
    EnvelopeError,
    MineRequest,
    PROTOCOL_VERSION,
    Request,
    Response,
    StatsRequest,
    UpdateRequest,
    parse_request,
)
from repro.service.facade import MiningService, load_kb
from repro.service.faults import FaultPlan, FaultRule
from repro.service.server import MiningServer, run_server
from repro.service.supervisor import FleetSupervisor
from repro.service.workers import WorkerPool, WorkerPoolError, WorkerTimeout

__all__ = [
    "DescribeRequest",
    "ESTIMATORS",
    "EnvelopeError",
    "FaultPlan",
    "FaultRule",
    "FleetSupervisor",
    "KB_BACKENDS",
    "MINERS",
    "MineRequest",
    "MiningServer",
    "MiningService",
    "PROMINENCE",
    "PROTOCOL_VERSION",
    "Registry",
    "RegistryError",
    "Request",
    "Response",
    "ServiceConfig",
    "StatsRequest",
    "UpdateRequest",
    "WorkerPool",
    "WorkerPoolError",
    "WorkerTimeout",
    "load_kb",
    "parse_request",
    "run_server",
]
