"""The one front door: :class:`MiningService`.

Every surface — the CLI subcommands, the ``remi serve`` network layer,
programmatic embedders — goes through this façade.  It owns exactly one
resident KB and one shared :class:`~repro.core.batch.BatchMiner` (built
from a validated :class:`~repro.service.config.ServiceConfig` through
the plugin registries), accepts the typed requests of
:mod:`repro.service.envelopes`, and returns versioned
:class:`~repro.service.envelopes.Response` envelopes with uniform error
objects.

Responses are **bit-identical** to calling the underlying miner
directly — the façade adds no post-processing, only the envelope — which
the seeded differential suite in ``tests/service/test_service.py`` pins
across 50 KBs × both backends.

>>> from repro.service import MineRequest, MiningService, ServiceConfig
>>> service = MiningService(kb, ServiceConfig(miner="premi"))
>>> response = service.mine(MineRequest(id="q1", targets=(str(rennes),)))
>>> response.ok, response.result["expression"]

Thread safety: concurrent ``mine`` / ``describe`` / ``stats`` calls are
safe, and ``update`` calls must not overlap each other (``remi serve``
serializes them under its update lock).  ``update`` and ``stats`` share
one façade lock, because ``stats`` scans the live KB.  Reads and writes
overlap only in snapshot mode (:meth:`MiningService.enable_snapshots`,
MVCC, always on under ``remi serve``): reads then serve from an
immutable epoch session (:class:`~repro.kb.snapshot.KbSnapshot` + the
miner bound to it) and never wait for writes, and each update publishes
the next session before returning, so every client reads its own
writes.  Without snapshots an ``update`` must not overlap mining, which
:meth:`~repro.core.batch.BatchMiner.serve_jsonl` guarantees for streams.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.core.batch import (
    BatchMiner,
    BatchOutcome,
    BatchRequest,
    BatchRequestError,
    ERR_BAD_UPDATE,
    ERR_INTERNAL,
    UpdateOutcome,
    parse_update_triple,
)
from repro.core.results import SearchStats
from repro.expressions.verbalize import Verbalizer
from repro.kb.base import BaseKnowledgeBase
from repro.kb.epoch import CacheCoherence
from repro.kb.terms import IRI
from repro.registry import KB_BACKENDS
from repro.service.config import ServiceConfig
from repro.service.envelopes import (
    DescribeRequest,
    EnvelopeError,
    MineRequest,
    Request,
    Response,
    StatsRequest,
    UpdateRequest,
    parse_request,
    request_id_of,
)


def load_kb(path: Union[str, Path], backend: str = "interned") -> BaseKnowledgeBase:
    """Load a KB file into the named registry backend.

    KB images (sniffed by magic, see :mod:`repro.kb.image`), RHDT
    binaries (``.hdt``) and N-Triples text (anything else) are
    auto-detected, exactly as the CLI always did — this is that logic,
    promoted to the service layer so every entry point shares it.

    An image file under the default ``interned`` backend (or ``image``)
    opens zero-copy as an
    :class:`~repro.kb.image.ImageKnowledgeBase` — the whole point of
    building one; requesting any other backend materializes the triples
    into it.  Conversely, asking for the ``image`` backend on a
    non-image file raises :class:`~repro.kb.image.ImageError` pointing
    at ``remi build-image`` (an image is built once, not parsed per
    start).  N-Triples input streams line-by-line into the backend
    constructor, so peak load memory is O(store), not O(file) + O(store).
    """
    path = str(path)
    backend_class = KB_BACKENDS.get(backend)
    from repro.kb.image import ImageError, ImageKnowledgeBase, is_image_file

    if is_image_file(path):
        kb = ImageKnowledgeBase(path)
        if issubclass(ImageKnowledgeBase, backend_class):
            return kb
        try:
            return backend_class(kb.triples(), name=kb.name)
        finally:
            kb.close()
    if backend_class is ImageKnowledgeBase:
        raise ImageError(
            f"{path} is not a KB image; build one with "
            f"`remi build-image {path} <out>.remimg` and serve that"
        )
    if path.endswith(".hdt"):
        from repro.kb.hdt import load_hdt

        loaded = load_hdt(path)
        if type(loaded) is backend_class:
            return loaded
        return backend_class(loaded.triples(), name=loaded.name)
    from repro.kb.ntriples import iter_ntriples_file

    return backend_class(iter_ntriples_file(path), name=Path(path).stem)


class _SnapshotSession:
    """One immutable epoch view plus the read substrate bound to it.

    Everything a mining request touches — the snapshot, its miner (with
    matcher, estimator, candidate engine, prominence) and its verbalizer
    — lives in one object, so a query that loaded the session attribute
    keeps a fully consistent epoch even while an update publishes the
    next session underneath it.  Sessions are immutable once published;
    superseded ones die when their in-flight readers finish.
    """

    __slots__ = ("snapshot", "miner", "verbalizer")

    def __init__(self, snapshot, miner: BatchMiner, verbalizer: Verbalizer):
        self.snapshot = snapshot
        self.miner = miner
        self.verbalizer = verbalizer


class MiningService:
    """Typed façade over one resident KB and its shared mining substrate.

    Parameters
    ----------
    kb:
        The resident knowledge base (any registry backend instance).
    config:
        A validated :class:`~repro.service.config.ServiceConfig`;
        defaults throughout.
    """

    def __init__(self, kb: BaseKnowledgeBase, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.kb = kb
        self.verbalizer = Verbalizer(kb)
        self._started = time.time()
        # The mining substrate (prominence ranking, estimator, candidate
        # engine) is expensive to build and useless to a stats-only
        # caller, so it materializes on first mining use.
        self._batch: Optional[BatchMiner] = None
        self._batch_lock = threading.Lock()
        # MVCC snapshot reads (enable_snapshots): queries serve from an
        # immutable epoch session; updates publish the next one.
        self._session: Optional[_SnapshotSession] = None
        self._session_lock = threading.Lock()
        self._session_coherence = CacheCoherence()
        # Held while update() mutates the live KB and while stats()
        # scans it; mine and describe never take it.
        self._live_lock = threading.Lock()
        self._retired_requests = 0
        self._retired_errors = 0
        self._retired_search = SearchStats()

    @property
    def batch(self) -> BatchMiner:
        """The shared :class:`~repro.core.batch.BatchMiner`, built on
        first use (double-checked, so concurrent server workers build it
        exactly once)."""
        miner = self._batch
        if miner is not None:
            return miner
        with self._batch_lock:
            if self._batch is None:
                self._batch = BatchMiner(
                    self.kb,
                    prominence=self.config.prominence,
                    config=self.config.miner_config,
                    workers=self.config.workers,
                    miner=self.config.miner,
                    mode=self.config.estimator,
                )
            return self._batch

    @classmethod
    def from_path(
        cls, path: Union[str, Path], config: Optional[ServiceConfig] = None
    ) -> "MiningService":
        """Build a service from a KB file, backend chosen by the config."""
        config = config or ServiceConfig()
        return cls(load_kb(path, config.backend), config)

    def warm_up(self) -> None:
        """Build the shared KB-derived state before the first request."""
        session = self._session
        if session is not None:
            session.miner.warm_up()
            return
        self.batch.warm_up()

    # ------------------------------------------------------------------
    # MVCC snapshot sessions (reads never wait for writes)
    # ------------------------------------------------------------------

    def enable_snapshots(self) -> None:
        """Serve reads from immutable epoch snapshots (idempotent).

        ``mine``/``describe`` then run against the session pinned at the
        epoch the request loaded, so reads never wait for writes; each
        applied update publishes the next session.  Raises
        ``TypeError`` when the KB lacks ``supports_snapshots`` (the hash
        store).
        """
        if not self.kb.supports_snapshots:
            raise TypeError(
                f"{type(self.kb).__name__} has no epoch snapshots; load the KB "
                "into the interned store (or open a KB image) to serve it"
            )
        with self._session_lock:
            if self._session is None:
                self._session = self._build_session(self.kb.at_epoch())

    def _build_session(self, snapshot) -> _SnapshotSession:
        return _SnapshotSession(
            snapshot,
            BatchMiner(
                snapshot,
                prominence=self.config.prominence,
                config=self.config.miner_config,
                workers=self.config.workers,
                miner=self.config.miner,
                mode=self.config.estimator,
            ),
            Verbalizer(snapshot),
        )

    def _roll_session(self) -> None:
        """Publish the epoch session for the KB's current state.

        Called by the update path after a mutation applied (updates are
        serialized by the caller, so the KB is quiescent here).  When
        the mutation gap nets to nothing — paired delete + re-add churn
        — ``at_epoch()`` returns the same head view and the warm session
        survives with every cache intact; otherwise the next session is
        built and the old one retires into the service-lifetime totals.
        """
        with self._session_lock:
            session = self._session
            if session is None:
                return
            started = time.perf_counter()
            snapshot = self.kb.at_epoch()
            coherence = self._session_coherence
            coherence.epochs_seen += 1
            if snapshot is session.snapshot:
                coherence.noops += 1
                return
            self._retire_locked(session)
            self._session = self._build_session(snapshot)
            coherence.invalidations += 1
            coherence.rebuild_seconds += time.perf_counter() - started

    def _retire_locked(self, session: _SnapshotSession) -> None:
        miner = session.miner
        self._retired_requests += miner.requests_served
        self._retired_errors += miner.errors
        self._retired_search.accumulate(miner.search_stats)
        self._session_coherence.merge(miner.coherence())

    def _reader(self):
        """The ``(miner, verbalizer)`` pair serving this read: the
        current snapshot session when enabled, else the live substrate.
        One attribute load — a concurrent session roll never splits a
        request across epochs."""
        session = self._session
        if session is not None:
            return session.miner, session.verbalizer
        return self.batch, self.verbalizer

    # ------------------------------------------------------------------
    # typed endpoints
    # ------------------------------------------------------------------

    def mine(self, request: MineRequest) -> Response:
        """The Ĉ-minimal RE for the request's targets (or a typed error)."""
        miner, verbalizer = self._reader()
        outcome = miner.mine_one(self._batch_request(request))
        return self._mine_response(
            request, outcome, verbalize=self._verbalize(request), verbalizer=verbalizer
        )

    def describe(self, request: DescribeRequest) -> Response:
        """Mine and verbalize; the result leads with the NL rendering."""
        miner, verbalizer = self._reader()
        outcome = miner.mine_one(self._batch_request(request))
        if outcome.error is not None:
            return self._outcome_failure(request, outcome)
        assert outcome.result is not None
        result: Dict = {"found": outcome.result.found}
        if outcome.result.found:
            result["verbalized"] = verbalizer.expression(outcome.result.expression)
            result["expression"] = repr(outcome.result.expression)
            result["complexity_bits"] = outcome.result.complexity
        return Response.success(request, result, seconds=outcome.seconds)

    def update(self, request: UpdateRequest) -> Response:
        """Apply one KB mutation.  Callers must serialize updates against
        each other (the server's update lock does); with snapshot
        sessions enabled, reads keep flowing — the mutation lands on the
        live KB and the next epoch session publishes atomically before
        this returns, so the caller observes its own write."""
        started = time.perf_counter()
        try:
            triple = parse_update_triple(request.triple, context="update")
        except BatchRequestError as exc:
            self.batch.errors += 1
            return Response.failure(request.id, request.kind, str(exc), ERR_BAD_UPDATE)
        with self._live_lock:
            outcome = self.batch.apply_update(request.op, triple, request.id)
            if outcome.applied:
                self._roll_session()
        if outcome.error is not None:
            return Response.failure(
                request.id, request.kind, outcome.error, outcome.error_code
            )
        return Response.success(
            request,
            {
                "op": outcome.op,
                "triple": list(outcome.triple),
                "applied": outcome.applied,
                "epoch": outcome.epoch,
            },
            seconds=time.perf_counter() - started,
        )

    def stats(self, request: StatsRequest) -> Response:
        """KB statistics, serving telemetry and the resolved config.

        ``serving`` appears once traffic has built the mining substrate;
        a stats-only caller (``remi stats``) never pays for prominence
        rankings it will not use.
        """
        started = time.perf_counter()
        with self._live_lock:
            result = {
                "kb": dict(self.kb.stats()),
                "config": self.config.to_json(),
                "uptime_seconds": round(time.time() - self._started, 3),
            }
            if self._batch is not None or self._session is not None:
                result["serving"] = self.summary()
        return Response.success(request, result, seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route a typed request to its endpoint; unexpected exceptions
        become uniform ``internal`` error envelopes instead of tearing
        down the caller's stream."""
        try:
            if isinstance(request, MineRequest):
                return self.mine(request)
            if isinstance(request, DescribeRequest):
                return self.describe(request)
            if isinstance(request, UpdateRequest):
                return self.update(request)
            if isinstance(request, StatsRequest):
                return self.stats(request)
        except Exception as exc:  # noqa: BLE001 — uniform error envelope
            return Response.failure(
                request.id, request.kind, f"{type(exc).__name__}: {exc}", ERR_INTERNAL
            )
        return Response.failure(
            "-", "?", f"unsupported request type {type(request).__name__}"
        )

    def handle_json(self, payload, *, line: Optional[int] = None) -> Dict:
        """Decoded JSON in, envelope dict out — the wire-level entry the
        server and ``remi mine --json`` share."""
        try:
            request = parse_request(payload, line=line)
        except EnvelopeError as exc:
            return Response.failure(
                request_id_of(payload, line), "?", str(exc), exc.code, line=line
            ).to_json()
        return self.handle(request).to_json()

    # ------------------------------------------------------------------
    # streaming (the legacy JSONL surface of ``remi batch``)
    # ------------------------------------------------------------------

    def serve_jsonl(
        self, lines: Iterable[str]
    ) -> Iterator[Union[BatchOutcome, UpdateOutcome]]:
        """The ``remi batch`` stream protocol, unchanged — one outcome
        record per input line, updates applied under a flush barrier.
        Exposed here so the CLI is a thin client of the façade."""
        return self.batch.serve_jsonl(lines)

    def summary(self) -> Dict:
        """Serving telemetry; with snapshot sessions on, the numbers
        aggregate across the current session, every retired session and
        the live update substrate (one service, one report)."""
        session = self._session
        if session is None:
            return self.batch.summary()
        summary = session.miner.summary()
        summary["backend"] = type(self.kb).__name__  # the live store
        summary["epoch"] = self.kb.epoch
        summary["snapshot_epoch"] = session.snapshot.epoch
        summary["requests_served"] += self._retired_requests
        summary["errors"] += self._retired_errors
        search = SearchStats()
        search.accumulate(self._retired_search)
        search.accumulate(session.miner.search_stats)
        summary["search_stats"] = search.to_json()
        coherence = session.miner.coherence()
        coherence.merge(self._session_coherence)
        batch = self._batch
        if batch is not None:
            summary["updates_applied"] = batch.updates_applied
            summary["errors"] += batch.errors
            coherence.merge(batch.coherence())
        summary["coherence"] = coherence.to_dict()
        return summary

    # ------------------------------------------------------------------

    def _verbalize(self, request: MineRequest) -> bool:
        return bool(request.verbalize or self.config.verbalize)

    @staticmethod
    def _batch_request(request: Union[MineRequest, DescribeRequest]) -> BatchRequest:
        return BatchRequest(
            id=request.id,
            targets=tuple(IRI(t) for t in request.targets),
            top_k=request.top_k,
        )

    def _outcome_failure(self, request, outcome: BatchOutcome) -> Response:
        assert outcome.error is not None
        return Response.failure(
            request.id, request.kind, outcome.error, outcome.error_code, outcome.line
        )

    def _mine_response(
        self,
        request: MineRequest,
        outcome: BatchOutcome,
        verbalize: bool,
        verbalizer: Optional[Verbalizer] = None,
    ) -> Response:
        if outcome.error is not None:
            return self._outcome_failure(request, outcome)
        assert outcome.result is not None
        mining = outcome.result
        result: Dict = {
            "targets": [str(t) for t in outcome.request.targets],
            "found": mining.found,
        }
        if mining.found:
            result["expression"] = repr(mining.expression)
            result["complexity_bits"] = mining.complexity
            if verbalize:
                result["verbalized"] = (verbalizer or self.verbalizer).expression(
                    mining.expression
                )
        result["stats"] = mining.stats.to_json()
        return Response.success(request, result, seconds=outcome.seconds)

    def __repr__(self) -> str:
        return (
            f"MiningService(kb={type(self.kb).__name__}({len(self.kb)}), "
            f"miner={self.config.miner!r}, backend={self.config.backend!r})"
        )


__all__ = ["MiningService", "load_kb"]
