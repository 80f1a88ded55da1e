"""Batch mining: many target sets against one KB, one shared substrate.

The serving shape of the ROADMAP's north star: a deployment keeps ONE
knowledge base resident and answers a stream of mining requests against
it.  Re-instantiating :class:`~repro.core.remi.REMI` per request would
recompute the prominence ranking, the prominent-entity cutoff set, the
complexity estimator's rank tables and the matcher's LRU cache every time
— all of which depend only on the KB.  :class:`BatchMiner` builds them
once and reuses them across every request in the batch (and, on an
interned backend, the term dictionary is shared implicitly through the
store).

The same sharing covers the candidate pipeline: all requests flow through
the one :class:`~repro.core.candidates.CandidateEngine` owned by the
shared miner, so its ID-space memos (admissible predicates, term kinds,
per-hub tail lists and pair sets) and the batch scorer's ID-keyed
conditional rank tables are built by whichever request needs them first
and amortized over the rest of the stream — :meth:`BatchMiner.summary`
reports the resident table counts.

Requests travel as JSON lines (one target set per line)::

    ["http://example.org/Rennes", "http://example.org/Nantes"]
    {"id": "req-7", "targets": ["http://example.org/Guyana"]}

Either form is accepted; bare lists get positional IDs.  The stream may
also interleave **update operations** — the KB mutates in place between
the surrounding mining requests, and every derived cache follows through
the epoch protocol of :mod:`repro.kb.epoch` (no rebuild, no restart)::

    {"op": "add",    "triple": ["http://ex.org/s", "http://ex.org/p", "http://ex.org/o"]}
    {"op": "delete", "triple": ["http://ex.org/s", "http://ex.org/p", "\"42\""]}

Triple positions are bare IRI strings or N-Triples-syntax terms
(``<iri>``, ``"literal"``, ``_:blank``); each update line yields one
:class:`UpdateOutcome` record in the output, and mining requests after it
are answered against the updated KB — bit-identical to a KB freshly built
from the final triple set (pinned by ``tests/core/test_live_updates.py``).
Programmatic callers use :meth:`BatchMiner.apply_update` /
:meth:`BatchMiner.apply_updates` (the bulk path bumps the epoch once).

The CLI front end is ``remi batch`` (:mod:`repro.cli`); programmatic
callers use :meth:`BatchMiner.mine_many` / :meth:`BatchMiner.mine_one`
directly.

With ``workers > 1`` requests are answered concurrently from a thread
pool.  Results stay deterministic: the matcher cache is thread-safe, the
estimator's rank tables are computed from pure KB queries (a racy double
compute yields the same values), and every request runs its own search.
Updates are applied only between request chunks (never while requests are
in flight), which :meth:`BatchMiner.mine_jsonl` guarantees by flushing
pending requests before each update line.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.config import MinerConfig
from repro.core.results import MiningResult, SearchStats
from repro.expressions.verbalize import Verbalizer
from repro.kb.base import BaseKnowledgeBase
from repro.kb.epoch import CacheCoherence, EpochWatcher
from repro.kb.ntriples import NTriplesParseError, parse_term
from repro.kb.terms import IRI, Term
from repro.kb.triples import Triple
from repro.registry import MINERS

#: Uniform machine-readable error codes, shared with the service
#: envelopes (:mod:`repro.service.envelopes`) so every layer reports
#: failures the same way.
ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_ENTITY = "unknown_entity"
ERR_BAD_UPDATE = "bad_update"
ERR_INTERNAL = "internal"


class BatchRequestError(ValueError):
    """Raised when a JSON-lines request cannot be parsed."""


@dataclass(frozen=True)
class BatchRequest:
    """One mining request: a target set plus a caller-chosen ID.

    ``top_k`` overrides the miner config's bounded-queue knob for this
    one request (``None`` inherits it).  Mining results are identical
    either way — the knob only bounds queue-construction work — so a
    client may tune it per request without changing answers.
    """

    id: str
    targets: Tuple[Term, ...]
    top_k: Optional[int] = None


@dataclass
class BatchOutcome:
    """The answer to one :class:`BatchRequest`.

    Either ``result`` is set (the request was mined — it may still hold no
    RE) or ``error`` explains why mining was impossible (unknown entities,
    malformed request).
    """

    request: BatchRequest
    result: Optional[MiningResult] = None
    error: Optional[str] = None
    #: Machine-readable failure class (one of the ``ERR_*`` constants).
    error_code: str = ERR_BAD_REQUEST
    #: 1-based input line the failure was read from (JSONL streams only).
    line: Optional[int] = None
    seconds: float = 0.0

    @property
    def found(self) -> bool:
        return self.result is not None and self.result.found

    def error_json(self) -> Optional[Dict]:
        """The uniform structured error object (None on success)."""
        if self.error is None:
            return None
        return _error_json(self.error_code, self.error, self.line)

    def to_json(self, verbalizer: Optional[Verbalizer] = None) -> Dict:
        """A JSON-serializable record, one per output line of ``remi batch``."""
        record: Dict = {
            "id": self.request.id,
            "targets": [str(t) for t in self.request.targets],
        }
        if self.error is not None:
            record["error"] = self.error_json()
            return record
        assert self.result is not None
        record["found"] = self.result.found
        record["seconds"] = round(self.seconds, 6)
        if self.result.found:
            record["expression"] = repr(self.result.expression)
            record["complexity_bits"] = self.result.complexity
            if verbalizer is not None:
                record["verbalized"] = verbalizer.expression(self.result.expression)
        record["stats"] = self.result.stats.to_json()
        return record


@dataclass
class UpdateOutcome:
    """The answer to one JSONL update operation.

    Mirrors :class:`BatchOutcome` so a mixed request/update stream maps
    one input line to one output record, in order.
    """

    id: str
    op: str
    triple: Tuple[str, ...]
    applied: bool = False
    #: The KB epoch after this operation (what subsequent requests see).
    epoch: int = 0
    error: Optional[str] = None
    error_code: str = ERR_BAD_UPDATE
    line: Optional[int] = None

    def error_json(self) -> Optional[Dict]:
        if self.error is None:
            return None
        return _error_json(self.error_code, self.error, self.line)

    def to_json(self, verbalizer: Optional[Verbalizer] = None) -> Dict:
        record: Dict = {"id": self.id, "op": self.op, "triple": list(self.triple)}
        if self.error is not None:
            record["error"] = self.error_json()
            return record
        record["applied"] = self.applied
        record["epoch"] = self.epoch
        return record


def _error_json(code: str, reason: str, line: Optional[int]) -> Dict:
    """The one shape every error takes on the wire: ``code`` classifies,
    ``reason`` explains, ``line`` (when present) points at the offending
    input line of a JSONL stream."""
    record: Dict = {"code": code, "reason": reason}
    if line is not None:
        record["line"] = line
    return record


#: JSONL update verbs (``"discard"`` is accepted as an alias of delete
#: programmatically, but the wire protocol uses these two).
UPDATE_OPS = ("add", "delete")


def _parse_update_term(raw: str, context: str, line_no: int = 1):
    """One triple position: a bare IRI string, or N-Triples syntax for
    literals (``"v"``, with optional ``@lang`` / ``^^<dt>``), IRIs in
    angle brackets and blank nodes (``_:b``)."""
    if raw.startswith(("<", '"', "_:")):
        try:
            return parse_term(raw, line_no)
        except NTriplesParseError as exc:
            raise BatchRequestError(f"{context}: bad term {raw!r} ({exc})") from exc
    # Bare strings get the same junk guard as the N-Triples path: an
    # empty or whitespace-bearing "IRI" is a pasted statement or typo,
    # and applying it would mutate the KB with a phantom term.
    if not raw or any(ch.isspace() for ch in raw):
        raise BatchRequestError(f"{context}: bad IRI {raw!r}")
    return IRI(raw)


def parse_update_triple(
    raw: Sequence[str], context: str = "update", line_no: int = 1
) -> Triple:
    """Three wire strings → a validated :class:`~repro.kb.triples.Triple`.

    The term syntax of the JSONL update protocol (bare IRIs or N-Triples
    terms); *context* prefixes error messages (``"line 7"`` in streams).
    Raises :class:`BatchRequestError` on any malformed position.
    """
    terms = [_parse_update_term(part, context, line_no) for part in raw]
    triple = Triple(*terms)
    try:
        triple.validate()
    except TypeError as exc:
        raise BatchRequestError(f"{context}: {exc}") from exc
    return triple


def parse_update(payload: Dict, index: int) -> Tuple[str, str, Triple]:
    """Parse an ``{"op": ..., "triple": [s, p, o]}`` payload.

    Returns ``(id, op, triple)``; raises :class:`BatchRequestError` on a
    malformed operation.
    """
    context = f"line {index}"
    op = payload.get("op")
    if op not in UPDATE_OPS:
        raise BatchRequestError(
            f"{context}: unknown op {op!r}; use " + " or ".join(map(repr, UPDATE_OPS))
        )
    raw = payload.get("triple")
    if (
        not isinstance(raw, list)
        or len(raw) != 3
        or not all(isinstance(part, str) for part in raw)
    ):
        raise BatchRequestError(
            f"{context}: 'triple' must be a [subject, predicate, object] list of strings"
        )
    update_id = str(payload.get("id", index))
    return update_id, op, parse_update_triple(raw, context, line_no=index)


def parse_request(line: str, index: int) -> BatchRequest:
    """Parse one JSON line into a :class:`BatchRequest`.

    Accepts a bare list of IRIs or an object ``{"id": ..., "targets":
    [...]}``; bare lists get the 1-based line position as their ID.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise BatchRequestError(f"line {index}: invalid JSON ({exc})") from exc
    return request_from_payload(payload, index)


def request_from_payload(payload, index: int) -> BatchRequest:
    """Build a :class:`BatchRequest` from decoded JSON (list or object)."""
    top_k = None
    if isinstance(payload, list):
        request_id, raw_targets = str(index), payload
    elif isinstance(payload, dict):
        if "targets" not in payload:
            raise BatchRequestError(f"line {index}: missing 'targets' key")
        request_id = str(payload.get("id", index))
        raw_targets = payload["targets"]
        top_k = payload.get("top_k")
        if top_k is not None and (
            isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1
        ):
            raise BatchRequestError(
                f"line {index}: 'top_k' must be a positive integer or null"
            )
    else:
        raise BatchRequestError(
            f"line {index}: expected a JSON list or object, got {type(payload).__name__}"
        )
    if not isinstance(raw_targets, list) or not all(
        isinstance(t, str) for t in raw_targets
    ):
        raise BatchRequestError(f"line {index}: 'targets' must be a list of IRI strings")
    if not raw_targets:
        raise BatchRequestError(f"line {index}: empty target set")
    return BatchRequest(
        id=request_id, targets=tuple(IRI(t) for t in raw_targets), top_k=top_k
    )


def parse_requests(lines: Iterable[str]) -> Iterator[BatchRequest]:
    """Parse a JSON-lines stream, skipping blank lines and ``#`` comments."""
    for index, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield parse_request(stripped, index)


class BatchMiner:
    """Mines many target sets against one KB with shared machinery.

    Parameters
    ----------
    kb:
        Any :class:`~repro.kb.base.BaseKnowledgeBase` backend.  The
        interned backend is the intended production choice — see
        ``benchmarks/bench_interned.py`` for the measured ratio.
    prominence, config:
        Forwarded to the miner; one miner instance (and thus one
        prominence ranking, estimator and matcher cache) is shared by
        every request.
    miner:
        Registry key of the mining algorithm (:data:`repro.registry.MINERS`:
        ``"remi"``, ``"premi"``, the baselines, or anything registered
        late).  Default ``"remi"``.
    mode:
        Registry key of the complexity estimator
        (:data:`repro.registry.ESTIMATORS`), forwarded to the miner.
    workers:
        Number of concurrent requests (inter-request parallelism).  The
        default of 1 answers requests in order on the calling thread.
    """

    def __init__(
        self,
        kb: BaseKnowledgeBase,
        prominence: str = "fr",
        config: Optional[MinerConfig] = None,
        workers: int = 1,
        miner: str = "remi",
        mode: str = "exact",
    ):
        if workers < 1:
            raise ValueError(f"workers must be ≥ 1, got {workers}")
        self.kb = kb
        self.miner_name = miner
        self.miner = MINERS.create(
            miner, kb, prominence=prominence, mode=mode, config=config
        )
        self.workers = workers
        self.requests_served = 0
        self.updates_applied = 0
        self.errors = 0
        #: Serving-lifetime totals of every answered request's SearchStats
        #: (machine-readable via :meth:`summary`).
        self.search_stats = SearchStats()
        # Counter updates are load/add/store; workers > 1 would lose
        # increments without this lock.
        self._counter_lock = threading.Lock()
        #: Known-entity set, built on first use and repaired per epoch.
        #: Scanning the KB per request would dwarf small mining calls;
        #: updates between request chunks repair it incrementally.
        self._known: Optional[set] = None
        self._known_watch: Optional[EpochWatcher] = None

    # ------------------------------------------------------------------

    def warm_up(self) -> None:
        """Force the shared KB-dependent state to build ahead of traffic.

        Touches the prominence ranking, the prominent-entity cutoff set and
        the known-entity set so the first request does not pay for them.
        (Registry miners without a cutoff set — the baselines — skip it.)
        """
        _ = getattr(self.miner, "prominent_entities", None)
        self.miner.prominence.predicate_rank(next(iter(self.kb.predicates()), IRI("urn:none")))
        self._known_entities()

    def _known_entities(self) -> set:
        """The entity set requests are validated against, epoch-coherent.

        Incremental repair per mutation when the KB's log covers the gap
        (adds insert the triple's IRIs; deletes evict terms whose last
        fact went away), full rescan otherwise.  Double-checked: the
        steady-state path (set built, epoch unchanged) is lock-free so
        concurrent workers never contend here; only first use and the
        stale path take the lock.
        """
        known = self._known
        watch = self._known_watch
        if known is not None and watch is not None and watch.seen == self.kb.epoch:
            return known
        with self._counter_lock:
            if self._known is None:
                self._known = set(self.kb.entities())
                self._known_watch = EpochWatcher(self.kb)
                return self._known
            watch = self._known_watch
            assert watch is not None
            if watch.seen != self.kb.epoch:
                watch.absorb(self._repair_known, self._rescan_known)
            return self._known

    def _repair_known(self, changes) -> bool:
        known = self._known
        assert known is not None
        for op, triple in changes:
            for term in (triple.subject, triple.object):
                if not isinstance(term, IRI):
                    continue
                if op == "add":
                    known.add(term)
                elif self.kb.term_frequency(term) == 0:
                    known.discard(term)
        return True

    def _rescan_known(self) -> None:
        self._known = set(self.kb.entities())

    def mine_one(self, request: BatchRequest) -> BatchOutcome:
        """Answer a single request; errors become per-request outcomes."""
        if not request.targets:
            with self._counter_lock:
                self.errors += 1
            return BatchOutcome(request=request, error="empty target set")
        known = self._known_entities()
        unknown = [t for t in request.targets if t not in known]
        if unknown:
            with self._counter_lock:
                self.errors += 1
            return BatchOutcome(
                request=request,
                error="unknown entities: " + ", ".join(str(u) for u in unknown),
                error_code=ERR_UNKNOWN_ENTITY,
            )
        if request.top_k is not None and not getattr(
            self.miner, "supports_top_k", False
        ):
            # Registry miners without the bounded-queue contract (the
            # baselines) must reject rather than silently ignore the knob.
            with self._counter_lock:
                self.errors += 1
            return BatchOutcome(
                request=request,
                error=f"miner {self.miner_name!r} does not support top_k",
            )
        started = time.perf_counter()
        if request.top_k is not None:
            result = self.miner.mine(request.targets, top_k=request.top_k)
        else:
            result = self.miner.mine(request.targets)
        outcome = BatchOutcome(
            request=request, result=result, seconds=time.perf_counter() - started
        )
        with self._counter_lock:
            self.requests_served += 1
            self.search_stats.accumulate(result.stats)
        return outcome

    def mine_many(
        self, requests: Iterable[Union[BatchRequest, Sequence[Term]]]
    ) -> List[BatchOutcome]:
        """Answer every request, preserving input order.

        Plain target sequences are wrapped into :class:`BatchRequest` with
        positional IDs, so ``mine_many([[a], [b, c]])`` works directly.
        """
        normalized = [
            r
            if isinstance(r, BatchRequest)
            else BatchRequest(id=str(i), targets=tuple(r))
            for i, r in enumerate(requests, start=1)
        ]
        if self.workers == 1 or len(normalized) <= 1:
            return [self.mine_one(r) for r in normalized]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(self.mine_one, normalized))

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------

    def apply_update(
        self, op: str, triple: Triple, update_id: str = "-"
    ) -> UpdateOutcome:
        """Apply one mutation to the resident KB, between requests.

        Must not run concurrently with in-flight mining requests (the
        JSONL path flushes pending requests first); derived caches follow
        lazily through the epoch protocol, so the next request simply
        sees the new KB state.
        """
        try:
            if op == "add":
                applied = self.kb.add(triple)
            elif op in ("delete", "discard"):
                applied = self.kb.discard(triple)
            else:
                raise ValueError(f"unknown op {op!r}; use 'add' or 'delete'")
        except (TypeError, ValueError) as exc:
            self.errors += 1
            return UpdateOutcome(
                id=update_id,
                op=str(op),
                triple=tuple(str(part) for part in triple),
                error=str(exc),
            )
        self.updates_applied += applied
        return UpdateOutcome(
            id=update_id,
            op=op,
            triple=tuple(str(part) for part in triple),
            applied=bool(applied),
            epoch=self.kb.epoch,
        )

    def apply_updates(self, operations: Iterable[Tuple[str, Triple]]) -> int:
        """Bulk mutation through :meth:`~repro.kb.base.BaseKnowledgeBase.mutate_many`:
        the whole batch bumps the epoch once, so derived caches pay a
        single invalidation.  Returns the number of effective operations.

        Every op is validated BEFORE anything applies — a bad verb or an
        RDF-invalid triple rejects the whole batch up front, so the KB
        and the ``updates_applied`` counter can never disagree about a
        half-applied batch.
        """
        ops = list(operations)
        for op, triple in ops:
            if op not in ("add", "delete", "discard"):
                raise ValueError(f"unknown op {op!r}; use 'add' or 'delete'")
            if op == "add":
                triple.validate()
        applied = self.kb.mutate_many(ops)
        self.updates_applied += applied
        return applied

    def serve_jsonl(
        self, lines: Iterable[str]
    ) -> Iterator[Union[BatchOutcome, UpdateOutcome]]:
        """Stream outcomes for a JSON-lines request/update stream.

        One output record per input line, in input order, yielded as soon
        as each record is decided — so a long-lived producer piping lines
        in sees responses (and KB mutations) immediately, not at EOF.
        With ``workers == 1`` every request is answered as soon as its
        line is read — an interactive request/response producer never
        blocks.  With ``workers > 1`` runs of consecutive requests are
        buffered and answered concurrently; any other line — an update
        op or malformed input — flushes the pending run first, so no
        request races a mutation and order is preserved.  Malformed
        lines become error records in place; update lines become
        :class:`UpdateOutcome` records.
        """
        pending: List[BatchRequest] = []

        def flush() -> List[BatchOutcome]:
            if not pending:
                return []
            outcomes = self.mine_many(list(pending))
            pending.clear()
            return outcomes

        for index, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as exc:
                yield from flush()
                self.errors += 1
                bad = BatchRequest(id=str(index), targets=())
                yield BatchOutcome(
                    request=bad,
                    error=f"line {index}: invalid JSON ({exc})",
                    line=index,
                )
                continue
            if isinstance(payload, dict) and "op" in payload:
                yield from flush()  # barrier: no request races the mutation
                try:
                    update_id, op, triple = parse_update(payload, index)
                except BatchRequestError as exc:
                    self.errors += 1
                    yield UpdateOutcome(
                        id=str(payload.get("id", index)),
                        op=str(payload.get("op")),
                        triple=(),
                        error=str(exc),
                        line=index,
                    )
                    continue
                yield self.apply_update(op, triple, update_id)
                continue
            try:
                pending.append(request_from_payload(payload, index))
            except BatchRequestError as exc:
                yield from flush()
                self.errors += 1
                bad = BatchRequest(id=str(index), targets=())
                yield BatchOutcome(request=bad, error=str(exc), line=index)
                continue
            if self.workers == 1:
                # Buffering only buys anything when requests can run
                # concurrently; answer immediately so an interactive
                # producer that waits for each response never deadlocks.
                yield from flush()
        yield from flush()

    def mine_jsonl(
        self, lines: Iterable[str]
    ) -> List[Union[BatchOutcome, UpdateOutcome]]:
        """:meth:`serve_jsonl`, materialized (for whole-file callers)."""
        return list(self.serve_jsonl(lines))

    # ------------------------------------------------------------------

    def coherence(self) -> CacheCoherence:
        """Merged epoch-invalidation telemetry across every derived cache
        this miner serves from (matcher LRU, prominence, estimator and
        scorer rank tables, candidate memos, known-entity set).  Registry
        miners without some component — the baselines have no candidate
        engine — contribute what they have."""
        miner = self.miner
        merged = CacheCoherence()
        merged.merge(miner.matcher.coherence)
        estimator = getattr(miner, "estimator", None)
        if estimator is not None:
            merged.merge(estimator.coherence)
        engine = getattr(miner, "engine", None)
        if engine is not None:
            merged.merge(engine.coherence)
            merged.merge(engine.scorer.coherence)
        masks = getattr(getattr(miner, "kb", None), "masks", None)  # shared IdSet store
        if masks is not None:
            merged.merge(masks.coherence)
        prominence_coherence = getattr(miner.prominence, "coherence", None)
        if prominence_coherence is not None:
            merged.merge(prominence_coherence)
        prominent_watch = getattr(miner, "_prominent_watch", None)
        if prominent_watch is not None:
            merged.merge(prominent_watch.coherence)
        adapter_watch = getattr(miner, "_watch", None)  # baseline adapters
        if adapter_watch is not None:
            merged.merge(adapter_watch.coherence)
        if self._known_watch is not None:
            merged.merge(self._known_watch.coherence)
        return merged

    def summary(self) -> Dict:
        """Aggregate serving statistics (cache reuse is the whole point)."""
        cache = self.miner.matcher.cache_stats
        engine = getattr(self.miner, "engine", None)
        return {
            "requests_served": self.requests_served,
            "updates_applied": self.updates_applied,
            "errors": self.errors,
            "backend": type(self.kb).__name__,
            "miner": self.miner_name,
            "epoch": self.kb.epoch,
            "matcher_cache": cache,
            "engine": engine.table_stats() if engine is not None else {},
            "coherence": self.coherence().to_dict(),
            "search_stats": self.search_stats.to_json(),
        }
