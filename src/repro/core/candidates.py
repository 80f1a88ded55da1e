"""The candidate pipeline: Alg. 1 lines 1–2 as one engine.

:class:`CandidateEngine` owns the whole front half of REMI — enumerate the
subgraph expressions of the seed target, intersect across the remaining
targets, score every survivor with Ĉ, sort the queue — and is shared by
:class:`~repro.core.remi.REMI`, :class:`~repro.core.parallel.PREMI` and
:class:`~repro.core.batch.BatchMiner` (whose requests amortize one
engine's memos and code-length tables).

The backend selects one of two paths, which produce bit-identical queues:

* **ID space** (dictionary-encoded backends, ``supports_id_queries``) —
  the mask kernel.  Candidates exist as plain ``int`` tuples until they
  are touched: neighbourhoods, second-hop tails, closed-pair
  co-occurrence and the §3.5.2 prominence/blank-node prunes run over
  ``set[int]`` adjacency views; the cross-target intersection is pure
  set algebra over the KB's shared :class:`~repro.kb.idset.MaskStore` —
  a candidate survives a target iff the right bitmask intersections are
  non-empty (e.g. a path ``p0(x,y) ∧ p1(y,I)`` iff
  ``objects(t, p0) ∩ subjects(p1, I) ≠ ∅``); scoring runs against the
  :class:`~repro.complexity.batch.QueueScorer`'s precompiled code-length
  tables (the §3.5.3 power-law estimator included); and queue entries
  decode into :class:`~repro.expressions.subgraph.SubgraphExpression`
  objects *lazily*: only the entries the search (or any other consumer)
  actually touches are materialized, once per distinct candidate per
  engine (:class:`CandidateQueue`).  This is the "compile the symbolic
  problem into dense integer structures" move the interned matcher
  already made for Alg. 2.

* **Term space** (every other backend, i.e. the hash store) — exactly
  the seed behaviour and the differential oracle:
  :func:`~repro.core.enumerate.subgraph_expressions` on the seed entity,
  ``matcher.holds_for`` per expression per remaining target,
  per-expression ``estimator.complexity``.

The two paths are pinned against each other — and against the seed
functions in :mod:`repro.core.enumerate` — by the differential harness in
``tests/core/test_candidate_engine.py`` (candidate sets and Ĉ values
bit-identical on both backends, exact and power-law estimators).

The engine's memos are epoch-coherent: every :meth:`CandidateEngine.candidates`
call checks the KB epoch (:mod:`repro.kb.epoch`) and absorbs any mutation
before serving — Ĉ-bearing memos clear coarsely (one triple can move any
conditional rank), while the per-hub tail memo repairs incrementally
when the KB's mutation log still covers the gap (only touched hubs drop).
The term-identity memos (admissible predicates, term kinds, decoded
atoms) survive mutations untouched: interned IDs are never reused, so
they can never go stale.  No manual cache management is needed.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import insort
from itertools import combinations
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.complexity.batch import (
    PLAN_CLOSED,
    PLAN_PATH,
    PLAN_SINGLE,
    PLAN_STAR,
    QueueScorer,
)
from repro.complexity.codes import ComplexityEstimator
from repro.core.config import LanguageBias, MinerConfig
from repro.core.enumerate import subgraph_expressions
from repro.core.results import SearchStats
from repro.expressions.atoms import ROOT, Atom, Y
from repro.expressions.matching import Matcher
from repro.expressions.subgraph import Shape, SubgraphExpression
from repro.kb.base import BaseKnowledgeBase
from repro.kb.epoch import CacheCoherence, EpochWatcher
from repro.kb.terms import Term

#: A scored queue entry: (subgraph expression, Ĉ in bits).
ScoredSE = Tuple[SubgraphExpression, float]

#: Term kinds used by the ID-space prunes.
_IRI, _BLANK, _LITERAL = 0, 1, 2

#: Sentinel for "use the config's top_k" (``None`` is a real value:
#: the exact full-queue mode).
_UNSET = object()


#: Queue records are ``[Ĉ bits, SE sort key, decoded SE | None, shape
#: index, ID key]``; the first two fields are the Alg. 1 line 2 order (the
#: SE key is memoized per candidate, so repeat requests never rebuild it).
_entry_key = itemgetter(0, 1)


class CandidateQueue(Sequence):
    """The sorted queue with decode-on-touch entries.

    Behaves as a ``Sequence[ScoredSE]`` — the search indexes and iterates
    it exactly like the eager list — but a queue entry's
    :class:`~repro.expressions.subgraph.SubgraphExpression` is only
    materialized the first time that entry is *touched*.  REMI's search
    typically consumes a short, Ĉ-cheap prefix of a queue tens of
    thousands deep (bound pruning cuts the rest), so most entries never
    pay the decode; the ones that do share it process-wide, because the
    decoded SE is written back into the engine's cross-request memo
    record.  This is the "decode only the survivors that reach the
    response boundary" half of the mask-native pipeline.

    **Bounded top-k mode** adds a second axis of laziness: the queue may
    hold only the first-k *frontier* of the full sorted order, with the
    remainder deferred behind :meth:`extend_frontier` — a one-shot
    inflate that scores whatever the branch-and-bound build pruned, merges
    it with the already-scored spill and appends the lot in sorted order.
    Because the frontier is provably the exact prefix of the full sorted
    queue, a consumer that only ever pulls the next entry when the prefix
    is exhausted (REMI's search) sees the identical sequence either way.
    """

    __slots__ = ("_entries", "_pairs", "_decode", "_tail", "_lock")

    def __init__(
        self,
        entries: List[list],
        decode: Callable[[list], SubgraphExpression],
        tail: Union[None, List[list], Callable[[], List[list]]] = None,
    ):
        self._entries = entries
        #: Decoded ``(se, bits)`` pairs, filled per index on first touch.
        self._pairs: List[Optional[ScoredSE]] = [None] * len(entries)
        self._decode = decode
        #: The deferred remainder: a sorted record list (Term space) or
        #: a closure that scores-and-sorts it on demand (ID space).
        #: ``None`` once inflated — or when the queue was built exact.
        self._tail = tail
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def exhausted(self) -> bool:
        """True when no deferred remainder is pending (exact queues are
        born exhausted; bounded ones get here via :meth:`extend_frontier`)."""
        return self._tail is None

    def extend_frontier(self) -> int:
        """Inflate the deferred remainder into the queue, once.

        Returns the number of entries appended (0 when already
        exhausted).  Thread-safe: P-REMI's workers race to the same
        extension, exactly one pays it.  Entries are appended after the
        frontier in full sorted order, so indices already handed out stay
        valid and the combined sequence equals the exact full queue.
        """
        with self._lock:
            tail = self._tail
            if tail is None:
                return 0
            self._tail = None
            added = tail() if callable(tail) else tail
            # Pairs first: a concurrent reader that sees the new length
            # must find a slot (even a None one) behind every entry.
            self._pairs.extend([None] * len(added))
            self._entries.extend(added)
            return len(added)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._entries)))]
        pair = self._pairs[index]
        if pair is None:
            rec = self._entries[index]
            se = rec[2]
            if se is None:
                se = self._decode(rec)
            pair = (se, rec[0])
            self._pairs[index] = pair
        return pair

    def __iter__(self) -> Iterator[ScoredSE]:
        for i in range(len(self._entries)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (CandidateQueue, list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    @property
    def decoded_count(self) -> int:
        """How many entries have been materialized so far (telemetry)."""
        return sum(1 for rec in self._entries if rec[2] is not None)

    def __repr__(self) -> str:
        suffix = "" if self._tail is None else ", +deferred tail"
        return (
            f"CandidateQueue(len={len(self._entries)}, "
            f"decoded={self.decoded_count}{suffix})"
        )


class _IdCandidates:
    """Per-shape candidate sets as interned-ID tuples (pre-decode)."""

    __slots__ = ("singles", "paths", "stars", "closed2", "closed3")

    def __init__(self) -> None:
        self.singles: Set[Tuple[int, int]] = set()
        self.paths: Set[Tuple[int, int, int]] = set()
        #: ``(p0, (p1, o1), (p2, o2))`` with the star pairs ID-ordered so
        #: each unordered atom pair has exactly one tuple (mirrors the
        #: canonicalization SubgraphExpression.path_star applies on decode).
        self.stars: Set[Tuple[int, Tuple[int, int], Tuple[int, int]]] = set()
        self.closed2: Set[Tuple[int, int]] = set()
        self.closed3: Set[Tuple[int, int, int]] = set()

    def total(self) -> int:
        return (
            len(self.singles)
            + len(self.paths)
            + len(self.stars)
            + len(self.closed2)
            + len(self.closed3)
        )

    def clear(self) -> None:
        self.singles.clear()
        self.paths.clear()
        self.stars.clear()
        self.closed2.clear()
        self.closed3.clear()


class CandidateEngine:
    """Builds the sorted priority queue of Alg. 1 lines 1–2.

    Parameters
    ----------
    kb:
        Any backend; dictionary-encoded ones (``supports_id_queries``) get
        the ID-space mask-kernel path, all others the Term-space path.
    config, matcher, estimator:
        The miner's collaborators; defaults are built when omitted (a
        standalone engine is handy in tests and benchmarks).
    prominent:
        The §3.5.2 top-prominence cutoff set, or a zero-argument callable
        returning it (miners pass their lazy property).
    """

    def __init__(
        self,
        kb: BaseKnowledgeBase,
        config: Optional[MinerConfig] = None,
        matcher: Optional[Matcher] = None,
        estimator: Optional[ComplexityEstimator] = None,
        prominent: Union[None, FrozenSet[Term], Callable[[], FrozenSet[Term]]] = None,
    ):
        self.kb = kb
        self.config = config or MinerConfig()
        self.matcher = matcher or Matcher(kb)
        if estimator is None:
            from repro.complexity.ranking import FrequencyProminence

            estimator = ComplexityEstimator(kb, FrequencyProminence(kb))
        self.estimator = estimator
        if prominent is None:
            prominent = frozenset()
        self._prominent_supplier: Callable[[], FrozenSet[Term]] = (
            prominent if callable(prominent) else (lambda: prominent)  # type: ignore[assignment, return-value]
        )
        #: The mask-kernel ID path; otherwise the Term-space oracle.
        self.id_space = bool(getattr(kb, "supports_id_queries", False))
        self.scorer = QueueScorer(estimator)
        # Read-only-KB memos (ID space), keyed by stable interned IDs.
        self._admit: Dict[int, bool] = {}
        self._kinds: Dict[int, int] = {}
        self._pred_values: Dict[int, str] = {}
        self._pred_ranks: Dict[int, int] = {}
        self._tails_memo: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self._prominent_memo: Optional[Tuple[FrozenSet[Term], FrozenSet[int]]] = None
        # Candidate memos.  Atoms (and their sort keys) recur across many
        # candidates — one tail atom appears in every star through its
        # hub — and whole candidates recur across requests (shared
        # classes, shared hubs), so both levels are memoized per engine:
        #   atom memos: ID pair -> (Atom, atom sort key), split by role;
        #   SE memos:   ID tuple -> queue record (see _entry_key), one
        #               dict per shape (raw ID tuples can collide).
        # A repeat candidate costs one dict probe per request.
        self._root_atoms: Dict[int, Tuple[Atom, tuple]] = {}
        self._bound_atoms: Dict[Tuple[int, int], Tuple[Atom, tuple]] = {}
        self._star_atoms: Dict[Tuple[int, int], Tuple[Atom, tuple]] = {}
        self._se_memos: Tuple[Dict[tuple, list], ...] = ({}, {}, {}, {}, {})
        self.se_memo_limit = 1 << 20  # entries across shapes; cleared when exceeded
        self._watch = EpochWatcher(kb)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def candidates(
        self,
        targets: Sequence[Term],
        stats: Optional[SearchStats] = None,
        top_k: Union[None, int, object] = _UNSET,
    ) -> Sequence[ScoredSE]:
        """The sorted priority queue of common subgraph expressions.

        Fills the per-phase counters (``enumerated`` / ``intersected_out``
        / ``scored``) and timings on *stats*.  On the ID path the result
        is a :class:`CandidateQueue` (lazy decode); on the Term-space path
        a plain list — both index and iterate as ``(SE, Ĉ bits)`` pairs.

        *top_k* bounds the build: only the first-k prefix of the sorted
        order is scored and ordered eagerly (branch-and-bound over
        candidate families on the ID path; a sorted split on the
        Term-space path), with the remainder deferred behind
        :meth:`CandidateQueue.extend_frontier`.  Omit it to use the
        config's ``top_k``; pass ``None`` for the exact full queue.  In
        bounded mode ``stats.candidates``/``stats.scored`` count the
        frontier actually built, and the ``sort_seconds``/
        ``complexity_seconds`` attribution blurs (scoring and ordering
        interleave) — compare their *sum* across modes.
        """
        stats = stats if stats is not None else SearchStats()
        if not targets:
            raise ValueError("need at least one target entity")
        k = self.config.top_k if top_k is _UNSET else top_k
        self._sync()
        t0 = time.perf_counter()
        scored: Sequence[ScoredSE]
        if self.id_space:
            cand = self._intersected_ids(targets, stats)
            t1 = time.perf_counter()
            if k is not None and cand.total() > k:
                frontier, tail = self._score_kernel_topk(cand, k, stats)
                t2 = time.perf_counter()
                scored = CandidateQueue(frontier, self._decode_entry, tail=tail)
            else:
                entries = self._score_kernel(cand)
                stats.scored += len(entries)
                t2 = time.perf_counter()
                entries.sort(key=_entry_key)
                scored = CandidateQueue(entries, self._decode_entry)
        else:
            survivors = self._common_term_space(targets, stats)
            t1 = time.perf_counter()
            complexity = self.estimator.complexity
            scored = [(se, complexity(se)) for se in survivors]
            stats.scored += len(scored)
            t2 = time.perf_counter()
            scored.sort(key=lambda pair: (pair[1], pair[0].sort_key()))
            if k is not None and len(scored) > k:
                # Bounded top-k on the oracle path: an exact split of the
                # fully scored queue into frontier + deferred tail (no
                # bounds involved) — it models only the *streaming* half
                # of the contract.
                records = [[bits, se.sort_key(), se] for se, bits in scored]
                stats.heap_peak = max(stats.heap_peak, k)
                scored = CandidateQueue(
                    records[:k], self._decode_entry, tail=records[k:]
                )
        t3 = time.perf_counter()
        stats.enumerate_seconds += t1 - t0
        stats.complexity_seconds += t2 - t1
        stats.sort_seconds += t3 - t2
        stats.candidates = len(scored)
        return scored

    def common(
        self, targets: Sequence[Term], stats: Optional[SearchStats] = None
    ) -> Set[SubgraphExpression]:
        """Alg. 1 line 1 only: the unscored common candidate set."""
        stats = stats if stats is not None else SearchStats()
        if not targets:
            raise ValueError("need at least one target entity")
        self._sync()
        if self.id_space:
            return set(self._decode(self._intersected_ids(targets, stats)))
        return set(self._common_term_space(targets, stats))

    def table_stats(self) -> Dict[str, int]:
        """Resident shared state (serving telemetry for BatchMiner)."""
        stats = dict(self.scorer.table_stats())
        stats["hub_tail_memos"] = len(self._tails_memo)
        stats["candidate_memos"] = sum(len(m) for m in self._se_memos)
        if self.id_space:
            for family, count in self.kb.masks.stats().items():  # type: ignore[attr-defined]
                stats[f"mask_{family}"] = count
        return stats

    def clear_caches(self) -> None:
        """Drop EVERY memo and code-length table — the full manual reset.

        Mutation coherence does not need this any more (the epoch guard
        in :meth:`candidates`/:meth:`common` absorbs KB updates
        automatically, keeping the term-identity memos that cannot go
        stale); it remains for tests and for reclaiming memory.
        """
        self._admit.clear()
        self._kinds.clear()
        self._pred_values.clear()
        self._pred_ranks.clear()
        self._tails_memo.clear()
        self._prominent_memo = None
        self._root_atoms.clear()
        self._bound_atoms.clear()
        self._star_atoms.clear()
        for memo in self._se_memos:
            memo.clear()
        self.scorer.clear_tables()

    # ------------------------------------------------------------------
    # epoch coherence
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Absorb KB mutations before serving a queue.

        Ĉ-bearing memos (scored candidates, predicate ranks, prominent
        IDs) clear coarsely — one triple can shift any conditional rank.
        The per-hub tail memo is keyed by the mutated subject, so
        when the KB's bounded mutation log covers the gap only the
        touched hubs are dropped (a "repair", even though the Ĉ memos
        still clear within it); the term-identity memos (``_admit``,
        ``_kinds``, decoded atoms) are stable under mutation because
        interned IDs are never reused.  The scorer's tables self-sync
        through their own watcher.
        """
        watch = self._watch
        if watch.seen != self.kb.epoch:
            watch.absorb(self._repair_memos, self._drop_kb_memos)

    def _drop_complexity_memos(self) -> None:
        for memo in self._se_memos:
            memo.clear()
        self._pred_ranks.clear()
        self._prominent_memo = None

    def _repair_memos(self, changes) -> bool:
        if not self.id_space:
            return False
        self._drop_complexity_memos()
        term_id = self.kb.term_id  # type: ignore[attr-defined]
        touched = {term_id(triple.subject) for _, triple in changes}
        touched.discard(None)
        for hub_id in touched:
            self._tails_memo.pop(hub_id, None)
        return True

    def _drop_kb_memos(self) -> None:
        self._drop_complexity_memos()
        self._tails_memo.clear()

    @property
    def coherence(self) -> CacheCoherence:
        """Epoch-invalidation telemetry for the engine's memos."""
        return self._watch.coherence

    # ------------------------------------------------------------------
    # Term-space path (exact seed behaviour; see enumerate.py)
    # ------------------------------------------------------------------

    def _common_term_space(
        self, targets: Sequence[Term], stats: SearchStats
    ) -> Set[SubgraphExpression]:
        kb = self.kb
        seed = min(targets, key=lambda t: kb.count(subject=t))
        expressions = subgraph_expressions(
            kb, seed, self.config, self._prominent_supplier()
        )
        enumerated = len(expressions)
        stats.enumerated += enumerated
        others = [t for t in targets if t != seed]
        if others:
            t_intersect = time.perf_counter()
            holds_for = self.matcher.holds_for
            expressions = {
                se for se in expressions if all(holds_for(se, t) for t in others)
            }
            stats.intersect_seconds += time.perf_counter() - t_intersect
        stats.intersected_out += enumerated - len(expressions)
        return expressions

    # ------------------------------------------------------------------
    # ID-space path: enumerate → intersect → score → decode on touch
    # ------------------------------------------------------------------

    def _intersected_ids(
        self, targets: Sequence[Term], stats: SearchStats
    ) -> _IdCandidates:
        kb = self.kb
        seed = min(targets, key=lambda t: kb.count(subject=t))
        cand = self._enumerate_ids(kb.term_id(seed))  # type: ignore[attr-defined]
        enumerated = cand.total()
        stats.enumerated += enumerated
        t_intersect = time.perf_counter()
        for t in targets:
            if t == seed:
                continue
            if cand.total() == 0:
                break
            self._intersect_target(cand, kb.term_id(t))  # type: ignore[attr-defined]
        stats.intersect_seconds += time.perf_counter() - t_intersect
        stats.intersected_out += enumerated - cand.total()
        return cand

    # -- ID-space prunes and memos --------------------------------------

    def _admits(self, p_id: int) -> bool:
        """Does the config admit this predicate in expressions? (memoized)"""
        admit = self._admit.get(p_id)
        if admit is None:
            from repro.kb.inverse import is_inverse

            predicate = self.kb.term_of_id(p_id)  # type: ignore[attr-defined]
            admit = not self.config.is_excluded(predicate) and (
                self.config.include_inverse_atoms or not is_inverse(predicate)
            )
            self._admit[p_id] = admit
        return admit

    def _kind_of(self, term_id: int) -> int:
        kind = self._kinds.get(term_id)
        if kind is None:
            from repro.kb.terms import IRI, BlankNode

            term = self.kb.term_of_id(term_id)  # type: ignore[attr-defined]
            if isinstance(term, BlankNode):
                kind = _BLANK
            elif isinstance(term, IRI):
                kind = _IRI
            else:
                kind = _LITERAL
            self._kinds[term_id] = kind
        return kind

    def _pred_value(self, p_id: int) -> str:
        value = self._pred_values.get(p_id)
        if value is None:
            value = self.kb.term_of_id(p_id).value  # type: ignore[attr-defined, union-attr]
            self._pred_values[p_id] = value
        return value

    def _pred_rank(self, p_id: int) -> int:
        rank = self._pred_ranks.get(p_id)
        if rank is None:
            predicate = self.kb.term_of_id(p_id)  # type: ignore[attr-defined]
            rank = self.estimator.prominence.predicate_rank(predicate)  # type: ignore[arg-type]
            self._pred_ranks[p_id] = rank
        return rank

    def _prominent_ids(self) -> FrozenSet[int]:
        prominent = self._prominent_supplier()
        memo = self._prominent_memo
        if memo is not None and memo[0] is prominent:
            return memo[1]
        term_id = self.kb.term_id  # type: ignore[attr-defined]
        ids = frozenset(
            i for i in (term_id(t) for t in prominent) if i is not None
        )
        self._prominent_memo = (prominent, ids)
        return ids

    def _tails(self, hub_id: int) -> Tuple[Tuple[int, int], ...]:
        """Admissible second-hop ``(p, o)`` pairs of *hub* (§3.5.2: tail
        objects must be proper constants).  Memoized; iteration order
        matches the Term-space ``_tail_atoms`` on the same backend, which
        keeps ``max_star_pairs`` capping bit-identical."""
        tails = self._tails_memo.get(hub_id)
        if tails is None:
            admits, kind_of = self._admits, self._kind_of
            tails = tuple(
                (p, o)
                for p, objs in self.kb.predicate_object_items_ids(hub_id)  # type: ignore[attr-defined]
                if admits(p)
                for o in objs
                if kind_of(o) != _BLANK
            )
            self._tails_memo[hub_id] = tails
        return tails

    # -- enumeration (mirrors enumerate.subgraph_expressions) ------------

    def _enumerate_ids(self, entity_id: Optional[int]) -> _IdCandidates:
        cand = _IdCandidates()
        if entity_id is None:
            return cand
        kb, config = self.kb, self.config
        admits, kind_of = self._admits, self._kind_of
        neighbourhood: List[Tuple[int, int]] = [
            (p, o)
            for p, objs in kb.predicate_object_items_ids(entity_id)  # type: ignore[attr-defined]
            if admits(p)
            for o in objs
        ]

        # --- single atoms: p0(x, I0) -------------------------------------
        prune_blank = config.prune_blank_single_atoms
        singles = cand.singles
        for pair in neighbourhood:
            if prune_blank and kind_of(pair[1]) == _BLANK:
                continue
            singles.add(pair)

        if config.language is LanguageBias.STANDARD:
            return cand

        # --- paths and path+stars: p0(x, y) ∧ p1(y, I1) [∧ p2(y, I2)] ----
        prominent = self._prominent_ids()
        max_atoms = config.max_atoms
        for p0, hub in neighbourhood:
            kind = kind_of(hub)
            if kind == _LITERAL:
                continue  # literals cannot be subjects
            if kind != _BLANK and hub in prominent:
                continue  # §3.5.2: don't extend through very prominent objects
            tails = self._tails(hub)
            if max_atoms >= 2:
                paths = cand.paths
                for p1, tail_obj in tails:
                    paths.add((p0, p1, tail_obj))
            if max_atoms >= 3:
                pairs: Iterable = combinations(tails, 2)
                if config.max_star_pairs is not None:
                    pairs = list(pairs)[: config.max_star_pairs]
                stars = cand.stars
                for a1, a2 in pairs:
                    if a1 == a2:
                        continue
                    stars.add((p0, a1, a2) if a1 <= a2 else (p0, a2, a1))

        # --- closed shapes: p0(x, y) ∧ p1(x, y) [∧ p2(x, y)] -------------
        if max_atoms >= 2:
            by_predicate: Dict[int, Set[int]] = {}
            for p, o in neighbourhood:
                by_predicate.setdefault(p, set()).add(o)
            value = self._pred_value
            predicates = sorted(by_predicate, key=value)
            closed_pairs: List[Tuple[int, int, Set[int]]] = []
            for pa, pb in combinations(predicates, 2):
                shared = by_predicate[pa] & by_predicate[pb]
                if shared:
                    cand.closed2.add((pa, pb))
                    closed_pairs.append((pa, pb, shared))
            if max_atoms >= 3:
                for pa, pb, shared in closed_pairs:
                    pb_value = value(pb)
                    for pc in predicates:
                        if pc in (pa, pb) or value(pc) < pb_value:
                            continue
                        if not shared.isdisjoint(by_predicate[pc]):
                            cand.closed3.add((pa, pb, pc))
        return cand

    # -- cross-target intersection ---------------------------------------

    def _intersect_target(self, cand: _IdCandidates, target_id: Optional[int]) -> None:
        """Keep only candidates *target* satisfies (the semantics of
        ``matcher.holds_for``), as pure kernel set algebra.

        Every satisfaction test is an :class:`~repro.kb.idset.IdSet`
        intersection over the KB's shared
        :class:`~repro.kb.idset.MaskStore` — the same cached binding sets
        the matcher's plans read, amortized across targets, shapes and
        requests.  The algebra per shape, for target ``t``:

        * single ``p(x, I)``          — ``I ∈ objects(t, p)``;
        * path ``p0(x,y) ∧ p1(y,I)``  — ``objects(t, p0) ∩ subjects(p1, I) ≠ ∅``;
        * star                        — ``objects(t, p0) ∩ subjects(p1, I1) ∩ subjects(p2, I2) ≠ ∅``;
        * closed 2/3                  — ``objects(t, pa) ∩ objects(t, pb) [∩ objects(t, pc)] ≠ ∅``.

        The per-candidate tests run on the entries' cached *bitmask* form:
        one big-int AND per intersection, no per-candidate set or IdSet
        allocation (singles stay direct adjacency probes — a one-element
        membership test has nothing to gain from algebra).
        """
        if target_id is None:
            cand.clear()  # never interned ⇒ satisfies nothing
            return
        store = self.kb.masks  # type: ignore[attr-defined]
        store.sync()
        smask = store.subjects_mask_synced
        omask = store.objects_mask_synced
        # The target's object masks recur across shapes — memoize per call.
        tmask_cache: Dict[int, int] = {}

        def tmask(p_id: int) -> int:
            mask = tmask_cache.get(p_id)
            if mask is None:
                mask = omask(target_id, p_id)
                tmask_cache[p_id] = mask
            return mask

        if cand.singles:
            objects_view = self.kb.objects_ids_view  # type: ignore[attr-defined]
            cand.singles = {
                c for c in cand.singles if c[1] in objects_view(target_id, c[0])
            }

        if cand.paths:
            cand.paths = {c for c in cand.paths if tmask(c[0]) & smask(c[1], c[2])}

        if cand.stars:
            surviving_stars: Set[Tuple[int, Tuple[int, int], Tuple[int, int]]] = set()
            add = surviving_stars.add
            for c in cand.stars:
                hubs = tmask(c[0]) & smask(*c[1])
                if hubs and hubs & smask(*c[2]):
                    add(c)
            cand.stars = surviving_stars

        if cand.closed2:
            cand.closed2 = {c for c in cand.closed2 if tmask(c[0]) & tmask(c[1])}

        if cand.closed3:
            surviving_closed: Set[Tuple[int, int, int]] = set()
            for c in cand.closed3:
                shared = tmask(c[0]) & tmask(c[1])
                if shared and shared & tmask(c[2]):
                    surviving_closed.add(c)
            cand.closed3 = surviving_closed

    # -- decoding (the API boundary) -------------------------------------

    def _decode(self, cand: _IdCandidates) -> List[SubgraphExpression]:
        term = self.kb.term_of_id  # type: ignore[attr-defined]
        out: List[SubgraphExpression] = []
        for p, o in cand.singles:
            out.append(SubgraphExpression.single_atom(term(p), term(o)))  # type: ignore[arg-type]
        for p0, p1, o in cand.paths:
            out.append(SubgraphExpression.path(term(p0), term(p1), term(o)))  # type: ignore[arg-type]
        for p0, (p1, o1), (p2, o2) in cand.stars:
            out.append(
                SubgraphExpression.path_star(
                    term(p0), term(p1), term(o1), term(p2), term(o2)  # type: ignore[arg-type]
                )
            )
        for pa, pb in cand.closed2:
            out.append(SubgraphExpression.closed(term(pa), term(pb)))  # type: ignore[arg-type]
        for pa, pb, pc in cand.closed3:
            out.append(SubgraphExpression.closed(term(pa), term(pb), term(pc)))  # type: ignore[arg-type]
        return out

    # -- materialization: decode + score once per distinct candidate ------

    def _root_atom(self, p_id: int) -> Tuple[Atom, tuple]:
        """``p(x, y)`` — also the closed-shape atom — with its sort key."""
        entry = self._root_atoms.get(p_id)
        if entry is None:
            atom = Atom(self.kb.term_of_id(p_id), ROOT, Y)  # type: ignore[attr-defined, arg-type]
            entry = (atom, atom.sort_key())
            self._root_atoms[p_id] = entry
        return entry

    def _bound_atom(self, p_id: int, o_id: int) -> Tuple[Atom, tuple]:
        """``p(x, I)`` with its sort key."""
        key = (p_id, o_id)
        entry = self._bound_atoms.get(key)
        if entry is None:
            term = self.kb.term_of_id  # type: ignore[attr-defined]
            atom = Atom(term(p_id), ROOT, term(o_id))  # type: ignore[arg-type]
            entry = (atom, atom.sort_key())
            self._bound_atoms[key] = entry
        return entry

    def _star_atom(self, p_id: int, o_id: int) -> Tuple[Atom, tuple]:
        """``p(y, I)`` — path tails and star atoms — with its sort key."""
        key = (p_id, o_id)
        entry = self._star_atoms.get(key)
        if entry is None:
            term = self.kb.term_of_id  # type: ignore[attr-defined]
            atom = Atom(term(p_id), Y, term(o_id))  # type: ignore[arg-type]
            entry = (atom, atom.sort_key())
            self._star_atoms[key] = entry
        return entry

    def _evict_if_needed(self) -> None:
        """Bound the cross-request memos."""
        occupancy = sum(len(m) for m in self._se_memos) + len(self._tails_memo)
        if occupancy > self.se_memo_limit:
            for m in self._se_memos:
                m.clear()
            self._root_atoms.clear()
            self._bound_atoms.clear()
            self._star_atoms.clear()
            # The per-hub memo asymptotically duplicates the SPO index;
            # it must not outlive the eviction that bounds everything
            # else, or a long request stream grows RSS without bound.
            self._tails_memo.clear()

    # -- kernel scoring: plan + key only, decode deferred -----------------

    def _score_kernel(self, cand: _IdCandidates) -> List[list]:
        """Queue records for every survivor, decode-free.

        Misses compute only what ordering and scoring need — the
        canonical SE sort key (from the memoized atom keys) and the
        scoring plan, scored against the scorer's precompiled
        code-length tables.  No
        ``SubgraphExpression`` is constructed here; records carry
        ``(shape, ID key)`` and :meth:`_decode_entry` materializes the SE
        the first time a consumer touches the entry
        (:class:`CandidateQueue`), writing it back into the shared memo
        so repeat requests and re-touches get it for one dict probe.

        Record layout (also the sort key, fields 0–1):
        ``[Ĉ bits, SE sort key, SE | None, shape index, ID key]``.
        """
        self._evict_if_needed()
        memos = self._se_memos
        out: List[list] = []
        append = out.append
        # Misses score inline (tables build on first probe inside the
        # scorer) — no deferred-miss list, no second pass.  The atom-key
        # memos are inlined as direct dict probes: the methods repeat the
        # same dict get behind a call frame, and this loop runs hundreds
        # of thousands of times per cold queue.  Memo entries are
        # non-empty tuples, so `or` safely falls through to the builder.
        score = self.scorer.plan_scorer()
        root_atoms = self._root_atoms
        star_atoms = self._star_atoms
        bound_atoms = self._bound_atoms

        memo = memos[0]
        get = memo.get
        for key in cand.singles:
            rec = get(key)
            if rec is None:
                atom_key = (bound_atoms.get(key) or self._bound_atom(*key))[1]
                rec = [score((PLAN_SINGLE,) + key), (atom_key,), None, 0, key]
                memo[key] = rec
            append(rec)

        memo = memos[1]
        get = memo.get
        for key in cand.paths:
            rec = get(key)
            if rec is None:
                p0 = key[0]
                tail = key[1], key[2]
                hop_key = (root_atoms.get(p0) or self._root_atom(p0))[1]
                tail_key = (star_atoms.get(tail) or self._star_atom(*tail))[1]
                rec = [score((PLAN_PATH,) + key), (hop_key, tail_key), None, 1, key]
                memo[key] = rec
            append(rec)

        memo = memos[2]
        get = memo.get
        for key in cand.stars:
            rec = get(key)
            if rec is None:
                p0, a1, a2 = key
                hop_key = (root_atoms.get(p0) or self._root_atom(p0))[1]
                k1 = (star_atoms.get(a1) or self._star_atom(*a1))[1]
                k2 = (star_atoms.get(a2) or self._star_atom(*a2))[1]
                # Canonical star order (what path_star() would sort
                # into), decided on the cached atom keys.  Ĉ sums the
                # stars in this order, so the plan follows it — that keeps
                # the float summation bit-identical to the estimator's.
                if k2 < k1:
                    k1, k2 = k2, k1
                    plan = (PLAN_STAR, p0) + a2 + a1
                else:
                    plan = (PLAN_STAR, p0) + a1 + a2
                rec = [score(plan), (hop_key, k1, k2), None, 2, key]
                memo[key] = rec
            append(rec)

        pred_rank = self._pred_rank
        root_atom = self._root_atom
        for memo, keys, shape_index in ((memos[3], cand.closed2, 3), (memos[4], cand.closed3, 4)):
            get = memo.get
            for key in keys:
                rec = get(key)
                if rec is None:
                    # The key is predicate-value-sorted == the canonical
                    # atom order; the stable rank sort is therefore the
                    # estimator's anchor selection exactly.
                    se_key = tuple(root_atom(p)[1] for p in key)
                    plan = (PLAN_CLOSED,) + tuple(sorted(key, key=pred_rank))
                    rec = [score(plan), se_key, None, shape_index, key]
                    memo[key] = rec
                append(rec)
        return out

    # -- bounded top-k: branch-and-bound over candidate families ----------

    def _kernel_record(self, shape_index: int, key: tuple, score) -> list:
        """One kernel queue record, any shape — the per-shape inline
        blocks of :meth:`_score_kernel` behind a dispatch, for the bounded
        build (which touches far fewer members, so the call frame is
        cheap relative to the scoring it replaces)."""
        if shape_index == 0:
            atom_key = (self._bound_atoms.get(key) or self._bound_atom(*key))[1]
            return [score((PLAN_SINGLE,) + key), (atom_key,), None, 0, key]
        if shape_index == 1:
            p0 = key[0]
            tail = key[1], key[2]
            hop_key = (self._root_atoms.get(p0) or self._root_atom(p0))[1]
            tail_key = (self._star_atoms.get(tail) or self._star_atom(*tail))[1]
            return [score((PLAN_PATH,) + key), (hop_key, tail_key), None, 1, key]
        if shape_index == 2:
            p0, a1, a2 = key
            hop_key = (self._root_atoms.get(p0) or self._root_atom(p0))[1]
            k1 = (self._star_atoms.get(a1) or self._star_atom(*a1))[1]
            k2 = (self._star_atoms.get(a2) or self._star_atom(*a2))[1]
            if k2 < k1:
                k1, k2 = k2, k1
                plan = (PLAN_STAR, p0) + a2 + a1
            else:
                plan = (PLAN_STAR, p0) + a1 + a2
            return [score(plan), (hop_key, k1, k2), None, 2, key]
        se_key = tuple(self._root_atom(p)[1] for p in key)
        plan = (PLAN_CLOSED,) + tuple(sorted(key, key=self._pred_rank))
        return [score(plan), se_key, None, shape_index, key]

    def _group_families(self, cand: _IdCandidates) -> Dict[tuple, List[tuple]]:
        """Survivors bucketed by candidate family — shape + predicate
        skeleton, everything an admissible bound can be computed from
        before any member is scored (:meth:`QueueScorer.family_scorer`).
        Star members group under their ID-ordered predicate pair (the
        bound's safety margin absorbs the canonical-order summation);
        closed members under the estimator's anchor choice."""
        pred_rank = self._pred_rank
        families: Dict[tuple, List[tuple]] = {}
        for key in cand.singles:
            families.setdefault((PLAN_SINGLE, key[0]), []).append((0, key))
        for key in cand.paths:
            families.setdefault((PLAN_PATH, key[0], key[1]), []).append((1, key))
        for key in cand.stars:
            fam = (PLAN_STAR, key[0], key[1][0], key[2][0])
            families.setdefault(fam, []).append((2, key))
        for key in cand.closed2:
            anchor = min(key, key=pred_rank)
            families.setdefault((PLAN_CLOSED, anchor, 1), []).append((3, key))
        for key in cand.closed3:
            anchor = min(key, key=pred_rank)
            families.setdefault((PLAN_CLOSED, anchor, 2), []).append((4, key))
        return families

    def _score_kernel_topk(
        self, cand: _IdCandidates, k: int, stats: SearchStats
    ):
        """Best-first bounded build: the §3.5.2 prunes generalized into
        branch-and-bound over candidate families.

        Families are probed for an admissible lower bound (best-possible
        rank ⇒ shortest possible code, per conditional table) and
        processed in ascending-bound order against an incumbent frontier
        of size *k*.  Once the frontier is full, a family whose bound
        strictly exceeds the k-th best Ĉ cannot place any member — and
        since bounds are non-decreasing from there on while the incumbent
        only improves, *every* remaining family is pruned en masse,
        unscored.  Equal-bound families still process: a tie on bits can
        win on the SE sort key.

        Returns ``(frontier, tail)``: the exact first-k records of the
        full sorted order, and a closure that finishes the job on demand
        (scores the pruned members, merges the scored-but-displaced
        spill, sorts) for :meth:`CandidateQueue.extend_frontier`.
        """
        self._evict_if_needed()
        memos = self._se_memos
        families = self._group_families(cand)
        bound_of = self.scorer.family_scorer()
        stats.bound_probes += len(families)
        ordered = sorted((bound_of(fam), fam) for fam in families)

        score = self.scorer.plan_scorer()
        record = self._kernel_record
        frontier: List[list] = []
        spill: List[list] = []
        deferred: List[Tuple[int, tuple]] = []
        kth_bits = math.inf
        full = False
        processed = 0
        for index, (fam_bound, fam) in enumerate(ordered):
            if full and fam_bound > kth_bits:
                for _, fam_rest in ordered[index:]:
                    deferred.extend(families[fam_rest])
                stats.families_pruned += len(ordered) - index
                break
            for member in families[fam]:
                shape_index, key = member
                memo = memos[shape_index]
                rec = memo.get(key)
                if rec is None:
                    rec = record(shape_index, key, score)
                    memo[key] = rec
                processed += 1
                if full and rec[0] > kth_bits:
                    spill.append(rec)
                    continue
                insort(frontier, rec, key=_entry_key)
                if full:
                    spill.append(frontier.pop())
                else:
                    full = len(frontier) == k
                kth_bits = frontier[-1][0] if full else math.inf
        stats.scored += processed
        stats.heap_peak = max(stats.heap_peak, len(frontier))

        def extend_tail() -> List[list]:
            # The deferred members score here, at extension time — during
            # the *search* phase, so the queue-build phase counters keep
            # describing what the bounded build actually did.
            score_cold = self.scorer.plan_scorer()
            tail = spill
            for shape_index, key in deferred:
                memo = memos[shape_index]
                rec = memo.get(key)
                if rec is None:
                    rec = self._kernel_record(shape_index, key, score_cold)
                    memo[key] = rec
                tail.append(rec)
            tail.sort(key=_entry_key)
            return tail

        return frontier, extend_tail

    def _decode_entry(self, rec: list) -> SubgraphExpression:
        """Materialize a queue record's SE (the response boundary).

        Rebuilt from the memoized atoms — in canonical order, decided on
        the cached atom sort keys, identical to what the
        ``SubgraphExpression`` constructors produce — and written back
        into the record, which lives in the cross-request memo: one
        decode per distinct candidate per engine, no matter how many
        queues it appears in.
        """
        shape_index, key = rec[3], rec[4]
        if shape_index == 0:
            se = SubgraphExpression(
                Shape.SINGLE_ATOM, (self._bound_atom(key[0], key[1])[0],)
            )
        elif shape_index == 1:
            se = SubgraphExpression(
                Shape.PATH,
                (self._root_atom(key[0])[0], self._star_atom(key[1], key[2])[0]),
            )
        elif shape_index == 2:
            p0, (p1, o1), (p2, o2) = key
            a1, k1 = self._star_atom(p1, o1)
            a2, k2 = self._star_atom(p2, o2)
            if k2 < k1:
                a1, a2 = a2, a1
            se = SubgraphExpression(Shape.PATH_STAR, (self._root_atom(p0)[0], a1, a2))
        else:
            shape = Shape.CLOSED_2 if shape_index == 3 else Shape.CLOSED_3
            se = SubgraphExpression(shape, tuple(self._root_atom(p)[0] for p in key))
        rec[2] = se
        return se

    def __repr__(self) -> str:
        path = "id-kernel" if self.id_space else "term-space"
        return f"CandidateEngine(path={path}, kb={self.kb.name!r})"
