"""The abstract knowledge-base backend interface.

Every storage backend — the hash-indexed :class:`~repro.kb.store.KnowledgeBase`,
the dictionary-encoded :class:`~repro.kb.interned.InternedKnowledgeBase`, and
any future sharded/mmap/HDT-native backend — implements this one interface.
Everything above the data layer (the expression matcher, the enumerator, the
complexity estimator, the miners) is written against it, so backends are
swappable per-request.

The interface is the paper's atom-binding API (§3.5.1): a backend answers
*atom-level* queries — find the bindings of a triple pattern — and leaves
joins and conjunctions to :mod:`repro.expressions.matching`.

Two families of accessors exist:

* **safe accessors** (:meth:`objects`, :meth:`subjects`, …) return fresh
  containers the caller may mutate freely;
* **view accessors** (:meth:`objects_view`, :meth:`subjects_view`,
  :meth:`subject_object_items`) may return live internal sets for speed and
  must be treated as **read-only** — they exist for the matcher's hot path.

Backends that dictionary-encode terms into dense integer IDs advertise it
with ``supports_id_queries = True`` and additionally expose the ID-space
API consumed by :class:`~repro.expressions.matching.Matcher`, the
candidate pipeline (:class:`~repro.core.candidates.CandidateEngine`) and
the batch Ĉ scorer (:class:`~repro.complexity.batch.QueueScorer`):

* the codec — ``term_id`` / ``term_of_id`` / ``decode_terms`` /
  ``term_count``;
* atom bindings — ``subjects_ids`` / ``objects_ids`` plus the bitmask
  variants ``subjects_mask`` / ``decode_mask`` / ``mask_of_ids``;
* scan accessors — ``subject_count_ids`` / ``subject_object_items_ids``
  (one PSO row) and ``predicate_object_items_ids`` (one SPO row: an
  entity's neighbourhood, used by ID-space enumeration);
* vocabulary scans — ``object_ids_of_predicate`` / ``predicate_ids_of``
  (the rank-table and co-occurrence builders).

The ID-space accessors follow the same safe-vs-view split as the
term-space API: the plain names (``subjects_ids``, ``objects_ids``,
``object_ids_of_predicate``, ``predicate_ids_of``) return **fresh
containers** a caller may hold across mutations, while the ``*_ids_view``
variants (and the ``*_items_ids`` iterators) may return live internal
sets that a concurrent ``add``/``discard`` mutates in place — they are
strictly for consume-immediately hot paths.  Decoding to
:class:`~repro.kb.terms.Term` happens once at the API boundary.

**Mutation epochs.**  Every backend carries a monotonically increasing
:attr:`epoch`, bumped by each *effective* ``add``/``discard`` (no-ops do
not bump) and exactly once by the bulk paths (:meth:`mutate_many`,
:meth:`add_all` — and therefore construction).  Derived
caches (matcher LRU, rank tables, candidate memos) record the epoch they
were built at and lazily self-invalidate — see :mod:`repro.kb.epoch`.  A
bounded mutation log backs :meth:`changes_since` so cheap caches can
repair incrementally instead of rebuilding.
"""

from __future__ import annotations

import abc
from collections import Counter, deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.kb.terms import IRI, Term
from repro.kb.triples import Triple

#: How many mutations the per-KB log retains for incremental cache repair.
#: A watcher that fell further behind gets ``None`` from
#: :meth:`BaseKnowledgeBase.changes_since` and must invalidate coarsely.
MUTATION_LOG_LIMIT = 1024


class BaseKnowledgeBase(abc.ABC):
    """A mutable, indexed set of RDF triples behind the atom-binding API."""

    name: str

    #: True when the backend exposes the integer-ID query API (see module
    #: docstring); the matcher then evaluates its plans entirely in ID space.
    supports_id_queries: bool = False

    #: True when the backend can produce immutable epoch views via
    #: :meth:`at_epoch` — the MVCC read path ``remi serve`` requires.
    #: The hash backend stays False; it is the in-process differential
    #: reference, never served.
    supports_snapshots: bool = False

    #: The mutation epoch: bumped by every effective ``add``/``discard``
    #: (once per :meth:`mutate_many` batch).  Read-only for callers — a
    #: plain attribute (not a property) so the staleness guard on query
    #: hot paths is a single attribute load.
    epoch: int = 0

    #: True while :meth:`mutate_many` holds the per-op bump back.
    _epoch_hold: bool = False

    #: Bounded log of recent mutations, stamped with the epoch at which
    #: they became visible; lazily created on first mutation.
    _mutation_log: Optional[Deque[Tuple[int, str, Triple]]] = None

    #: ``changes_since(e)`` is complete only for ``e >= _log_floor``.
    _log_floor: int = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def add(self, triple: Triple) -> bool:
        """Insert *triple*; returns True if it was not already present."""

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples as ONE epoch step; returns how many were new.

        The bulk-insert sibling of :meth:`mutate_many`: construction and
        data loads bump the epoch once for the whole batch instead of
        once per triple.
        """
        return self.mutate_many(("add", t) for t in triples)

    @abc.abstractmethod
    def discard(self, triple: Triple) -> bool:
        """Remove *triple* if present; returns True if it was removed."""

    def mutate_many(self, operations: Iterable[Tuple[str, Triple]]) -> int:
        """Apply ``("add" | "delete", triple)`` ops, bumping the epoch ONCE.

        The bulk path for update-heavy callers: derived caches see a
        single epoch step for the whole batch, so a thousand-triple load
        costs one lazy invalidation instead of a thousand.  Returns the
        number of *effective* operations (inserts that were new, deletes
        that removed something); the epoch does not move when nothing
        changed.  Nests safely (an inner bulk call folds into the outer
        epoch step).
        """
        changed = 0
        held_before = self._epoch_hold
        self._epoch_hold = True
        try:
            for op, triple in operations:
                if op == "add":
                    changed += self.add(triple)
                elif op in ("delete", "discard"):
                    changed += self.discard(triple)
                else:
                    raise ValueError(
                        f"unknown mutation op {op!r}; use 'add' or 'delete'"
                    )
        finally:
            # Bump in the finally so a batch that fails halfway still
            # publishes the ops it DID apply (they are logged at this
            # epoch) instead of leaving caches silently incoherent.
            self._epoch_hold = held_before
            if changed and not held_before:
                self.epoch += 1
        return changed

    def _note_mutation(self, op: str, triple: Triple) -> None:
        """Record an effective mutation: bump the epoch and log the change.

        Backends call this from ``add``/``discard`` *after* the store
        changed.  Under :meth:`mutate_many` the bump is deferred (the log
        entry is stamped with the epoch the batch will land on).
        """
        if self._epoch_hold:
            stamp = self.epoch + 1
        else:
            self.epoch += 1
            stamp = self.epoch
        if self._log_floor >= stamp:
            # The current (held) batch already overflowed the log: its
            # epoch can never be replayed by changes_since, so the rest
            # of the batch skips the append/pop churn — this is what
            # keeps a million-triple add_all load cheap.
            return
        log = self._mutation_log
        if log is None:
            log = self._mutation_log = deque()
        log.append((stamp, op, triple))
        if len(log) > MUTATION_LOG_LIMIT:
            dropped_stamp, _, _ = log.popleft()
            # Epoch dropped_stamp may now be partially logged: coverage
            # is complete only strictly past it.
            self._log_floor = dropped_stamp

    # ------------------------------------------------------------------
    # epoch snapshots (MVCC reads)
    # ------------------------------------------------------------------

    def at_epoch(self) -> "BaseKnowledgeBase":
        """An immutable view of the store at its current epoch.

        Snapshot-capable backends (``supports_snapshots``) return a
        frozen, structurally-shared epoch view that stays valid — and
        bit-identical — while the live store keeps mutating; see
        :mod:`repro.kb.snapshot`.  Must be called from the writer side
        (or otherwise quiescent) — the serving layer's update lock
        guarantees that.  Backends without snapshot support raise
        ``TypeError``; pin a :meth:`copy` instead.
        """
        raise TypeError(
            f"{type(self).__name__} does not support epoch snapshots; "
            "pin a copy() instead"
        )

    def snapshot(self) -> "BaseKnowledgeBase":
        """Alias for :meth:`at_epoch` (the serving layer's spelling)."""
        return self.at_epoch()

    def changes_since(self, epoch: int) -> Optional[List[Tuple[str, Triple]]]:
        """The ``(op, triple)`` mutations applied after *epoch*, in order.

        Returns ``None`` when the bounded log no longer covers the span
        (the caller fell more than :data:`MUTATION_LOG_LIMIT` mutations
        behind) — invalidate coarsely in that case.  Returns ``[]`` when
        *epoch* is current.
        """
        if epoch >= self.epoch:
            return []
        if epoch < self._log_floor:
            return None
        log = self._mutation_log
        if log is None:
            return None
        # Stamps are appended in nondecreasing order, so scan from the
        # right and stop at the first already-seen entry: a watcher one
        # epoch behind pays O(changes), not O(log capacity).
        changes: List[Tuple[str, Triple]] = []
        for stamp, op, triple in reversed(log):
            if stamp <= epoch:
                break
            changes.append((op, triple))
        changes.reverse()
        return changes

    # ------------------------------------------------------------------
    # pattern matching (the atom-binding API)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def __contains__(self, triple: Triple) -> bool: ...

    @abc.abstractmethod
    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Iterate over all triples matching the pattern (None = wildcard)."""

    @abc.abstractmethod
    def objects(self, subject: Term, predicate: IRI) -> Set[Term]:
        """Bindings of ``o`` in ``predicate(subject, o)`` — a fresh set."""

    @abc.abstractmethod
    def subjects(self, predicate: IRI, obj: Term) -> Set[Term]:
        """Bindings of ``s`` in ``predicate(s, obj)`` — a fresh set."""

    def objects_view(self, subject: Term, predicate: IRI) -> Set[Term]:
        """Like :meth:`objects`, but MAY return a live internal set.

        Callers must not mutate the result; it exists for read-heavy hot
        paths.  The default just delegates to :meth:`objects`.
        """
        return self.objects(subject, predicate)

    def subjects_view(self, predicate: IRI, obj: Term) -> Set[Term]:
        """Like :meth:`subjects`, but MAY return a live internal set."""
        return self.subjects(predicate, obj)

    @abc.abstractmethod
    def objects_of_predicate(self, predicate: IRI) -> Set[Term]:
        """All distinct objects appearing under *predicate*."""

    @abc.abstractmethod
    def subjects_of_predicate(self, predicate: IRI) -> Set[Term]:
        """All distinct subjects appearing under *predicate*."""

    @abc.abstractmethod
    def subject_count(self, predicate: IRI) -> int:
        """Number of distinct subjects with a *predicate* fact.

        Used by the matcher to pick the cheapest driver predicate for
        closed-shape scans (it replaces reaching into private indexes).
        """

    @abc.abstractmethod
    def subject_object_items(
        self, predicate: IRI
    ) -> Iterator[Tuple[Term, Set[Term]]]:
        """``(subject, objects)`` groups under *predicate*.

        The yielded object sets MAY be live internal sets and must be
        treated as read-only (copy before mutating).
        """

    @abc.abstractmethod
    def subject_object_pairs(self, predicate: IRI) -> Iterator[Tuple[Term, Term]]:
        """All ``(s, o)`` with ``predicate(s, o)`` in the KB."""

    @abc.abstractmethod
    def predicate_object_pairs(self, subject: Term) -> Iterator[Tuple[IRI, Term]]:
        """All ``(p, o)`` with ``p(subject, o)`` — an entity's neighbourhood."""

    @abc.abstractmethod
    def predicates_of(self, subject: Term) -> Set[IRI]:
        """The predicates for which *subject* has at least one fact."""

    @abc.abstractmethod
    def predicates_into(self, obj: Term) -> Set[IRI]:
        """The predicates for which *obj* appears as an object."""

    @abc.abstractmethod
    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern, computed from the indexes."""

    # ------------------------------------------------------------------
    # vocabulary and statistics
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    @abc.abstractmethod
    def predicates(self) -> Set[IRI]:
        """All predicates with at least one fact."""

    @abc.abstractmethod
    def subjects_all(self) -> Set[Term]:
        """All terms occurring in subject position."""

    @abc.abstractmethod
    def entities(self) -> Set[IRI]:
        """All IRIs occurring in subject or object position (the set ``I``)."""

    def predicate_fact_count(self, predicate: IRI) -> int:
        """Number of facts using *predicate* (its corpus size, §3.5.3)."""
        return self.count(predicate=predicate)

    @abc.abstractmethod
    def term_frequency(self, term: Term) -> int:
        """Number of facts where *term* occurs as subject or object (§3.1)."""

    @abc.abstractmethod
    def object_frequencies(self, predicate: IRI) -> Counter:
        """How often each object appears under *predicate* (for Eq. 1 fits)."""

    @abc.abstractmethod
    def entity_frequencies(self) -> Counter:
        """``term_frequency`` for every IRI entity, as one Counter."""

    def term_frequencies(self) -> Counter:
        """``term_frequency`` for EVERY term (incl. literals and blanks).

        One pass over the store; prominence models use it to avoid
        re-scanning the indexes per scored literal.
        """
        freq: Counter = Counter()
        for triple in self.triples():
            freq[triple.subject] += 1
            freq[triple.object] += 1
        return freq

    def classes_of(self, entity: Term, type_predicate: IRI) -> Set[Term]:
        """The classes asserted for *entity* via *type_predicate*."""
        return set(self.objects_view(entity, type_predicate))

    def copy(self, name: Optional[str] = None) -> "BaseKnowledgeBase":
        """A deep-enough copy (terms are shared, index structure is fresh)."""
        return type(self)(self.triples(), name=name or self.name)  # type: ignore[call-arg]

    def stats(self) -> Dict[str, int]:
        """Summary statistics used by the CLI and benches."""
        return {
            "facts": len(self),
            "predicates": len(self.predicates()),
            "subjects": len(self.subjects_all()),
            "entities": len(self.entities()),
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, facts={len(self)}, "
            f"predicates={len(self.predicates())})"
        )
