"""Dictionary-encoded triple store over dense integer IDs.

:class:`InternedKnowledgeBase` keeps the same four SPO/PSO/POS/OPS indexes
as :class:`~repro.kb.store.KnowledgeBase`, but over ``int`` IDs assigned by
a :class:`~repro.kb.interner.TermInterner` — the architecture HDT uses for
its triples section (§3.5.1).  Python sets of small ints hash and compare
far cheaper than sets of term objects (term hashes rebuild a tuple hash per
call), so the matcher's set-intersection hot path runs measurably faster on
this backend; the Table 4 smoke bench (``benchmarks/bench_interned.py``)
tracks the ratio.

The public API is exactly :class:`~repro.kb.base.BaseKnowledgeBase` — terms
in, terms out, with decoding at the boundary.  On top of it sits the
ID-space API the matcher consumes directly (``supports_id_queries``):

* :meth:`term_id` / :meth:`term_of_id` / :meth:`decode_terms` — the codec;
* :meth:`subjects_ids` / :meth:`objects_ids` — atom bindings as FRESH
  ``set[int]`` copies (safe to hold across mutation), with
  :meth:`subjects_ids_view` / :meth:`objects_ids_view` as the live
  read-only variants for consume-immediately hot paths;
* :meth:`subject_count_ids` / :meth:`subject_object_items_ids` — the
  closed-shape scan accessors;
* :meth:`subjects_mask` / :meth:`decode_mask` / :meth:`mask_of_ids` —
  atom bindings as **bitmasks** (arbitrary-precision ints with bit *i* set
  when term ID *i* is a binding).

The bitmask API is where dense IDs actually pay off: because IDs are dense,
a binding set fits in ``#terms / 8`` bytes, and intersection / union /
subset / equality over whole candidate sets become single C-speed big-int
operations instead of per-element hash probes — the "compact ID set"
technique of HDT and the decision-diagram literature.  The set algebra
itself lives in the shared kernel (:mod:`repro.kb.idset`): each interned
store owns one :class:`~repro.kb.idset.MaskStore` (the :attr:`masks`
property), the one epoch-coherent per-``(p, o)`` / per-``(s, p)`` cache of
adaptive :class:`~repro.kb.idset.IdSet` bindings that the matcher, the
candidate engine and the batch scorer all share.

The interner only grows: discarding triples leaves IDs allocated (mask
width and :meth:`InternedKnowledgeBase.term_count` include those dead IDs
by design; :meth:`InternedKnowledgeBase.live_term_count` and the
index-driven accessors skip them).  Pass a shared interner to run several
stores over one dictionary.

Mutation coherence: every effective ``add``/``discard`` bumps the KB
:attr:`~repro.kb.base.BaseKnowledgeBase.epoch` (see :mod:`repro.kb.epoch`);
the bitmask cache repairs itself per touched ``(p, o)`` key, everything
derived outside the store watches the epoch.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from repro.kb.base import BaseKnowledgeBase
from repro.kb.idset import MaskStore, decode_bits
from repro.kb.idset import mask_of_ids as _kernel_mask_of_ids
from repro.kb.interner import TermInterner
from repro.kb.terms import IRI, Term
from repro.kb.triples import Triple

_IdIndex = Dict[int, Dict[int, Set[int]]]

#: Shared empty set returned for missing index entries; never mutated.
_EMPTY: FrozenSet[int] = frozenset()


class InternedKnowledgeBase(BaseKnowledgeBase):
    """A fully-indexed triple store operating on interned integer IDs.

    >>> from repro.kb import EX, InternedKnowledgeBase, Triple
    >>> kb = InternedKnowledgeBase()
    >>> _ = kb.add(Triple(EX.Paris, EX.capitalOf, EX.France))
    >>> kb.subjects(EX.capitalOf, EX.France)
    {IRI('http://example.org/Paris')}
    """

    supports_id_queries = True
    supports_snapshots = True

    def __init__(
        self,
        triples: Optional[Iterable[Triple]] = None,
        name: str = "kb",
        interner: Optional[TermInterner] = None,
    ):
        self.name = name
        self._interner = interner if interner is not None else TermInterner()
        # Direct reference to the interner's append-only id->term list: it
        # is mutated in place and never reassigned, so indexing it here is
        # always in sync and skips a method call per decoded term.
        self._terms = self._interner._terms
        self._spo: _IdIndex = {}
        self._pso: _IdIndex = {}
        self._pos: _IdIndex = {}
        self._ops: _IdIndex = {}
        self._size = 0
        # The shared set-algebra cache (kernel IdSets per (p, o) / (s, p)
        # key), created lazily on first ID-space consumer.
        self._masks: Optional[MaskStore] = None
        # The newest epoch view handed out by at_epoch(); the next
        # snapshot derives from it copy-on-write (see repro.kb.snapshot).
        self._snap_head = None
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # the codec
    # ------------------------------------------------------------------

    @property
    def interner(self) -> TermInterner:
        """The term dictionary backing this store (shared, append-only)."""
        return self._interner

    def term_id(self, term: Term) -> Optional[int]:
        """The dense ID of *term*, or None when it never entered the store."""
        return self._interner.id_of(term)

    def term_of_id(self, term_id: int) -> Term:
        """The term behind *term_id*."""
        return self._interner.term(term_id)

    def decode_terms(self, ids: Iterable[int]) -> FrozenSet[Term]:
        """Decode an ID set into a frozenset of terms (the API boundary)."""
        return self._interner.decode(ids)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        s, p, o = triple.validate()
        intern = self._interner.intern
        si, pi, oi = intern(s), intern(p), intern(o)
        objects = self._spo.setdefault(si, {}).setdefault(pi, set())
        if oi in objects:
            return False
        objects.add(oi)
        self._pso.setdefault(pi, {}).setdefault(si, set()).add(oi)
        self._pos.setdefault(pi, {}).setdefault(oi, set()).add(si)
        self._ops.setdefault(oi, {}).setdefault(pi, set()).add(si)
        self._size += 1
        self._note_mutation("add", triple)
        return True

    def discard(self, triple: Triple) -> bool:
        s, p, o = triple
        id_of = self._interner.id_of
        si, pi, oi = id_of(s), id_of(p), id_of(o)
        if si is None or pi is None or oi is None:
            return False
        objects = self._spo.get(si, {}).get(pi)
        if objects is None or oi not in objects:
            return False
        objects.discard(oi)
        self._prune(self._spo, si, pi)
        self._pso[pi][si].discard(oi)
        self._prune(self._pso, pi, si)
        self._pos[pi][oi].discard(si)
        self._prune(self._pos, pi, oi)
        self._ops[oi][pi].discard(si)
        self._prune(self._ops, oi, pi)
        self._size -= 1
        self._note_mutation("delete", triple)
        return True

    @staticmethod
    def _prune(index: _IdIndex, a: int, b: int) -> None:
        if not index[a][b]:
            del index[a][b]
            if not index[a]:
                del index[a]

    # ------------------------------------------------------------------
    # epoch snapshots (MVCC reads)
    # ------------------------------------------------------------------

    def at_epoch(self):
        """The immutable view of the store at its current epoch.

        Copy-on-write: the previous head snapshot plus the netted
        mutation-log gap produce the next view by replacing only touched
        index rows (see :mod:`repro.kb.snapshot`); a gap the bounded log
        no longer covers falls back to a full capture, and a gap that
        nets to nothing (paired delete + re-add) reuses the head
        outright.  Writer-side only — must not race a mutation; the
        serving layer's update lock guarantees that.  Repeated calls
        at one epoch return the same object.
        """
        from repro.kb.epoch import net_changes
        from repro.kb.snapshot import KbSnapshot

        head = self._snap_head
        if head is not None:
            if head.epoch == self.epoch:
                return head
            changes = self.changes_since(head.epoch)
            if changes is not None:
                net = net_changes(changes)
                if not net:
                    # Content-neutral churn: the head still describes
                    # the current state exactly (its epoch label lags,
                    # which no reader observes — watchers born on a
                    # snapshot never compare against the live epoch).
                    return head
                snap = KbSnapshot._advance(head, self, net)
                self._snap_head = snap
                return snap
        snap = KbSnapshot._capture(self)
        self._snap_head = snap
        return snap

    # ------------------------------------------------------------------
    # ID-space atom bindings (the matcher's hot path)
    # ------------------------------------------------------------------

    def subjects_ids(self, predicate_id: int, object_id: int) -> Set[int]:
        """IDs of ``s`` in ``p(s, o)`` — a FRESH set, safe across mutation.

        The safe accessor of the mutation-facing contract (same split PR 1
        gave :meth:`objects`/:meth:`subjects`): the caller may hold or
        mutate the result while the store changes underneath.  Hot paths
        that consume the bindings immediately use
        :meth:`subjects_ids_view` and skip the copy.
        """
        return set(self._pos.get(predicate_id, {}).get(object_id, _EMPTY))

    def objects_ids(self, subject_id: int, predicate_id: int) -> Set[int]:
        """IDs of ``o`` in ``p(s, o)`` — a FRESH set, safe across mutation."""
        return set(self._spo.get(subject_id, {}).get(predicate_id, _EMPTY))

    def subjects_ids_view(self, predicate_id: int, object_id: int) -> Set[int]:
        """Live internal ``subjects`` ID set — read-only, never mutate, do
        not hold across an ``add``/``discard``."""
        return self._pos.get(predicate_id, {}).get(object_id, _EMPTY)  # type: ignore[return-value]

    def objects_ids_view(self, subject_id: int, predicate_id: int) -> Set[int]:
        """Live internal ``objects`` ID set — read-only, never mutate, do
        not hold across an ``add``/``discard``."""
        return self._spo.get(subject_id, {}).get(predicate_id, _EMPTY)  # type: ignore[return-value]

    def subject_count_ids(self, predicate_id: int) -> int:
        """Number of distinct subjects under *predicate_id*."""
        return len(self._pso.get(predicate_id, ()))

    def subject_object_items_ids(
        self, predicate_id: int
    ) -> Iterator[Tuple[int, Set[int]]]:
        """``(subject_id, object_ids)`` groups; the sets are read-only views
        and the iterator must be exhausted before any mutation."""
        return iter(self._pso.get(predicate_id, {}).items())

    def object_ids_of_predicate(self, predicate_id: int) -> Set[int]:
        """The distinct object IDs under *predicate_id* — a fresh set."""
        return set(self._pos.get(predicate_id, {}))

    def object_ids_of_predicate_view(self, predicate_id: int) -> Iterable[int]:
        """Like :meth:`object_ids_of_predicate`, as a live read-only view."""
        return self._pos.get(predicate_id, {}).keys()

    def predicate_object_items_ids(
        self, subject_id: int
    ) -> Iterator[Tuple[int, Set[int]]]:
        """``(predicate_id, object_ids)`` groups of *subject_id*'s facts.

        The entity-neighbourhood accessor of the candidate pipeline
        (:mod:`repro.core.candidates`): one SPO row, in insertion order,
        with the object sets as read-only views (exhaust the iterator
        before mutating).  Iteration order matches
        :meth:`predicate_object_pairs` exactly, which the enumeration
        engine relies on for bit-identical candidate sets.
        """
        return iter(self._spo.get(subject_id, {}).items())

    def predicate_ids_of(self, subject_id: int) -> Set[int]:
        """The predicate IDs of *subject_id*'s facts — a fresh set."""
        return set(self._spo.get(subject_id, {}))

    def predicate_ids_of_view(self, subject_id: int) -> Iterable[int]:
        """Like :meth:`predicate_ids_of`, as a live read-only view."""
        return self._spo.get(subject_id, {}).keys()

    # ------------------------------------------------------------------
    # bitmask atom bindings (compact ID sets; the matcher's set algebra)
    # ------------------------------------------------------------------

    def term_count(self) -> int:
        """Number of interned terms = the bit width of binding masks.

        Deliberately counts DEAD terms too (terms whose every fact was
        discarded): IDs are never reclaimed, so the mask width must cover
        the whole dictionary.  Use :meth:`live_term_count` for the number
        of terms the triple store actually references.
        """
        return len(self._terms)

    def live_term_count(self) -> int:
        """Interned terms with at least one occurrence in the store.

        After deletes the interner stays inflated (IDs are stable, never
        reused); the index-driven accessors (:meth:`entities`,
        :meth:`term_frequencies`, :meth:`predicates`) already skip dead
        terms, and this is the matching count — it equals
        ``term_count()`` exactly when nothing was ever fully removed.
        """
        live = set(self._spo)
        live.update(self._ops)
        live.update(self._pso)
        return len(live)

    #: Bitmask with the bits of *ids* set — re-exported from the kernel
    #: (:func:`repro.kb.idset.mask_of_ids`) for API continuity.
    mask_of_ids = staticmethod(_kernel_mask_of_ids)

    @property
    def masks(self) -> MaskStore:
        """The shared per-KB set-algebra cache (:mod:`repro.kb.idset`).

        One epoch-coherent store of atom-binding :class:`~repro.kb.idset.IdSet`\\ s
        per ``(p, o)`` / ``(s, p)`` key, shared by the matcher, the
        candidate engine and the batch scorer (created lazily).
        """
        store = self._masks
        if store is None:
            store = self._masks = MaskStore(self)
        return store

    def subjects_mask(self, predicate_id: int, object_id: int) -> int:
        """Bitmask of ``s`` in ``p(s, o)``: bit *i* set ⟺ term *i* binds.

        Served from the shared :attr:`masks` store, so whole-set
        intersection/subset/equality on these masks are single big-int
        operations and the cache is one per KB, not one per consumer.
        """
        return self.masks.subjects_mask(predicate_id, object_id)

    def decode_mask(self, mask: int) -> FrozenSet[Term]:
        """The terms behind a binding bitmask (the API boundary)."""
        return frozenset(decode_bits(mask, self._terms))

    def term_frequency_id(self, term_id: int) -> int:
        """:meth:`term_frequency` without the term round-trip: facts
        mentioning *term_id* as subject or object (0 for dead IDs).

        The decode-free scoring path of the batch scorer ranks whole
        conditional candidate sets with this (frequency prominence only
        needs the counts, never the terms)."""
        as_subject = sum(len(v) for v in self._spo.get(term_id, {}).values())
        as_object = sum(len(v) for v in self._ops.get(term_id, {}).values())
        return as_subject + as_object

    def predicate_fact_count_id(self, predicate_id: int) -> int:
        """Facts under *predicate_id* — ``predicate_fact_count`` in ID space."""
        return sum(len(v) for v in self._pso.get(predicate_id, {}).values())

    # ------------------------------------------------------------------
    # pattern matching (term-space API; decodes at the boundary)
    # ------------------------------------------------------------------

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        id_of = self._interner.id_of
        si, pi, oi = id_of(s), id_of(p), id_of(o)
        if si is None or pi is None or oi is None:
            return False
        return oi in self._spo.get(si, {}).get(pi, _EMPTY)

    def triples(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        id_of = self._interner.id_of
        term = self._terms.__getitem__
        si = pi = oi = None
        if subject is not None:
            si = id_of(subject)
            if si is None:
                return
        if predicate is not None:
            pi = id_of(predicate)
            if pi is None:
                return
        if obj is not None:
            oi = id_of(obj)
            if oi is None:
                return
        if si is not None:
            by_pred = self._spo.get(si, {})
            preds = (pi,) if pi is not None else tuple(by_pred)
            for p_id in preds:
                objects = by_pred.get(p_id, _EMPTY)
                if oi is not None:
                    if oi in objects:
                        yield Triple(subject, term(p_id), obj)  # type: ignore[arg-type]
                else:
                    for o_id in objects:
                        yield Triple(subject, term(p_id), term(o_id))  # type: ignore[arg-type]
            return
        if pi is not None:
            if oi is not None:
                for s_id in self._pos.get(pi, {}).get(oi, _EMPTY):
                    yield Triple(term(s_id), predicate, obj)  # type: ignore[arg-type]
            else:
                for s_id, objects in self._pso.get(pi, {}).items():
                    s_term = term(s_id)
                    for o_id in objects:
                        yield Triple(s_term, predicate, term(o_id))  # type: ignore[arg-type]
            return
        if oi is not None:
            for p_id, subjects in self._ops.get(oi, {}).items():
                p_term = term(p_id)
                for s_id in subjects:
                    yield Triple(term(s_id), p_term, obj)  # type: ignore[arg-type]
            return
        for s_id, by_pred in self._spo.items():
            s_term = term(s_id)
            for p_id, objects in by_pred.items():
                p_term = term(p_id)
                for o_id in objects:
                    yield Triple(s_term, p_term, term(o_id))  # type: ignore[arg-type]

    def objects(self, subject: Term, predicate: IRI) -> Set[Term]:
        id_of = self._interner.id_of
        si, pi = id_of(subject), id_of(predicate)
        if si is None or pi is None:
            return set()
        return self._interner.decode_set(self._spo.get(si, {}).get(pi, _EMPTY))

    def subjects(self, predicate: IRI, obj: Term) -> Set[Term]:
        id_of = self._interner.id_of
        pi, oi = id_of(predicate), id_of(obj)
        if pi is None or oi is None:
            return set()
        return self._interner.decode_set(self._pos.get(pi, {}).get(oi, _EMPTY))

    def objects_of_predicate(self, predicate: IRI) -> Set[Term]:
        pi = self._interner.id_of(predicate)
        if pi is None:
            return set()
        return self._interner.decode_set(self._pos.get(pi, {}))

    def subjects_of_predicate(self, predicate: IRI) -> Set[Term]:
        pi = self._interner.id_of(predicate)
        if pi is None:
            return set()
        return self._interner.decode_set(self._pso.get(pi, {}))

    def subject_count(self, predicate: IRI) -> int:
        pi = self._interner.id_of(predicate)
        if pi is None:
            return 0
        return len(self._pso.get(pi, ()))

    def subject_object_items(
        self, predicate: IRI
    ) -> Iterator[Tuple[Term, Set[Term]]]:
        pi = self._interner.id_of(predicate)
        if pi is None:
            return
        term = self._terms.__getitem__
        decode_set = self._interner.decode_set
        for s_id, objects in self._pso.get(pi, {}).items():
            yield term(s_id), decode_set(objects)

    def subject_object_pairs(self, predicate: IRI) -> Iterator[Tuple[Term, Term]]:
        pi = self._interner.id_of(predicate)
        if pi is None:
            return
        term = self._terms.__getitem__
        for s_id, objects in self._pso.get(pi, {}).items():
            s_term = term(s_id)
            for o_id in objects:
                yield s_term, term(o_id)

    def predicate_object_pairs(self, subject: Term) -> Iterator[Tuple[IRI, Term]]:
        si = self._interner.id_of(subject)
        if si is None:
            return
        term = self._terms.__getitem__
        for p_id, objects in self._spo.get(si, {}).items():
            p_term = term(p_id)
            for o_id in objects:
                yield p_term, term(o_id)  # type: ignore[misc]

    def predicates_of(self, subject: Term) -> Set[IRI]:
        si = self._interner.id_of(subject)
        if si is None:
            return set()
        return self._interner.decode_set(self._spo.get(si, {}))

    def predicates_into(self, obj: Term) -> Set[IRI]:
        oi = self._interner.id_of(obj)
        if oi is None:
            return set()
        return self._interner.decode_set(self._ops.get(oi, {}))

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[IRI] = None,
        obj: Optional[Term] = None,
    ) -> int:
        if subject is None and predicate is None and obj is None:
            return self._size
        id_of = self._interner.id_of
        si = id_of(subject) if subject is not None else None
        pi = id_of(predicate) if predicate is not None else None
        oi = id_of(obj) if obj is not None else None
        if (
            (subject is not None and si is None)
            or (predicate is not None and pi is None)
            or (obj is not None and oi is None)
        ):
            return 0
        if si is not None and pi is not None and oi is None:
            return len(self._spo.get(si, {}).get(pi, _EMPTY))
        if si is None and pi is not None and oi is not None:
            return len(self._pos.get(pi, {}).get(oi, _EMPTY))
        if si is None and pi is not None and oi is None:
            return sum(len(v) for v in self._pso.get(pi, {}).values())
        if si is not None and pi is None and oi is None:
            return sum(len(v) for v in self._spo.get(si, {}).values())
        if si is None and pi is None and oi is not None:
            return sum(len(v) for v in self._ops.get(oi, {}).values())
        return sum(1 for _ in self.triples(subject, predicate, obj))

    # ------------------------------------------------------------------
    # vocabulary and statistics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def predicates(self) -> Set[IRI]:
        return self._interner.decode_set(self._pso)

    def subjects_all(self) -> Set[Term]:
        return self._interner.decode_set(self._spo)

    def entities(self) -> Set[IRI]:
        term = self._terms.__getitem__
        out: Set[IRI] = set()
        for s_id in self._spo:
            s_term = term(s_id)
            if isinstance(s_term, IRI):
                out.add(s_term)
        for o_id in self._ops:
            o_term = term(o_id)
            if isinstance(o_term, IRI):
                out.add(o_term)
        return out

    def term_frequency(self, term: Term) -> int:
        term_id = self._interner.id_of(term)
        if term_id is None:
            return 0
        return self.term_frequency_id(term_id)

    def object_frequencies(self, predicate: IRI) -> Counter:
        pi = self._interner.id_of(predicate)
        if pi is None:
            return Counter()
        term = self._terms.__getitem__
        return Counter(
            {term(o_id): len(subjects) for o_id, subjects in self._pos.get(pi, {}).items()}
        )

    def entity_frequencies(self) -> Counter:
        term = self._terms.__getitem__
        freq: Counter = Counter()
        for s_id, by_pred in self._spo.items():
            s_term = term(s_id)
            if isinstance(s_term, IRI):
                freq[s_term] += sum(len(v) for v in by_pred.values())
        for o_id, by_pred in self._ops.items():
            o_term = term(o_id)
            if isinstance(o_term, IRI):
                freq[o_term] += sum(len(v) for v in by_pred.values())
        return freq

    def term_frequencies(self) -> Counter:
        """``term_frequency`` for every term: one ID-space pass, one decode."""
        by_id: Dict[int, int] = {}
        for s_id, by_pred in self._spo.items():
            by_id[s_id] = sum(len(v) for v in by_pred.values())
        for o_id, by_pred in self._ops.items():
            count = sum(len(v) for v in by_pred.values())
            if o_id in by_id:
                by_id[o_id] += count
            else:
                by_id[o_id] = count
        term = self._terms.__getitem__
        return Counter({term(i): n for i, n in by_id.items()})

    def stats(self) -> Dict[str, int]:
        return {
            "facts": self._size,
            "predicates": len(self._pso),
            "subjects": len(self._spo),
            "entities": len(self.entities()),
            "interned_terms": len(self._interner),
            "live_terms": self.live_term_count(),
        }

    def __repr__(self) -> str:
        return (
            f"InternedKnowledgeBase(name={self.name!r}, facts={self._size}, "
            f"predicates={len(self._pso)}, terms={len(self._interner)})"
        )
