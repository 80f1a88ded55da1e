"""The Ĉ estimator: expression complexity in bits (paper §3.1).

For a single-atom expression ``p(x, I)``::

    Ĉ(p(x, I)) = log2 k(p)  +  log2 k(I | p)

where ``k(p)`` is the predicate's position in the global prominence
ranking and ``k(I | p)`` the object's position among the objects of ``p``
(the chain rule: once *mayor* is conveyed, the decoder discriminates only
among mayors).

For a path ``p0(x, y) ∧ p1(y, I1)`` the chain continues::

    Ĉ(ρ) = log2 k(p0)
         + log2 k(p1 | p0)        # rank among predicates joinable 1→2 with p0
         + log2 k(I1 | p0 ⋈ p1)   # rank among the bindings of the tail

A path+star pays the star atom's conditional predicate and object codes
too; closed shapes pay the root predicate plus each closing predicate's
rank among the predicates that *co-occur subject-and-object* with it.

Ĉ(e) for a referring expression is the sum over its conjuncts, and
Ĉ(⊤) = ∞ (footnote 6).  This additive form deliberately double-counts
shared sub-paths (§3.1's "simplification") — fine for comparisons, which
is all REMI needs.

Two evaluation modes:

* ``exact`` — conditional rankings are materialized (and cached) per
  context;
* ``powerlaw`` — conditional object ranks come from the per-predicate
  (α, β) fits of Eq. 1 (:mod:`repro.complexity.powerlaw`), trading a
  little fidelity for O(1) storage per predicate.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional, Tuple

from repro.complexity.powerlaw import PowerLawFit, PowerLawModel
from repro.complexity.ranking import Prominence
from repro.expressions.expression import Expression
from repro.expressions.subgraph import Shape, SubgraphExpression
from repro.kb.epoch import CacheCoherence, EpochWatcher
from repro.kb.namespaces import RDF_TYPE
from repro.kb.store import KnowledgeBase
from repro.kb.terms import IRI, Term


def _log2_rank(rank: int) -> float:
    """Code length of the *rank*-th concept: log2(k), with k ≥ 1."""
    return math.log2(max(rank, 1))


# ----------------------------------------------------------------------
# ID-space conditional candidate sets (shared with the batch scorer)
#
# On dictionary-encoded backends the scans that define each conditional
# ranking's candidate set run over integer IDs.  The estimator decodes the
# result once to build its term-keyed tables; the batch scorer
# (:mod:`repro.complexity.batch`) ranks the IDs directly.  One
# implementation serves both so the two can never drift apart.
# ----------------------------------------------------------------------


def joinable_predicate_ids(kb: KnowledgeBase, p0_id: int) -> "set[int]":
    """IDs of predicates reachable from an object of ``p0`` (1→2 joins)."""
    joinable: set = set()
    for mid_id in kb.object_ids_of_predicate_view(p0_id):  # type: ignore[attr-defined]
        joinable |= kb.predicate_ids_of_view(mid_id)  # type: ignore[attr-defined]
    return joinable


def co_occurring_predicate_ids(kb: KnowledgeBase, anchor_id: int) -> "set[int]":
    """IDs of predicates sharing an ``(s, o)`` pair with *anchor*."""
    co_ids: set = set()
    for s_id, obj_ids in kb.subject_object_items_ids(anchor_id):  # type: ignore[attr-defined]
        for c_id in kb.predicate_ids_of_view(s_id):  # type: ignore[attr-defined]
            if (
                c_id != anchor_id
                and c_id not in co_ids
                and not obj_ids.isdisjoint(kb.objects_ids_view(s_id, c_id))  # type: ignore[attr-defined]
            ):
                co_ids.add(c_id)
    return co_ids


def tail_candidate_ids(kb: KnowledgeBase, p0_id: int, p1_id: int) -> "set[int]":
    """IDs of the bindings of ``z`` in ``p0(x, y) ∧ p1(y, z)``."""
    candidate_ids: set = set()
    for mid_id in kb.object_ids_of_predicate_view(p0_id):  # type: ignore[attr-defined]
        candidate_ids |= kb.objects_ids_view(mid_id, p1_id)  # type: ignore[attr-defined]
    return candidate_ids


def log2_rank_table(ranks: dict) -> "Tuple[Dict[int, float], float]":
    """A rank table precompiled to code lengths: ``(bits_by_key, default)``.

    The batch scorer probes conditional tables hundreds of thousands of
    times per queue; applying :func:`_log2_rank` once per *table entry*
    at build time (instead of once per *probe*) keeps the scoring loop to
    two dict gets and a float add.  ``default`` is the out-of-table code
    ``log2(len + 1)`` — the same float the estimator's
    ``ranks.get(key, len + 1)`` produces, so scores stay bit-identical
    to :meth:`ComplexityEstimator.complexity`.
    """
    return (
        {key: _log2_rank(rank) for key, rank in ranks.items()},
        _log2_rank(len(ranks) + 1),
    )


def rank_table_floor(compiled: "Tuple[Dict[int, float], float]") -> float:
    """The shortest code a compiled rank table can ever emit, in bits.

    For a :func:`log2_rank_table` output this is the best-possible (rank-1
    or tied-group) contribution any key — in-table or out-of-table — can
    pay, which makes it an admissible lower bound on that conditional
    code.  Note the floor is *not* always 0.0: tie-aware ranking gives a
    tie group its last position, so a table whose top scores tie starts
    above rank 1.
    """
    bits, default = compiled
    return min(min(bits.values()), default) if bits else default


def _tie_aware_ranks(items, score) -> dict:
    """Descending-score ranks where a tie group shares its *last* position.

    A decoder must distinguish a concept from every concept at least as
    prominent, so equally-prominent items all pay the full group position
    — this keeps the code honest for the long tail of frequency-1 objects
    (otherwise a lexicographic tie-break would hand some of them rank 1).
    """
    ordered = sorted(items, key=lambda t: -score(t))
    ranks: dict = {}
    index = 0
    while index < len(ordered):
        group_end = index
        group_score = score(ordered[index])
        while group_end + 1 < len(ordered) and score(ordered[group_end + 1]) == group_score:
            group_end += 1
        shared_rank = group_end + 1  # 1-based position of the group's tail
        for position in range(index, group_end + 1):
            ranks[ordered[position]] = shared_rank
        index = group_end + 1
    return ranks


class ComplexityEstimator:
    """Computes Ĉ over subgraph expressions and referring expressions.

    Parameters
    ----------
    kb:
        The knowledge base the rankings are computed on.
    prominence:
        A :class:`~repro.complexity.ranking.Prominence` model — frequency
        gives the paper's Ĉfr, PageRank gives Ĉpr.
    mode:
        ``"exact"`` or ``"powerlaw"`` (Eq. 1 compression for conditional
        object ranks; predicate ranks are always exact, as in the paper).
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        prominence: Prominence,
        mode: str = "exact",
        type_discount_bits: float = 0.0,
    ):
        if mode not in ("exact", "powerlaw"):
            raise ValueError(f"mode must be 'exact' or 'powerlaw', got {mode!r}")
        if type_discount_bits < 0:
            raise ValueError(f"type_discount_bits must be ≥ 0, got {type_discount_bits}")
        self.kb = kb
        self.prominence = prominence
        self.mode = mode
        #: §4.1.1 finds users systematically rank ``rdf:type`` atoms as the
        #: simplest, while Ĉ often ranks them 2nd–3rd — "the need of
        #: special treatment for the type predicate as suggested by [13]".
        #: A positive discount subtracts that many bits from the type
        #: predicate's code (floored at 0), pulling type atoms forward.
        self.type_discount_bits = type_discount_bits
        self._powerlaw: Optional[PowerLawModel] = None
        if mode == "powerlaw":
            self._powerlaw = PowerLawModel(kb)
        self._se_cache: Dict[SubgraphExpression, float] = {}
        self._object_ranks: Dict[IRI, Dict[Term, int]] = {}
        self._join_predicate_ranks: Dict[IRI, Dict[IRI, int]] = {}
        self._closed_predicate_ranks: Dict[IRI, Dict[IRI, int]] = {}
        self._tail_ranks: Dict[Tuple[IRI, IRI], Dict[Term, int]] = {}
        self._watch = EpochWatcher(kb)

    # ------------------------------------------------------------------
    # epoch coherence
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Drop rank tables built at an older KB epoch.  Conditional
        rankings have no cheap per-key repair (one triple can move any
        rank), so invalidation is coarse; the power-law fits re-derive
        with them."""
        watch = self._watch
        if watch.seen != self.kb.epoch:
            watch.absorb(None, self._rebuild_tables)

    def _rebuild_tables(self) -> None:
        self.clear_caches()
        if self._powerlaw is not None:
            self._powerlaw = PowerLawModel(self.kb)

    @property
    def coherence(self) -> CacheCoherence:
        """Epoch-invalidation telemetry for this estimator's tables."""
        return self._watch.coherence

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def complexity(self, se: SubgraphExpression) -> float:
        """Ĉ(ρ) in bits."""
        self._sync()
        cached = self._se_cache.get(se)
        if cached is not None:
            return cached
        bits = self._compute(se)
        self._se_cache[se] = bits
        return bits

    def expression_complexity(self, expression: Expression) -> float:
        """Ĉ(e) = Σ Ĉ(ρᵢ); Ĉ(⊤) = ∞."""
        if expression.is_top:
            return math.inf
        return sum(self.complexity(se) for se in expression.conjuncts)

    def powerlaw_fit(self, predicate: IRI) -> Optional[PowerLawFit]:
        """The Eq. 1 fit behind *predicate*'s object codes, or ``None``
        when they are exact ranks (exact mode, or too few objects to
        fit) — what the batch scorer compiles its object tables from."""
        self._sync()
        if self._powerlaw is None:
            return None
        return self._powerlaw.fit_for(predicate)

    def predicate_bits(self, predicate: IRI) -> float:
        """l(p_b) = log2 of the predicate's global prominence rank."""
        self._sync()
        bits = _log2_rank(self.prominence.predicate_rank(predicate))
        if self.type_discount_bits and predicate == RDF_TYPE:
            bits = max(0.0, bits - self.type_discount_bits)
        return bits

    # ------------------------------------------------------------------
    # per-shape computation
    # ------------------------------------------------------------------

    def _compute(self, se: SubgraphExpression) -> float:
        if se.shape is Shape.SINGLE_ATOM:
            atom = se.atoms[0]
            return self.predicate_bits(atom.predicate) + self._object_bits(
                atom.predicate, atom.object  # type: ignore[arg-type]
            )
        if se.shape is Shape.PATH:
            hop, tail = se.atoms
            return (
                self.predicate_bits(hop.predicate)
                + self._join_predicate_bits(hop.predicate, tail.predicate)
                + self._tail_object_bits(hop.predicate, tail.predicate, tail.object)  # type: ignore[arg-type]
            )
        if se.shape is Shape.PATH_STAR:
            hop, star1, star2 = se.atoms
            bits = self.predicate_bits(hop.predicate)
            for star in (star1, star2):
                bits += self._join_predicate_bits(hop.predicate, star.predicate)
                bits += self._tail_object_bits(hop.predicate, star.predicate, star.object)  # type: ignore[arg-type]
            return bits
        if se.shape in (Shape.CLOSED_2, Shape.CLOSED_3):
            # The cheapest predicate anchors the code; the rest pay their
            # rank among predicates that co-occur (same s, same o) with it.
            predicates = sorted(se.predicates(), key=self.prominence.predicate_rank)
            anchor = predicates[0]
            bits = self.predicate_bits(anchor)
            for predicate in predicates[1:]:
                bits += self._closed_predicate_bits(anchor, predicate)
            return bits
        raise AssertionError(f"unhandled shape {se.shape}")

    # ------------------------------------------------------------------
    # conditional codes
    # ------------------------------------------------------------------

    def _object_bits(self, predicate: IRI, obj: Term) -> float:
        """log2 k(I | p): the object's rank among the objects of *p*."""
        if self._powerlaw is not None:
            estimated = self._powerlaw.estimated_rank_bits(predicate, obj)
            if estimated is not None:
                return estimated
        ranks = self._object_ranks.get(predicate)
        if ranks is None:
            ranks = self._rank_map(self.kb.objects_of_predicate(predicate))
            self._object_ranks[predicate] = ranks
        return _log2_rank(ranks.get(obj, len(ranks) + 1))

    def _join_predicate_bits(self, p0: IRI, p1: IRI) -> float:
        """log2 k(p1 | p0): rank among predicates joinable 1→2 with p0."""
        ranks = self._join_predicate_ranks.get(p0)
        if ranks is None:
            ranks = self._rank_predicates(self._joinable_predicates(p0))
            self._join_predicate_ranks[p0] = ranks
        return _log2_rank(ranks.get(p1, len(ranks) + 1))

    def _joinable_predicates(self, p0: IRI) -> "set[IRI]":
        """The predicates reachable from an object of *p0* (one decode on
        dictionary-encoded backends: the scan runs over integer IDs)."""
        kb = self.kb
        if kb.supports_id_queries:
            p0_id = kb.term_id(p0)  # type: ignore[attr-defined]
            if p0_id is None:
                return set()
            return set(kb.decode_terms(joinable_predicate_ids(kb, p0_id)))  # type: ignore[attr-defined]
        joinable: set = set()
        for mid in kb.objects_of_predicate(p0):
            joinable |= kb.predicates_of(mid)
        return joinable

    def _closed_predicate_bits(self, anchor: IRI, predicate: IRI) -> float:
        """log2 k(p | anchor) among predicates sharing an (s, o) pair."""
        ranks = self._closed_predicate_ranks.get(anchor)
        if ranks is None:
            ranks = self._rank_predicates(self._co_occurring_predicates(anchor))
            self._closed_predicate_ranks[anchor] = ranks
        return _log2_rank(ranks.get(predicate, len(ranks) + 1))

    def _co_occurring_predicates(self, anchor: IRI) -> "set[IRI]":
        """Predicates sharing an ``(s, o)`` pair with *anchor* (ID-space
        scan with one decode on dictionary-encoded backends)."""
        kb = self.kb
        if kb.supports_id_queries:
            anchor_id = kb.term_id(anchor)  # type: ignore[attr-defined]
            if anchor_id is None:
                return set()
            return set(kb.decode_terms(co_occurring_predicate_ids(kb, anchor_id)))  # type: ignore[attr-defined]
        co_occurring: set = set()
        for subject, objs in kb.subject_object_items(anchor):
            for candidate in kb.predicates_of(subject):
                if candidate != anchor and candidate not in co_occurring:
                    if not objs.isdisjoint(kb.objects_view(subject, candidate)):
                        co_occurring.add(candidate)
        return co_occurring

    def _tail_object_bits(self, p0: IRI, p1: IRI, obj: Term) -> float:
        """log2 k(I | p0 ⋈ p1): rank among bindings of z in p0(x,y) ∧ p1(y,z)."""
        key = (p0, p1)
        ranks = self._tail_ranks.get(key)
        if ranks is None:
            kb = self.kb
            if kb.supports_id_queries:
                p0_id = kb.term_id(p0)  # type: ignore[attr-defined]
                p1_id = kb.term_id(p1)  # type: ignore[attr-defined]
                candidate_ids: set = set()
                if p0_id is not None and p1_id is not None:
                    candidate_ids = tail_candidate_ids(kb, p0_id, p1_id)
                candidates: set = set(kb.decode_terms(candidate_ids))  # type: ignore[attr-defined]
            else:
                candidates = set()
                for mid in kb.objects_of_predicate(p0):
                    candidates |= kb.objects_view(mid, p1)
            ranks = self._rank_map(candidates)
            self._tail_ranks[key] = ranks
        return _log2_rank(ranks.get(obj, len(ranks) + 1))

    # ------------------------------------------------------------------
    # ranking helpers
    # ------------------------------------------------------------------

    def _rank_map(self, terms: "set[Term] | FrozenSet[Term]") -> Dict[Term, int]:
        return _tie_aware_ranks(terms, self.prominence.entity_score)

    def _rank_predicates(self, predicates: "set[IRI]") -> Dict[IRI, int]:
        return _tie_aware_ranks(predicates, self.prominence.predicate_score)

    def clear_caches(self) -> None:
        """Drop all memoized rankings.

        Called automatically by the epoch guard when the KB mutates
        (:mod:`repro.kb.epoch`); callers never need to invoke it by hand.
        """
        self._se_cache.clear()
        self._object_ranks.clear()
        self._join_predicate_ranks.clear()
        self._closed_predicate_ranks.clear()
        self._tail_ranks.clear()

    def __repr__(self) -> str:
        name = getattr(self.prominence, "name", "?")
        return f"ComplexityEstimator(prominence={name}, mode={self.mode})"


# ----------------------------------------------------------------------
# registry factories (the ``exact`` / ``powerlaw`` entries of
# :data:`repro.registry.ESTIMATORS` — custom estimators register their
# own factory with the same ``(kb, prominence, **kwargs)`` signature)
# ----------------------------------------------------------------------


def exact_estimator(kb: KnowledgeBase, prominence: Prominence, **kwargs) -> ComplexityEstimator:
    """Ĉ with exact conditional rankings (the paper's default)."""
    return ComplexityEstimator(kb, prominence, mode="exact", **kwargs)


def powerlaw_estimator(kb: KnowledgeBase, prominence: Prominence, **kwargs) -> ComplexityEstimator:
    """Ĉ with Eq. 1 power-law compression for conditional object ranks."""
    return ComplexityEstimator(kb, prominence, mode="powerlaw", **kwargs)
