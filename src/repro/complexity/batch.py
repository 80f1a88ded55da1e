"""Batch Ĉ scoring: whole candidate queues in one pass (§3.5.2 phase 1).

:meth:`ComplexityEstimator.complexity` answers one subgraph expression at
a time: hash the SE, probe the memo, dispatch on shape, probe each lazy
rank table.  Queue construction asks the same question tens of thousands
of times per target set, and in batch serving the same conditional
rankings are needed by request after request.  :class:`QueueScorer`
restructures that work the way the candidate pipeline restructures
enumeration: every conditional ranking a queue needs — predicate codes,
``k(I | p)`` object tables, join and co-occurrence tables — is
materialized once, *keyed by interned integer IDs*, and **precompiled to
code lengths** (:func:`~repro.complexity.codes.log2_rank_table`), so
scoring a queue entry is two dict probes and a float add per conditional
code, with no ``log2`` and no term decode in the loop.

Tables are built decode-free where the prominence model allows it
(``entity_score_ids`` / ``predicate_score_ids``), lazily on first probe:
the candidate engine's inline loop grabs the single-plan scorer via
:meth:`QueueScorer.plan_scorer` and a missing table is built the first
time a plan touches it.  The candidate sets behind each table come from
the same ID-space scans the estimator uses
(:func:`~repro.complexity.codes.joinable_predicate_ids` and friends) and
ranks use the same tie-aware ranking, so scores are bit-identical to
``estimator.complexity`` — pinned by the differential harness in
``tests/core/test_candidate_engine.py``.

The §3.5.3 power-law estimator compiles into the same tables: a
predicate with an Eq. 1 fit gets its object codes from
``fit.rank_bits(fr(I | p))`` instead of exact ranks, the very floats
:meth:`~repro.complexity.powerlaw.PowerLawModel.estimated_rank_bits`
returns.  There is one scoring mode.

Tables persist for the scorer's lifetime: a :class:`~repro.core.batch.BatchMiner`
holds one scorer (through its engine) and amortizes them across every
request in the batch.  Concurrent use is safe the same way the estimator
is: a racy double build computes identical tables from pure KB queries.
The tables need a backend with ``supports_id_queries``; on any other
backend :meth:`QueueScorer.score` falls back to per-SE
``estimator.complexity`` calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.kb.epoch import CacheCoherence, EpochWatcher

from repro.complexity.codes import (
    ComplexityEstimator,
    _tie_aware_ranks,
    co_occurring_predicate_ids,
    joinable_predicate_ids,
    log2_rank_table,
    rank_table_floor,
    tail_candidate_ids,
)
from repro.expressions.subgraph import Shape, SubgraphExpression

#: Per-SE scoring plans: shape tag + the interned IDs the formula needs.
#: The candidate engine builds plans straight from its ID tuples (no
#: re-encoding); :meth:`QueueScorer.score` builds them from decoded SEs.
PLAN_SINGLE, PLAN_PATH, PLAN_STAR, PLAN_CLOSED = 0, 1, 2, 3

#: Relative safety shave applied to every family bound (≈1e-12).  Each
#: bound mirrors the member formula term-for-term with some terms replaced
#: by table floors, and rounded float addition is monotone per argument,
#: so the bounds are admissible exactly; the shave is defence-in-depth
#: against any future reordering of the member summation, and is orders of
#: magnitude below any code-length gap a prune could ever turn on.
_BOUND_MARGIN = 1.0 - 2.0 ** -40

#: A compiled conditional table: ``(bits_by_id, default_bits)``.
_BitsTable = Tuple[Dict[int, float], float]


class QueueScorer:
    """Scores candidate queues against shared, ID-keyed code-length tables.

    Wraps (and defers to) a :class:`~repro.complexity.codes.ComplexityEstimator`;
    construct one per estimator and reuse it — the tables it materializes
    are the whole point.
    """

    def __init__(self, estimator: ComplexityEstimator):
        self.estimator = estimator
        kb = estimator.kb
        #: The tables are keyed by interned IDs: dictionary-encoded
        #: backends only (elsewhere :meth:`score` defers per SE).
        self.id_mode = bool(getattr(kb, "supports_id_queries", False))
        self._pred_bits: Dict[int, float] = {}
        self._object_bits: Dict[int, _BitsTable] = {}
        self._join_bits: Dict[int, _BitsTable] = {}
        self._closed_bits: Dict[int, _BitsTable] = {}
        self._tail_bits: Dict[Tuple[int, int], _BitsTable] = {}
        # Table floors memoized for the family-bound probes.
        self._floor_memo: Dict[tuple, float] = {}
        self._watch = EpochWatcher(kb)

    # ------------------------------------------------------------------
    # epoch coherence
    # ------------------------------------------------------------------

    def _sync(self) -> None:
        """Drop ID-keyed tables built at an older KB epoch (coarse —
        same argument as the estimator's tables, which the wrapped
        estimator drops through its own guard)."""
        watch = self._watch
        if watch.seen != self.estimator.kb.epoch:
            watch.absorb(None, self.clear_tables)

    @property
    def coherence(self) -> CacheCoherence:
        """Epoch-invalidation telemetry for the shared tables."""
        return self._watch.coherence

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def score(self, ses: Sequence[SubgraphExpression]) -> List[float]:
        """Ĉ(ρ) for every expression, in input order.

        Bit-identical to ``[estimator.complexity(se) for se in ses]``.
        """
        complexity = self.estimator.complexity
        if not self.id_mode:
            return [complexity(se) for se in ses]
        score_plan = self.plan_scorer()
        out = []
        for se in ses:
            plan = self._plan(se)
            out.append(complexity(se) if plan is None else score_plan(plan))
        return out

    def plan_scorer(self):
        """An epoch-synced single-plan scorer for inline loops.

        Returns the bound ``plan -> Ĉ bits`` scorer the candidate engine
        calls once per cold queue miss, with the epoch check hoisted to
        this call (the engine's own guard brackets the whole queue
        build).  Tables build on first probe, so there is no pre-pass
        over the plans.
        """
        if not self.id_mode:
            raise RuntimeError("plan_scorer() needs a backend with supports_id_queries")
        self._sync()
        return self._score_plan

    def family_scorer(self):
        """An epoch-synced ``family -> admissible lower bound`` probe.

        A *family* names every plan sharing a shape and its predicate
        skeleton, before any object is chosen::

            (PLAN_SINGLE, p)            all (p, o) single atoms
            (PLAN_PATH,   p0, p1)       all p0 ⋈ p1 paths, any tail object
            (PLAN_STAR,   p0, pa, pb)   both star atoms' predicates fixed
            (PLAN_CLOSED, anchor, n)    anchor + n closing predicates

        The bound mirrors :meth:`_score_plan`'s additive formula term for
        term, substituting each object-dependent term with its table's
        floor (:func:`~repro.complexity.codes.rank_table_floor`) — the
        shortest code any member could pay there — so no member of the
        family can score below it.  Floors of tables that are not yet
        resident are taken as 0.0 instead of forcing a build: bounds must
        stay cheap relative to the scoring they prune, and 0.0 is always
        admissible.  Per-predicate join/closed tables (few, and needed by
        any surviving member anyway) *are* built on first probe, because
        ``join.get(p1)`` separates families far better than any floor.
        """
        if not self.id_mode:
            raise RuntimeError("family_scorer() needs a backend with supports_id_queries")
        self._sync()
        return self._family_bound

    def _family_bound(self, family: tuple) -> float:
        tag = family[0]
        self._ensure_pred_bits(family[1])
        pred_bits = self._pred_bits
        if tag == PLAN_SINGLE:
            p = family[1]
            bound = pred_bits[p] + self._resident_floor("obj", self._object_bits, p)
        elif tag == PLAN_PATH:
            _, p0, p1 = family
            join, join_default = self._join_table(p0)
            bound = (
                pred_bits[p0]
                + join.get(p1, join_default)
                + self._resident_floor("tail", self._tail_bits, (p0, p1))
            )
        elif tag == PLAN_STAR:
            # Same summation order as the member formula (canonical plan
            # order), so monotone rounded addition keeps the bound exact.
            _, p0, pa, pb = family
            join, join_default = self._join_table(p0)
            bound = pred_bits[p0]
            for p in (pa, pb):
                bound += join.get(p, join_default)
                bound += self._resident_floor("tail", self._tail_bits, (p0, p))
        else:
            _, anchor, extras = family
            bound = pred_bits[anchor] + extras * self._closed_floor(anchor)
        return bound * _BOUND_MARGIN

    def _join_table(self, p0: int):
        try:
            return self._join_bits[p0]
        except KeyError:
            self._build_join_table(p0)
            return self._join_bits[p0]

    def _closed_floor(self, anchor: int) -> float:
        floor = self._floor_memo.get(("closed", anchor))
        if floor is None:
            if anchor not in self._closed_bits:
                self._build_closed_table(anchor)
            floor = rank_table_floor(self._closed_bits[anchor])
            self._floor_memo[("closed", anchor)] = floor
        return floor

    def _resident_floor(self, kind: str, tables: Dict, key) -> float:
        """Floor of an already-materialized table; 0.0 (admissible, free)
        when it is not resident.  Memoized only once resident, so a table
        built later by the scoring loop tightens subsequent probes."""
        memo_key = (kind, key)
        floor = self._floor_memo.get(memo_key)
        if floor is not None:
            return floor
        compiled = tables.get(key)
        if compiled is None:
            return 0.0
        floor = rank_table_floor(compiled)
        self._floor_memo[memo_key] = floor
        return floor

    def table_stats(self) -> Dict[str, int]:
        """How many conditional tables are resident (serving telemetry)."""
        return {
            "predicate_bits": len(self._pred_bits),
            "object_rank_tables": len(self._object_bits),
            "join_rank_tables": len(self._join_bits),
            "closed_rank_tables": len(self._closed_bits),
            "tail_rank_tables": len(self._tail_bits),
        }

    def clear_tables(self) -> None:
        """Drop every materialized table.

        Runs automatically through the epoch guard when the KB mutates;
        manual calls are never required.
        """
        self._pred_bits.clear()
        self._object_bits.clear()
        self._join_bits.clear()
        self._closed_bits.clear()
        self._tail_bits.clear()
        self._floor_memo.clear()

    # ------------------------------------------------------------------
    # SE -> ID plan (the standalone score() entry point)
    # ------------------------------------------------------------------

    def _plan(self, se: SubgraphExpression) -> Optional[tuple]:
        """The (shape, *ids) scoring plan, or None to fall back per-SE."""
        encode = self.estimator.kb.term_id  # type: ignore[attr-defined]
        atoms = se.atoms
        if se.shape is Shape.SINGLE_ATOM:
            atom = atoms[0]
            p, o = encode(atom.predicate), encode(atom.object)
            if p is None or o is None:
                return None
            return (PLAN_SINGLE, p, o)
        if se.shape is Shape.PATH:
            hop, tail = atoms
            p0, p1 = encode(hop.predicate), encode(tail.predicate)
            o = encode(tail.object)
            if p0 is None or p1 is None or o is None:
                return None
            return (PLAN_PATH, p0, p1, o)
        if se.shape is Shape.PATH_STAR:
            hop, star1, star2 = atoms
            ids = (
                encode(hop.predicate),
                encode(star1.predicate),
                encode(star1.object),
                encode(star2.predicate),
                encode(star2.object),
            )
            if None in ids:
                return None
            return (PLAN_STAR,) + ids
        if se.shape in (Shape.CLOSED_2, Shape.CLOSED_3):
            # The cheapest predicate anchors the code (same rank-sorted
            # order as the estimator, so the float summation matches).
            ordered = sorted(
                se.predicates(), key=self.estimator.prominence.predicate_rank
            )
            ids = tuple(encode(p) for p in ordered)
            if None in ids:
                return None
            return (PLAN_CLOSED,) + ids
        raise AssertionError(f"unhandled shape {se.shape}")

    # ------------------------------------------------------------------
    # table builders (decode-free where the prominence model allows)
    # ------------------------------------------------------------------

    def _rank_entity_ids(self, ids) -> Dict[int, int]:
        """Tie-aware prominence ranks for an entity-ID candidate set.

        Asks the prominence model for ID-space scores first
        (``entity_score_ids``, e.g. frequency counts straight off the
        interned indexes) and decodes only when the model has no ID path
        (PageRank) — the resulting ranks are identical either way, the
        scores being the same floats.
        """
        ids = set(ids)
        prominence = self.estimator.prominence
        score_ids = getattr(prominence, "entity_score_ids", None)
        scores = score_ids(ids) if score_ids is not None else None
        if scores is not None:
            return _tie_aware_ranks(ids, scores.__getitem__)
        term = self.estimator.kb.term_of_id  # type: ignore[attr-defined]
        score = prominence.entity_score
        return _tie_aware_ranks(ids, lambda i: score(term(i)))

    def _rank_predicate_ids(self, ids) -> Dict[int, int]:
        ids = set(ids)
        prominence = self.estimator.prominence
        score_ids = getattr(prominence, "predicate_score_ids", None)
        scores = score_ids(ids) if score_ids is not None else None
        if scores is not None:
            return _tie_aware_ranks(ids, scores.__getitem__)
        term = self.estimator.kb.term_of_id  # type: ignore[attr-defined]
        score = prominence.predicate_score
        return _tie_aware_ranks(ids, lambda i: score(term(i)))

    def _ensure_pred_bits(self, p_id: int) -> None:
        if p_id not in self._pred_bits:
            predicate = self.estimator.kb.term_of_id(p_id)  # type: ignore[attr-defined]
            self._pred_bits[p_id] = self.estimator.predicate_bits(predicate)

    def _build_object_table(self, p_id: int) -> None:
        """``k(I | p)`` codes: exact ranks, or the predicate's Eq. 1 fit
        evaluated at each object's conditional frequency (power-law
        estimators; a predicate too small to fit keeps exact ranks)."""
        kb = self.estimator.kb
        objects = kb.object_ids_of_predicate_view(p_id)  # type: ignore[attr-defined]
        fit = self.estimator.powerlaw_fit(kb.term_of_id(p_id))  # type: ignore[attr-defined]
        if fit is None:
            self._object_bits[p_id] = log2_rank_table(self._rank_entity_ids(objects))
            return
        subjects = kb.subjects_ids_view  # type: ignore[attr-defined]
        self._object_bits[p_id] = (
            {o: fit.rank_bits(float(len(subjects(p_id, o)))) for o in objects},
            fit.rank_bits(0.0),
        )

    def _build_join_table(self, p0_id: int) -> None:
        self._join_bits[p0_id] = log2_rank_table(
            self._rank_predicate_ids(joinable_predicate_ids(self.estimator.kb, p0_id))
        )

    def _build_closed_table(self, anchor_id: int) -> None:
        self._closed_bits[anchor_id] = log2_rank_table(
            self._rank_predicate_ids(co_occurring_predicate_ids(self.estimator.kb, anchor_id))
        )

    def _build_tail_table(self, p0_id: int, p1_id: int) -> None:
        self._tail_bits[(p0_id, p1_id)] = log2_rank_table(
            self._rank_entity_ids(tail_candidate_ids(self.estimator.kb, p0_id, p1_id))
        )

    # ------------------------------------------------------------------
    # scoring: one queue entry per call
    # ------------------------------------------------------------------

    def _score_plan(self, plan: tuple) -> float:
        """One queue entry against the precompiled code-length tables.

        Every probe is ``table.get(id, default)`` — no ``log2``, no
        ``max``, no rank arithmetic in the loop.  The floats are
        bit-identical to the estimator's because the tables precompiled
        the very expression it evaluates per probe (see
        :func:`~repro.complexity.codes.log2_rank_table`).  Missing tables
        surface as ``KeyError`` and are built on the spot — the cold path
        of a warm-by-design loop.
        """
        try:
            tag = plan[0]
            pred_bits = self._pred_bits
            if tag == PLAN_SINGLE:
                _, p, o = plan
                table, default = self._object_bits[p]
                return pred_bits[p] + table.get(o, default)
            if tag == PLAN_PATH:
                _, p0, p1, o = plan
                join, join_default = self._join_bits[p0]
                tail, tail_default = self._tail_bits[(p0, p1)]
                return (
                    pred_bits[p0]
                    + join.get(p1, join_default)
                    + tail.get(o, tail_default)
                )
            if tag == PLAN_STAR:
                _, p0, p1, o1, p2, o2 = plan
                join, join_default = self._join_bits[p0]
                bits = pred_bits[p0]
                for p, o in ((p1, o1), (p2, o2)):
                    tail, tail_default = self._tail_bits[(p0, p)]
                    bits += join.get(p, join_default)
                    bits += tail.get(o, tail_default)
                return bits
            anchor = plan[1]
            closed, closed_default = self._closed_bits[anchor]
            bits = pred_bits[anchor]
            for p in plan[2:]:
                bits += closed.get(p, closed_default)
            return bits
        except KeyError:
            self._build_missing(plan)
            return self._score_plan(plan)

    def _build_missing(self, plan: tuple) -> None:
        """Materialize every table *plan* needs (the cold path)."""
        tag = plan[0]
        self._ensure_pred_bits(plan[1])
        if tag == PLAN_SINGLE:
            if plan[1] not in self._object_bits:
                self._build_object_table(plan[1])
        elif tag in (PLAN_PATH, PLAN_STAR):
            if plan[1] not in self._join_bits:
                self._build_join_table(plan[1])
            if (plan[1], plan[2]) not in self._tail_bits:
                self._build_tail_table(plan[1], plan[2])
            if tag == PLAN_STAR and (plan[1], plan[4]) not in self._tail_bits:
                self._build_tail_table(plan[1], plan[4])
        else:
            if plan[1] not in self._closed_bits:
                self._build_closed_table(plan[1])

    def __repr__(self) -> str:
        mode = "tables" if self.id_mode else "per-se"
        return f"QueueScorer(mode={mode}, estimator={self.estimator!r})"
