"""Property testing: family lower bounds are admissible.

The bounded top-k build (:meth:`CandidateEngine._score_kernel_topk`)
prunes whole candidate families on the word of
:meth:`~repro.complexity.batch.QueueScorer.family_scorer` alone — a
family whose bound exceeds the k-th best Ĉ is discarded unscored.  That
is only sound if the bound is **admissible**: for every family, the
bound must be ≤ the true Ĉ of every member the full-queue path scores.
An inadmissible bound would silently drop queue entries and break the
first-k-prefix contract of ``tests/core/test_topk.py``.

We pin the property on ~50 seeded random KBs × both backends × both
estimator modes (exact ranks, and the §3.5.3 power-law codes the scorer
compiles into its object tables): the full queue provides the
ground-truth (SE, Ĉ) pairs — on the hash backend via its own Term-space
engine (Ĉ values are bit-identical across backends, pinned by
``test_candidate_engine.py``) — while an interned twin of the same
triples computes every family bound.  Runs under its own marker
(``-m bounds``) like the mutation/concurrency suites.
"""

import random

import pytest

from repro.complexity.codes import ComplexityEstimator, rank_table_floor
from repro.complexity.ranking import FrequencyProminence
from repro.core.candidates import CandidateEngine
from repro.core.config import MinerConfig
from repro.core.enumerate import candidate_family
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.namespaces import EX
from repro.kb.store import KnowledgeBase
from repro.kb.terms import BlankNode, Literal
from repro.kb.triples import Triple

pytestmark = pytest.mark.bounds

#: (backend, estimator mode); exact-mode cases carry the bare backend id.
CASES = [
    pytest.param(KnowledgeBase, "exact", id="hash"),
    pytest.param(InternedKnowledgeBase, "exact", id="interned"),
    pytest.param(KnowledgeBase, "powerlaw", id="hash-powerlaw"),
    pytest.param(InternedKnowledgeBase, "powerlaw", id="interned-powerlaw"),
]

N_KBS = 50

#: Enumerate everything so every shape family gets exercised.
FULL_CONFIG = MinerConfig(
    prominent_object_cutoff=None,
    exclude_predicates=frozenset(),
)


def _random_triples(rng: random.Random):
    entities = [EX[f"e{i}"] for i in range(rng.randint(4, 9))]
    predicates = [EX[f"p{i}"] for i in range(rng.randint(2, 4))]
    literals = [Literal("red"), Literal("42")]
    blanks = [BlankNode("b0"), BlankNode("b1")]
    subjects = entities + blanks
    objects = entities + literals + blanks
    return [
        Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(rng.randint(10, 32))
    ]


def _target_sets(rng: random.Random, kb):
    entities = sorted(kb.entities(), key=lambda t: t.sort_key())
    sets = []
    for size in (1, 2, 3):
        if len(entities) >= size:
            sets.append(rng.sample(entities, size))
    return sets


def _engine(kb, mode="exact") -> CandidateEngine:
    return CandidateEngine(
        kb,
        config=FULL_CONFIG,
        estimator=ComplexityEstimator(kb, FrequencyProminence(kb), mode=mode),
    )


@pytest.mark.parametrize("backend,mode", CASES)
def test_family_bounds_admissible(backend, mode):
    """bound(family) ≤ Ĉ(member) for every member of every full queue."""
    checked_members = 0
    families_seen = set()
    for seed in range(N_KBS):
        rng = random.Random(seed)
        triples = _random_triples(rng)
        kb = backend(triples)
        twin = kb if isinstance(kb, InternedKnowledgeBase) else InternedKnowledgeBase(triples)
        twin_engine = _engine(twin, mode)
        assert twin_engine.id_space, "interned twin must take the kernel path"
        bound_of = twin_engine.scorer.family_scorer()
        rank = FrequencyProminence(twin).predicate_rank
        queue_engine = twin_engine if twin is kb else _engine(kb, mode)
        for targets in _target_sets(rng, kb):
            for se, bits in queue_engine.candidates(list(targets)):
                family = candidate_family(twin, se, rank)
                assert family is not None, f"seed={seed} se={se!r}: un-interned term"
                bound = bound_of(family)
                assert bound <= bits, (
                    f"seed={seed} targets={targets!r} se={se!r}: inadmissible "
                    f"bound {bound!r} > Ĉ {bits!r} for family {family!r}"
                )
                checked_members += 1
                families_seen.add(family[0])
    assert checked_members > 500
    # All four family tags (single / path / star / closed) exercised.
    assert len(families_seen) == 4


def test_rank_table_floor():
    """The floor is the shortest code the table can ever emit."""
    compiled = ({3: 2.0, 7: 0.5, 9: 4.0}, 6.0)
    assert rank_table_floor(compiled) == 0.5
    # The default (unseen-key) code can be the shortest.
    assert rank_table_floor(({3: 2.0}, 1.0)) == 1.0
    # An empty table always answers with the default.
    assert rank_table_floor(({}, 5.0)) == 5.0


def test_family_scorer_requires_kernel():
    """The reference (non-kernel) scorer has no family bounds to offer."""
    kb = KnowledgeBase([Triple(EX["a"], EX["p"], EX["b"])])
    engine = _engine(kb)
    assert not engine.id_space
    with pytest.raises(RuntimeError):
        engine.scorer.family_scorer()
