"""Differential testing: CandidateEngine vs the seed enumeration functions.

The ID-space path of :class:`~repro.core.candidates.CandidateEngine`
re-implements Alg. 1 lines 1–2 — enumeration, the §3.5.2 prunes,
cross-target intersection and Ĉ scoring — over interned integer IDs.  The
Term-space functions in :mod:`repro.core.enumerate` plus per-SE
:meth:`~repro.complexity.codes.ComplexityEstimator.complexity` calls are
the reference semantics, so (matching ``test_matcher_oracle.py`` style)
we pin the engine to them on ~50 seeded random KBs × both backends ×
1-, 2- and 3-target sets: exactly the same candidate sets and
bit-identical Ĉ values — for the exact estimator, the power-law
estimator (compiled into the same code-length tables) and custom
prominence models.
"""

import random

import pytest

from repro.complexity.codes import ComplexityEstimator
from repro.complexity.ranking import FrequencyProminence
from repro.core.candidates import CandidateEngine
from repro.core.config import MinerConfig
from repro.core.enumerate import common_subgraph_expressions, subgraph_expressions
from repro.core.results import SearchStats
from repro.expressions.matching import Matcher
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.namespaces import EX
from repro.kb.store import KnowledgeBase
from repro.kb.terms import BlankNode, Literal
from repro.kb.triples import Triple

BACKENDS = [KnowledgeBase, InternedKnowledgeBase]
BACKEND_IDS = ["hash", "interned"]

N_KBS = 50

#: Enumerate everything: no prominence cutoff, no predicate exclusions.
FULL_CONFIG = MinerConfig(
    prominent_object_cutoff=None,
    exclude_predicates=frozenset(),
)

#: The paper's §3.5.2 operating point, to exercise every prune (the
#: prominence cutoff is supplied explicitly below, like the miner does).
PRUNED_CONFIG = MinerConfig(prominent_object_cutoff=0.2)


def _random_kb(rng: random.Random, backend):
    """A small dense-ish random KB with IRIs, literals and blank nodes."""
    entities = [EX[f"e{i}"] for i in range(rng.randint(4, 9))]
    predicates = [EX[f"p{i}"] for i in range(rng.randint(2, 4))]
    literals = [Literal("red"), Literal("42")]
    blanks = [BlankNode("b0"), BlankNode("b1")]
    subjects = entities + blanks
    objects = entities + literals + blanks
    kb = backend()
    for _ in range(rng.randint(10, 32)):
        kb.add(Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects)))
    return kb


def _target_sets(rng: random.Random, kb):
    """One 1-, one 2- and one 3-target set over the KB's entities."""
    entities = sorted(kb.entities(), key=lambda t: t.sort_key())
    sets = []
    for size in (1, 2, 3):
        if len(entities) >= size:
            sets.append(rng.sample(entities, size))
    return sets


def _prominent(kb, config):
    """The §3.5.2 cutoff set, supplied explicitly like the miner does."""
    if config.prominent_object_cutoff is None:
        return frozenset()
    return FrequencyProminence(kb).top_entities(config.prominent_object_cutoff)


def _reference_queue(kb, targets, config, prominent, estimator):
    """Seed semantics: enumerate/intersect via the Term-space functions,
    score per-SE with the engine-independent *estimator*, sort like
    Alg. 1 line 2."""
    common = common_subgraph_expressions(kb, targets, config, Matcher(kb), prominent)
    scored = [(se, estimator.complexity(se)) for se in common]
    scored.sort(key=lambda pair: (pair[1], pair[0].sort_key()))
    return scored


def _assert_same_queue(actual, expected, context):
    """Same candidates in the same order, Ĉ bit-identical."""
    assert [se for se, _ in actual] == [se for se, _ in expected], (
        f"{context}: candidate queues diverge"
    )
    for (se_a, c_a), (_, c_e) in zip(actual, expected):
        assert c_a == c_e, f"{context} se={se_a!r}: Ĉ diverges ({c_a!r} != {c_e!r})"


#: (backend, estimator mode); exact-mode cases carry the bare backend id.
#: Power-law object codes compile into the ID path's code-length tables,
#: so the power-law differential runs on the interned backend.
SEED_SEMANTICS_CASES = [
    pytest.param(KnowledgeBase, "exact", id="hash"),
    pytest.param(InternedKnowledgeBase, "exact", id="interned"),
    pytest.param(InternedKnowledgeBase, "powerlaw", id="interned-powerlaw"),
]


@pytest.mark.parametrize("backend,mode", SEED_SEMANTICS_CASES)
@pytest.mark.parametrize("config", [FULL_CONFIG, PRUNED_CONFIG], ids=["full", "pruned"])
def test_engine_queue_matches_seed_semantics(backend, mode, config):
    """Candidate sets AND Ĉ values bit-identical to the seed pipeline."""
    checked_queues = 0
    checked_candidates = 0
    fitted = 0
    for seed in range(N_KBS):
        rng = random.Random(seed)
        kb = _random_kb(rng, backend)
        prominent = _prominent(kb, config)
        engine = CandidateEngine(
            kb,
            config=config,
            estimator=ComplexityEstimator(kb, FrequencyProminence(kb), mode=mode),
            prominent=prominent,
        )
        reference = ComplexityEstimator(kb, FrequencyProminence(kb), mode=mode)
        for targets in _target_sets(rng, kb):
            expected = _reference_queue(kb, targets, config, prominent, reference)
            actual = engine.candidates(list(targets))
            _assert_same_queue(actual, expected, f"seed={seed} targets={targets!r}")
            checked_queues += 1
            checked_candidates += len(actual)
        fitted += sum(
            engine.estimator.powerlaw_fit(p) is not None for p in kb.predicates()
        )
    assert checked_queues >= 100
    assert checked_candidates > 500
    # Power-law mode exercised Eq. 1 fits, not only the exact-rank fallback.
    assert (fitted > N_KBS) == (mode == "powerlaw")


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_engine_common_matches_seed_single_target(backend):
    """With one target, common() is exactly subgraph_expressions(seed)."""
    for seed in range(0, N_KBS, 5):
        rng = random.Random(900 + seed)
        kb = _random_kb(rng, backend)
        engine = CandidateEngine(
            kb,
            config=FULL_CONFIG,
            estimator=ComplexityEstimator(kb, FrequencyProminence(kb)),
        )
        for entity in sorted(kb.entities(), key=lambda t: t.sort_key())[:3]:
            expected = subgraph_expressions(kb, entity, FULL_CONFIG)
            assert engine.common([entity]) == expected


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_engine_fills_phase_counters(backend):
    """enumerated / intersected_out / scored add up and reach stats."""
    rng = random.Random(3)
    kb = _random_kb(rng, backend)
    engine = CandidateEngine(
        kb,
        config=FULL_CONFIG,
        estimator=ComplexityEstimator(kb, FrequencyProminence(kb)),
    )
    entities = sorted(kb.entities(), key=lambda t: t.sort_key())
    stats = SearchStats()
    queue = engine.candidates(entities[:2], stats)
    assert stats.enumerated >= stats.scored == len(queue) == stats.candidates
    assert stats.intersected_out == stats.enumerated - stats.scored
    assert stats.enumerate_seconds >= 0 and stats.complexity_seconds >= 0


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_queue_scorer_matches_estimator(backend):
    """The standalone QueueScorer.score() entry point (which encodes SEs
    itself via _plan) is bit-identical to per-SE estimator.complexity."""
    from repro.complexity.batch import QueueScorer

    scored = 0
    for seed in range(0, N_KBS, 5):
        rng = random.Random(500 + seed)
        kb = _random_kb(rng, backend)
        ses = sorted(
            {
                se
                for entity in sorted(kb.entities(), key=lambda t: t.sort_key())[:4]
                for se in subgraph_expressions(kb, entity, FULL_CONFIG)
            },
            key=lambda se: se.sort_key(),
        )
        scorer = QueueScorer(ComplexityEstimator(kb, FrequencyProminence(kb)))
        reference = ComplexityEstimator(kb, FrequencyProminence(kb))
        assert scorer.id_mode == (backend is InternedKnowledgeBase)
        for se, bits in zip(ses, scorer.score(ses)):
            assert bits == reference.complexity(se), f"seed={seed} se={se!r}"
            scored += 1
    assert scored > 300


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_engine_rejects_empty_targets(backend):
    kb = _random_kb(random.Random(1), backend)
    engine = CandidateEngine(kb, config=FULL_CONFIG)
    with pytest.raises(ValueError):
        engine.candidates([])


def test_engine_unknown_target_yields_empty_queue():
    """A never-interned target can satisfy nothing (both positions)."""
    kb = InternedKnowledgeBase([Triple(EX.a, EX.p, EX.o), Triple(EX.b, EX.p, EX.o)])
    engine = CandidateEngine(kb, config=FULL_CONFIG)
    assert engine.candidates([EX.ghost]) == []
    assert engine.candidates([EX.a, EX.ghost]) == []


def test_kernel_equals_set_path_with_custom_prominence():
    """Custom prominence models (overriding predicate/entity scoring)
    must force the decode-free rank builders onto the per-term fallback:
    the kernel queue stays bit-identical to the Term-space reference
    (``common_subgraph_expressions`` + per-SE Ĉ under the same model)
    even when scores are NOT the backend's fact counts."""
    from repro.extensions.exogenous import ExogenousProminence

    rng = random.Random(99)
    checked = 0
    for seed in range(10):
        rng.seed(seed)
        kb = _random_kb(rng, InternedKnowledgeBase)
        entities = sorted(kb.entities(), key=lambda t: t.sort_key())
        predicates = sorted(kb.predicates(), key=lambda t: t.sort_key())
        if not entities or not predicates:
            continue
        # Deliberately rank against fact-count order.
        prominence = ExogenousProminence(
            kb,
            entity_scores={e: float(i + 1) for i, e in enumerate(entities)},
            predicate_scores={p: float(len(predicates) - i) for i, p in enumerate(predicates)},
        )
        engine = CandidateEngine(
            kb, config=FULL_CONFIG, estimator=ComplexityEstimator(kb, prominence)
        )
        reference = ComplexityEstimator(kb, prominence)
        for targets in _target_sets(rng, kb):
            expected = _reference_queue(kb, targets, FULL_CONFIG, frozenset(), reference)
            actual = engine.candidates(list(targets))
            _assert_same_queue(actual, expected, f"seed={seed} targets={targets!r}")
            checked += len(actual)
    assert checked > 50
