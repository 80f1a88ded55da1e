"""Differential testing: bounded top-k queues are exact sorted prefixes.

The contract of the bounded best-first build (``MinerConfig.top_k``):

* the frontier a bounded build returns is **exactly** the first-k
  entries of the full sorted queue — same SEs, same Ĉ bits, same tie
  order — across both engine paths (the branch-and-bound mask kernel
  on interned KBs, the Term-space oracle's exact split on hash KBs) and
  all five shapes;
* inflating the deferred remainder (:meth:`CandidateQueue.extend_frontier`)
  reproduces the full queue, so mining results are identical whether the
  queue was bounded or not (the search streams extensions on demand);
* ``top_k=None`` (the default) takes the untouched exact path — the
  bit-identical differential reference;
* the knob travels per request through :class:`BatchMiner` and the
  service envelopes, and miners without the contract reject it.
"""

import random

import pytest

from repro.complexity.codes import ComplexityEstimator
from repro.complexity.ranking import FrequencyProminence
from repro.core.batch import BatchMiner, BatchRequest, request_from_payload
from repro.core.candidates import CandidateEngine
from repro.core.config import MinerConfig
from repro.core.parallel import PREMI
from repro.core.remi import REMI
from repro.core.results import SearchStats
from repro.expressions.subgraph import Shape
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.namespaces import EX
from repro.kb.store import KnowledgeBase
from repro.kb.terms import BlankNode, Literal
from repro.kb.triples import Triple
from repro.service.envelopes import EnvelopeError, parse_request
from repro.service.facade import MiningService
from repro.service.config import ServiceConfig

BACKENDS = [KnowledgeBase, InternedKnowledgeBase]
BACKEND_IDS = ["hash", "interned"]

N_KBS = 50

FULL_CONFIG = MinerConfig(
    prominent_object_cutoff=None,
    exclude_predicates=frozenset(),
)
PRUNED_CONFIG = MinerConfig(prominent_object_cutoff=0.2)


def _random_kb(rng: random.Random, backend):
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
    entities = sorted(kb.entities(), key=lambda t: t.sort_key())
    sets = []
    for size in (1, 2, 3):
        if len(entities) >= size:
            sets.append(rng.sample(entities, size))
    return sets


def _shape_zoo_kb(backend):
    """A deterministic KB whose two shared entities satisfy all five
    Table-1 shapes (tiny random KBs rarely produce a closed triple)."""
    triples = []
    for s in (EX["a"], EX["b"]):
        for p in (EX["p1"], EX["p2"], EX["p3"]):
            triples.append(Triple(s, p, EX["shared"]))  # closed 2 and 3
        triples.append(Triple(s, EX["hop"], EX["hub"]))  # path + star hub
    triples.append(Triple(EX["hub"], EX["q"], EX["t1"]))
    triples.append(Triple(EX["hub"], EX["r"], EX["t2"]))
    return backend(triples)


def _engine(kb, config) -> CandidateEngine:
    return CandidateEngine(
        kb,
        config=config,
        estimator=ComplexityEstimator(kb, FrequencyProminence(kb)),
    )


def _pairs(queue):
    return [(se, bits) for se, bits in queue]


# ----------------------------------------------------------------------
# queue-level: the frontier IS the sorted prefix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("config", [FULL_CONFIG, PRUNED_CONFIG], ids=["full", "pruned"])
@pytest.mark.parametrize("flavour", ["auto"])  # the path the backend selects
def test_bounded_queue_is_sorted_prefix(backend, config, flavour):
    """bounded(k) == full[:k] (ties included), and inflating restores full."""
    shapes_seen = set()
    checked = 0
    cases = [( _shape_zoo_kb(backend), [[EX["a"], EX["b"]]])]
    for seed in range(N_KBS):
        rng = random.Random(seed)
        kb = _random_kb(rng, backend)
        cases.append((kb, _target_sets(rng, kb)))
    for seed, (kb, target_sets) in enumerate(cases, start=-1):
        full_engine = _engine(kb, config)
        for targets in target_sets:
            full = _pairs(full_engine.candidates(list(targets), top_k=None))
            shapes_seen.update(se.shape for se, _ in full)
            for k in (1, 4, 16):
                stats = SearchStats()
                bounded_engine = _engine(kb, config)
                queue = bounded_engine.candidates(list(targets), stats, top_k=k)
                assert len(queue) == min(k, len(full)), (
                    f"seed={seed} k={k}: frontier size {len(queue)}"
                )
                assert _pairs(queue) == full[: len(queue)], (
                    f"seed={seed} targets={targets!r} k={k} ({flavour}): "
                    "frontier is not the sorted prefix"
                )
                extend = getattr(queue, "extend_frontier", None)
                if extend is not None:
                    extend()
                    assert queue.exhausted
                    assert extend() == 0  # one-shot
                    assert _pairs(queue) == full, (
                        f"seed={seed} k={k} ({flavour}): inflated queue != full"
                    )
                if len(full) > k:
                    assert stats.heap_peak == k
                checked += 1
    assert checked > 100
    # Every Table-1 shape crossed the bounded build at least once.
    assert shapes_seen == set(Shape)


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_top_k_none_takes_exact_path(backend):
    """The default is the untouched full build: no deferral, no counters."""
    rng = random.Random(11)
    kb = _random_kb(rng, backend)
    targets = _target_sets(rng, kb)[-1]
    stats = SearchStats()
    queue = _engine(kb, FULL_CONFIG).candidates(list(targets), stats, top_k=None)
    extend = getattr(queue, "extend_frontier", None)
    if extend is not None:  # kernel path returns a CandidateQueue either way
        assert queue.exhausted
        assert extend() == 0
    assert stats.families_pruned == 0
    assert stats.bound_probes == 0
    assert stats.heap_peak == 0
    assert stats.queue_extensions == 0


def test_bound_pruning_actually_fires():
    """On the kernel path the branch-and-bound must skip scoring work —
    otherwise the whole tentpole is a no-op wearing a heap."""
    rng = random.Random(3)
    entities = [EX[f"e{i}"] for i in range(30)]
    predicates = [EX[f"p{i}"] for i in range(6)]
    kb = InternedKnowledgeBase()
    for _ in range(400):
        kb.add(Triple(rng.choice(entities), rng.choice(predicates), rng.choice(entities)))
    # Subjects of a common (p, o) pair share plenty of structure.
    by_po = {}
    for triple in kb.triples():
        by_po.setdefault((triple.predicate, triple.object), set()).add(triple.subject)
    targets = sorted(
        max(by_po.values(), key=len), key=lambda t: t.sort_key()
    )[:3]
    full_stats = SearchStats()
    _engine(kb, FULL_CONFIG).candidates(list(targets), full_stats, top_k=None)
    assert full_stats.candidates > 16
    stats = SearchStats()
    _engine(kb, FULL_CONFIG).candidates(list(targets), stats, top_k=4)
    assert stats.bound_probes > 0
    assert stats.families_pruned > 0
    assert stats.scored < full_stats.scored  # deferred members stayed unscored


# ----------------------------------------------------------------------
# mine-level: identical results, streamed extensions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
@pytest.mark.parametrize("miner_class", [REMI, PREMI], ids=["remi", "premi"])
def test_bounded_mine_identical(backend, miner_class):
    """mine() with tiny top_k returns exactly the full-queue answer."""
    compared = 0
    extensions = 0
    for seed in range(12):
        rng = random.Random(100 + seed)
        kb = _random_kb(rng, backend)
        reference = REMI(kb, config=MinerConfig())
        bounded = miner_class(kb, config=MinerConfig(top_k=2, num_threads=2))
        for targets in _target_sets(rng, kb):
            expected = reference.mine(targets)
            actual = bounded.mine(targets)
            assert actual.found == expected.found, f"seed={seed} targets={targets!r}"
            assert actual.complexity == expected.complexity
            if expected.found:
                assert repr(actual.expression) == repr(expected.expression)
            extensions += actual.stats.queue_extensions
            compared += 1
    assert compared > 20
    # k=2 frontiers are routinely exhausted: the search must have streamed.
    assert extensions > 0


def test_bounded_mine_no_solution_case():
    """A target pair with no common SE: both modes agree on 'not found'
    even though the no-solution check needs the (empty) full queue."""
    kb = InternedKnowledgeBase(
        [
            Triple(EX["a"], EX["p"], EX["x"]),
            Triple(EX["b"], EX["q"], EX["y"]),
        ]
    )
    targets = [EX["a"], EX["b"]]
    full = REMI(kb, config=MinerConfig()).mine(targets)
    bounded = REMI(kb, config=MinerConfig(top_k=1)).mine(targets)
    assert not full.found and not bounded.found
    assert bounded.complexity == full.complexity


def test_mine_accepts_per_call_top_k_override():
    """mine(top_k=...) overrides the config for that one call."""
    rng = random.Random(7)
    kb = _random_kb(rng, InternedKnowledgeBase)
    targets = _target_sets(rng, kb)[0]
    miner = REMI(kb, config=MinerConfig())
    expected = miner.mine(targets)
    actual = miner.mine(targets, top_k=2)
    assert actual.found == expected.found
    assert actual.complexity == expected.complexity


# ----------------------------------------------------------------------
# wire-level: the knob travels per request
# ----------------------------------------------------------------------


def _shared_structure_kb():
    return InternedKnowledgeBase(
        [
            Triple(EX["a"], EX["p"], EX["hub"]),
            Triple(EX["b"], EX["p"], EX["hub"]),
            Triple(EX["hub"], EX["q"], EX["tail"]),
            Triple(EX["a"], EX["r"], EX["o1"]),
            Triple(EX["b"], EX["r"], EX["o1"]),
        ]
    )


def test_batch_request_top_k_round_trip():
    request = request_from_payload(
        {"id": "r1", "targets": [str(EX["a"])], "top_k": 8}, 1
    )
    assert request.top_k == 8
    assert request_from_payload([str(EX["a"])], 2).top_k is None
    from repro.core.batch import BatchRequestError

    with pytest.raises(BatchRequestError):
        request_from_payload({"targets": [str(EX["a"])], "top_k": 0}, 3)
    with pytest.raises(BatchRequestError):
        request_from_payload({"targets": [str(EX["a"])], "top_k": True}, 4)


def test_batch_miner_honours_per_request_top_k():
    kb = _shared_structure_kb()
    miner = BatchMiner(kb)
    targets = (EX["a"], EX["b"])
    plain = miner.mine_one(BatchRequest(id="full", targets=targets))
    bounded = miner.mine_one(BatchRequest(id="k1", targets=targets, top_k=1))
    assert plain.error is None and bounded.error is None
    assert bounded.result.found == plain.result.found
    assert bounded.result.complexity == plain.result.complexity


def test_batch_miner_rejects_top_k_for_baselines():
    kb = _shared_structure_kb()
    miner = BatchMiner(kb, miner="full-brevity")
    outcome = miner.mine_one(
        BatchRequest(id="k1", targets=(EX["a"], EX["b"]), top_k=4)
    )
    assert outcome.error is not None
    assert "does not support top_k" in outcome.error
    # Without the knob the baseline still answers.
    assert miner.mine_one(BatchRequest(id="ok", targets=(EX["a"], EX["b"]))).error is None


def test_envelope_top_k_parsing():
    payload = {"type": "mine", "targets": [str(EX["a"])], "top_k": 16}
    assert parse_request(payload).top_k == 16
    describe = {"type": "describe", "targets": [str(EX["a"])], "top_k": 4}
    assert parse_request(describe).top_k == 4
    assert parse_request({"type": "mine", "targets": [str(EX["a"])]}).top_k is None
    for bad in (0, -3, 1.5, "8", True):
        with pytest.raises(EnvelopeError):
            parse_request({"type": "mine", "targets": [str(EX["a"])], "top_k": bad})


def test_service_mine_with_top_k_matches_full():
    kb = _shared_structure_kb()
    service = MiningService(kb, ServiceConfig())
    targets = [str(EX["a"]), str(EX["b"])]
    full = service.handle_json({"type": "mine", "id": "f", "targets": targets})
    bounded = service.handle_json(
        {"type": "mine", "id": "b", "targets": targets, "top_k": 1}
    )
    assert full["ok"] and bounded["ok"]
    assert bounded["result"]["found"] == full["result"]["found"]
    if full["result"]["found"]:
        assert bounded["result"]["expression"] == full["result"]["expression"]
        assert (
            bounded["result"]["complexity_bits"] == full["result"]["complexity_bits"]
        )


def test_service_config_top_k_shorthand():
    config = ServiceConfig.from_json({"top_k": 32})
    assert config.miner_config.top_k == 32
    assert ServiceConfig.from_json({}).miner_config.top_k is None
