"""The façade acceptance pin: `MiningService` responses bit-identical to
direct miner calls, across 50 seeded KBs × both backends.

The service must add NOTHING but the envelope: same expression repr,
same Ĉ bits, same verbalization, same update effects as calling
`REMI`/`BatchMiner` directly on the same triples.  Also covers the typed
envelope layer (parse/validate/round-trip) and `ServiceConfig`.
"""

import json
import random
import threading

import pytest

from repro.core.batch import BatchMiner
from repro.core.config import LanguageBias, MinerConfig
from repro.core.remi import REMI
from repro.core.results import SearchStats
from repro.expressions.verbalize import Verbalizer
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.namespaces import EX
from repro.kb.store import KnowledgeBase
from repro.kb.terms import BlankNode, Literal
from repro.kb.triples import Triple
from repro.registry import RegistryError
from repro.service import (
    DescribeRequest,
    MineRequest,
    MiningService,
    Response,
    ServiceConfig,
    StatsRequest,
    UpdateRequest,
    parse_request,
)
from repro.service.envelopes import EnvelopeError

BACKENDS = [KnowledgeBase, InternedKnowledgeBase]
BACKEND_IDS = ["hash", "interned"]

N_KBS = 50


def _random_kb(rng: random.Random, backend):
    entities = [EX[f"e{i}"] for i in range(rng.randint(4, 9))]
    predicates = [EX[f"p{i}"] for i in range(rng.randint(2, 4))]
    literals = [Literal("red"), Literal("42")]
    blanks = [BlankNode("b0")]
    subjects = entities + blanks
    objects = entities + literals + blanks
    triples = [
        Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        for _ in range(rng.randint(10, 32))
    ]
    return triples, entities, predicates, objects


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_mine_describe_update_bit_identical_to_direct_calls(backend):
    """The acceptance criterion: across 50 seeded KBs the envelope bodies
    equal direct `REMI`/`BatchMiner` outputs bit-for-bit, including after
    an interleaved update."""
    for seed in range(N_KBS):
        rng = random.Random(1000 + seed)
        triples, entities, predicates, objects = _random_kb(rng, backend)
        service = MiningService(backend(triples))
        direct_kb = backend(triples)
        direct = REMI(direct_kb)
        verbalizer = Verbalizer(direct_kb)

        present = sorted(direct_kb.entities(), key=lambda t: t.sort_key())
        targets = rng.sample(present, min(rng.choice((1, 1, 2, 3)), len(present)))
        target_strs = tuple(str(t) for t in targets)

        # mine -----------------------------------------------------------
        response = service.mine(MineRequest(id="m", targets=target_strs, verbalize=True))
        expected = direct.mine(targets)
        assert response.ok
        body = response.result
        assert body["found"] == expected.found
        if expected.found:
            assert body["expression"] == repr(expected.expression)
            assert body["complexity_bits"] == expected.complexity
            assert body["verbalized"] == verbalizer.expression(expected.expression)

        # describe -------------------------------------------------------
        described = service.describe(DescribeRequest(id="d", targets=target_strs))
        assert described.ok
        assert described.result.get("verbalized") == direct.describe(targets)

        # update + re-mine ----------------------------------------------
        fresh = Triple(rng.choice(entities), rng.choice(predicates), rng.choice(objects))
        update = service.update(
            # N-Triples syntax survives every term kind on the wire
            UpdateRequest(id="u", op="add", triple=tuple(p.n3() for p in fresh))
        )
        applied = direct_kb.add(fresh)
        assert update.ok
        assert update.result["applied"] == applied
        assert update.result["epoch"] == direct_kb.epoch

        after = service.mine(MineRequest(id="m2", targets=target_strs))
        expected_after = direct.mine(targets)
        assert after.ok
        assert after.result["found"] == expected_after.found
        if expected_after.found:
            assert after.result["expression"] == repr(expected_after.expression)
            assert after.result["complexity_bits"] == expected_after.complexity


@pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
def test_service_equals_batchminer_stream(backend, rennes_kb):
    """serve_jsonl through the façade is the untouched BatchMiner path."""
    triples = list(rennes_kb.triples())
    service = MiningService(backend(triples))
    direct = BatchMiner(backend(triples))
    lines = [
        json.dumps([str(EX.Rennes), str(EX.Nantes)]),
        json.dumps({"op": "add", "triple": [str(EX.Lyon), str(EX.p), str(EX.Nantes)]}),
        json.dumps({"id": "after", "targets": [str(EX.Lyon)]}),
    ]
    service_records = [o.to_json() for o in service.serve_jsonl(lines)]
    direct_records = [o.to_json() for o in direct.serve_jsonl(lines)]
    for ours, theirs in zip(service_records, direct_records):
        ours.pop("seconds", None), theirs.pop("seconds", None)
        if "stats" in ours:  # timings differ run to run; counters must not
            for timing in (
                "enumerate_seconds", "intersect_seconds", "complexity_seconds",
                "sort_seconds", "search_seconds", "total_seconds",
            ):
                ours["stats"].pop(timing), theirs["stats"].pop(timing)
        assert ours == theirs


class TestEnvelopes:
    def test_typed_mine_request_parses(self):
        request = parse_request(
            {"type": "mine", "id": "q", "targets": ["a"], "verbalize": True}
        )
        assert isinstance(request, MineRequest)
        assert request.verbalize and request.targets == ("a",)

    def test_legacy_forms_still_parse(self):
        assert isinstance(parse_request(["a", "b"]), MineRequest)
        assert isinstance(parse_request({"targets": ["a"]}), MineRequest)
        assert isinstance(
            parse_request({"op": "add", "triple": ["s", "p", "o"]}), UpdateRequest
        )

    def test_parse_errors_carry_line_context(self):
        with pytest.raises(EnvelopeError) as excinfo:
            parse_request({"type": "mine", "targets": []}, line=12)
        assert "line 12" in str(excinfo.value)

    @pytest.mark.parametrize(
        "payload",
        [
            "just a string",
            {"type": "unknown-kind", "targets": ["a"]},
            {"type": "mine"},
            {"type": "mine", "targets": ["a", 7]},
            {"type": "update", "op": "upsert", "triple": ["s", "p", "o"]},
            {"type": "update", "op": "add", "triple": ["s", "p"]},
        ],
    )
    def test_malformed_payloads_rejected(self, payload):
        with pytest.raises(EnvelopeError):
            parse_request(payload)

    def test_response_round_trip(self):
        request = MineRequest(id="q", targets=("a",))
        original = Response.success(request, {"found": False}, seconds=0.25)
        assert Response.from_json(original.to_json()) == original
        failure = Response.failure("q", "mine", "nope", "bad_request", line=3)
        restored = Response.from_json(failure.to_json())
        assert restored.error == "nope" and restored.line == 3

    def test_stats_round_trip(self):
        """Satellite pin: SearchStats → JSON → SearchStats is lossless."""
        stats = SearchStats(
            candidates=7, enumerated=20, intersected_out=3, scored=17,
            nodes_visited=11, re_tests=9, solutions_seen=2, depth_prunes=1,
            side_prunes=1, bound_prunes=4, roots_explored=5, roots_skipped=2,
            timed_out=True, enumerate_seconds=0.125, complexity_seconds=0.25,
            sort_seconds=0.0625, search_seconds=0.5, total_seconds=1.0,
            peak_stack_depth=3,
        )
        record = stats.to_json()
        json.dumps(record)  # must be serializable
        assert SearchStats.from_json(record) == stats

    def test_stats_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SearchStats.from_json({"candidates": 1, "bogus": 2})


class TestServiceConfig:
    def test_defaults_validate(self):
        config = ServiceConfig()
        assert config.backend == "interned" and config.miner == "remi"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"backend": "sqlite"},
            {"miner": "agile"},
            {"prominence": "degree"},
            {"estimator": "quantum"},
            {"workers": 0},
        ],
    )
    def test_bad_values_rejected_at_construction(self, overrides):
        with pytest.raises((RegistryError, ValueError)):
            ServiceConfig(**overrides)

    def test_unknown_key_error_lists_available(self):
        with pytest.raises(RegistryError) as excinfo:
            ServiceConfig(miner="agile")
        assert "'remi'" in str(excinfo.value) and "'premi'" in str(excinfo.value)

    def test_json_round_trip(self):
        config = ServiceConfig(
            backend="hash",
            miner="premi",
            workers=3,
            miner_config=MinerConfig(
                language=LanguageBias.STANDARD, timeout_seconds=1.5
            ),
        )
        assert ServiceConfig.from_json(config.to_json()) == config

    def test_from_json_shorthands(self):
        config = ServiceConfig.from_json(
            {"backend": "hash", "language": "standard", "timeout_seconds": 2.0}
        )
        assert config.miner_config.language is LanguageBias.STANDARD
        assert config.miner_config.timeout_seconds == 2.0

    def test_with_revalidates(self):
        config = ServiceConfig()
        assert config.with_(workers=4).workers == 4
        with pytest.raises(RegistryError):
            config.with_(miner="agile")


class TestFacadeErrors:
    def test_unknown_entity_is_uniform_error(self, rennes_kb):
        service = MiningService(rennes_kb)
        response = service.mine(MineRequest(id="q", targets=("http://nope/X",)))
        assert not response.ok
        record = response.to_json()
        assert record["error"]["code"] == "unknown_entity"
        assert "http://nope/X" in record["error"]["reason"]

    def test_bad_update_is_uniform_error(self, rennes_kb):
        service = MiningService(rennes_kb)
        response = service.update(
            UpdateRequest(id="u", op="add", triple=('"literal"', "p", "o"))
        )
        assert not response.ok and response.error_code == "bad_update"

    def test_handle_json_wraps_parse_failures(self, rennes_kb):
        service = MiningService(rennes_kb)
        record = service.handle_json({"type": "mine"}, line=4)
        assert record["ok"] is False
        assert record["error"]["line"] == 4

    def test_stats_reports_serving_and_config(self, rennes_kb):
        service = MiningService(rennes_kb, ServiceConfig(backend="hash"))
        service.mine(MineRequest(id="q", targets=(str(EX.Rennes),)))
        record = service.stats(StatsRequest(id="s")).to_json()
        serving = record["result"]["serving"]
        assert serving["requests_served"] == 1
        assert serving["search_stats"]["re_tests"] > 0
        assert record["result"]["config"]["backend"] == "hash"

    def test_stats_only_callers_never_build_the_mining_stack(self, rennes_kb):
        """`remi stats` must stay as cheap as kb.stats(): the prominence
        ranking / estimator / engine build lazily on first mining use."""
        service = MiningService(rennes_kb)
        record = service.stats(StatsRequest(id="s")).to_json()
        assert "serving" not in record["result"]  # nothing served yet
        assert record["result"]["kb"]["facts"] == len(rennes_kb)
        assert service._batch is None  # substrate never materialized
        service.mine(MineRequest(id="q", targets=(str(EX.Rennes),)))
        assert "serving" in service.stats(StatsRequest(id="s")).result

    def test_registry_supports_dict_style_lookup(self):
        from repro.kb.store import KnowledgeBase
        from repro.registry import KB_BACKENDS, RegistryError

        assert KB_BACKENDS["hash"] is KnowledgeBase  # the old BACKENDS[...] contract
        with pytest.raises(KeyError):
            KB_BACKENDS["sqlite"]


def test_update_waits_for_an_open_stats_scan(rennes_kb):
    """Regression: stats() scans the live KB while MVCC reads let the
    server run it beside an update, so the update must wait for the scan
    instead of mutating the KB mid-iteration."""
    kb = InternedKnowledgeBase(rennes_kb.triples())
    service = MiningService(kb)
    service.enable_snapshots()
    scanning, release, applied = threading.Event(), threading.Event(), threading.Event()
    live_stats = kb.stats

    def held_stats():
        scanning.set()
        assert release.wait(10)
        return live_stats()

    def add_lyon():
        triple = (str(EX.Lyon), str(EX.cityOf), str(EX.France))
        assert service.update(UpdateRequest(id="u", op="add", triple=triple)).ok
        applied.set()

    kb.stats = held_stats
    stats_thread = threading.Thread(target=service.stats, args=(StatsRequest(id="s"),))
    update_thread = threading.Thread(target=add_lyon)
    stats_thread.start()
    assert scanning.wait(10)
    epoch = kb.epoch
    update_thread.start()
    try:
        assert not applied.wait(0.3), "update ran during the stats scan"
        assert kb.epoch == epoch
    finally:
        release.set()
        stats_thread.join(10)
        update_thread.join(10)
    assert not stats_thread.is_alive() and not update_thread.is_alive()
    assert applied.is_set() and kb.epoch == epoch + 1
