"""Tests for the batch-mining API (many target sets, one shared substrate)."""

import json

import pytest

from repro.core.batch import (
    BatchMiner,
    BatchOutcome,
    BatchRequest,
    BatchRequestError,
    parse_request,
    parse_requests,
)
from repro.core.remi import REMI
from repro.expressions.verbalize import Verbalizer
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.namespaces import EX
from repro.kb.store import KnowledgeBase
from repro.kb.terms import IRI

BACKENDS = [KnowledgeBase, InternedKnowledgeBase]
BACKEND_IDS = ["hash", "interned"]


@pytest.fixture(params=BACKENDS, ids=BACKEND_IDS)
def kb(request, rennes_kb):
    if request.param is KnowledgeBase:
        return rennes_kb
    return InternedKnowledgeBase(rennes_kb.triples(), name=rennes_kb.name)


class TestParsing:
    def test_bare_list(self):
        request = parse_request('["http://example.org/a", "http://example.org/b"]', 3)
        assert request.id == "3"
        assert request.targets == (IRI("http://example.org/a"), IRI("http://example.org/b"))

    def test_object_with_id(self):
        request = parse_request('{"id": "req-1", "targets": ["http://example.org/a"]}', 9)
        assert request.id == "req-1"
        assert request.targets == (IRI("http://example.org/a"),)

    def test_object_without_id_gets_line_number(self):
        request = parse_request('{"targets": ["http://example.org/a"]}', 4)
        assert request.id == "4"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '"a scalar"',
            "{}",
            '{"targets": "not-a-list"}',
            '{"targets": [42]}',
            '{"targets": []}',
            "[]",
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(BatchRequestError):
            parse_request(line, 1)

    def test_parse_requests_skips_blanks_and_comments(self):
        lines = [
            "",
            "# a comment",
            '["http://example.org/a"]',
            "   ",
            '{"id": "x", "targets": ["http://example.org/b"]}',
        ]
        requests = list(parse_requests(lines))
        assert [r.id for r in requests] == ["3", "x"]


class TestBatchMiner:
    def test_matches_individual_remi_runs(self, kb):
        miner = BatchMiner(kb)
        target_sets = [[EX.Rennes, EX.Nantes], [EX.Lyon], [EX.Paris]]
        outcomes = miner.mine_many(target_sets)
        assert len(outcomes) == 3
        for targets, outcome in zip(target_sets, outcomes):
            reference = REMI(kb).mine(targets)
            assert outcome.found == reference.found
            if reference.found:
                assert outcome.result.expression == reference.expression
                assert outcome.result.complexity == pytest.approx(reference.complexity)

    def test_shared_state_is_reused_across_requests(self, kb):
        miner = BatchMiner(kb)
        miner.mine_many([[EX.Rennes, EX.Nantes]])
        prominence_before = miner.miner.prominence
        matcher_before = miner.miner.matcher
        hits_before = matcher_before.cache_stats["hits"]
        miner.mine_many([[EX.Rennes, EX.Nantes]])
        assert miner.miner.prominence is prominence_before
        assert miner.miner.matcher is matcher_before
        # the repeated request is answered from the shared matcher cache
        assert matcher_before.cache_stats["hits"] > hits_before
        assert miner.requests_served == 2

    def test_unknown_entity_becomes_error_outcome(self, kb):
        miner = BatchMiner(kb)
        outcomes = miner.mine_many(
            [BatchRequest(id="bad", targets=(EX.Rennes, EX.Nowhere))]
        )
        assert outcomes[0].error is not None
        assert "Nowhere" in outcomes[0].error
        assert not outcomes[0].found
        assert miner.errors == 1

    def test_empty_targets_becomes_error_outcome(self, kb):
        miner = BatchMiner(kb)
        outcome = miner.mine_one(BatchRequest(id="empty", targets=()))
        assert outcome.error == "empty target set"

    def test_workers_preserve_order_and_results(self, kb):
        sequential = BatchMiner(kb, workers=1)
        threaded = BatchMiner(kb, workers=4)
        target_sets = [[EX.Rennes], [EX.Nantes], [EX.Lyon], [EX.Rennes, EX.Nantes]]
        seq_outcomes = sequential.mine_many(target_sets)
        par_outcomes = threaded.mine_many(target_sets)
        for seq, par in zip(seq_outcomes, par_outcomes):
            assert seq.request.targets == par.request.targets
            assert seq.found == par.found
            if seq.found:
                assert seq.result.complexity == pytest.approx(par.result.complexity)

    def test_invalid_workers_rejected(self, kb):
        with pytest.raises(ValueError):
            BatchMiner(kb, workers=0)

    def test_warm_up(self, kb):
        miner = BatchMiner(kb)
        miner.warm_up()
        assert miner.miner._prominent is not None

    def test_parallel_flag_uses_premi(self, kb):
        from repro.core.parallel import PREMI

        miner = BatchMiner(kb, miner="premi")
        assert isinstance(miner.miner, PREMI)
        outcome = miner.mine_many([[EX.Rennes, EX.Nantes]])[0]
        assert outcome.found


class TestJsonl:
    def test_jsonl_roundtrip_preserves_order_with_errors(self, kb):
        lines = [
            json.dumps([str(EX.Rennes), str(EX.Nantes)]),
            "this is not JSON",
            "# comment",
            json.dumps({"id": "solo", "targets": [str(EX.Lyon)]}),
            json.dumps({"targets": []}),
        ]
        miner = BatchMiner(kb)
        outcomes = miner.mine_jsonl(lines)
        assert len(outcomes) == 4  # comment dropped, one record per line
        assert outcomes[0].found
        assert outcomes[1].error is not None and "line 2" in outcomes[1].error
        assert outcomes[2].request.id == "solo"
        assert outcomes[3].error is not None

    def test_to_json_success_record(self, kb):
        miner = BatchMiner(kb)
        outcome = miner.mine_many([[EX.Rennes, EX.Nantes]])[0]
        record = outcome.to_json(Verbalizer(kb))
        assert record["found"] is True
        assert record["complexity_bits"] > 0
        assert "expression" in record and "verbalized" in record
        assert record["stats"]["re_tests"] > 0
        json.dumps(record)  # must be serializable

    def test_to_json_error_record_is_structured(self, kb):
        outcome = BatchOutcome(
            request=BatchRequest(id="x", targets=(EX.a,)), error="boom", line=7
        )
        assert outcome.to_json() == {
            "id": "x",
            "targets": [str(EX.a)],
            "error": {"code": "bad_request", "reason": "boom", "line": 7},
        }

    def test_error_record_line_omitted_outside_streams(self, kb):
        outcome = BatchOutcome(
            request=BatchRequest(id="x", targets=(EX.a,)), error="boom"
        )
        assert outcome.to_json()["error"] == {"code": "bad_request", "reason": "boom"}

    def test_malformed_lines_mid_stream_carry_line_numbers(self, kb):
        """Satellite pin: parse failures become structured per-line error
        records (line number + reason) instead of raising out of the
        stream, and later lines are still served."""
        lines = [
            json.dumps([str(EX.Rennes)]),
            "{broken json",
            json.dumps({"no": "targets"}),
            json.dumps({"op": "upsert", "triple": ["a", "b", "c"]}),
            json.dumps([str(EX.Nantes)]),
        ]
        miner = BatchMiner(kb)
        records = [o.to_json() for o in miner.serve_jsonl(lines)]
        assert len(records) == 5
        assert "error" not in records[0] and "error" not in records[4]
        for position, (record, code) in enumerate(
            zip(records[1:4], ("bad_request", "bad_request", "bad_update")), start=2
        ):
            assert record["error"]["line"] == position
            assert record["error"]["code"] == code
            assert isinstance(record["error"]["reason"], str)
        assert records[4]["found"] is not None  # stream kept serving

    def test_summary(self, kb):
        miner = BatchMiner(kb)
        miner.mine_jsonl([json.dumps([str(EX.Rennes)])])
        summary = miner.summary()
        assert summary["requests_served"] == 1
        assert summary["errors"] == 0
        assert summary["backend"] == type(kb).__name__
        assert "matcher_cache" in summary
