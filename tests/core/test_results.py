"""SearchStats / MiningResult record tests."""

import math

import pytest

from repro.core.results import MiningResult, SearchStats
from repro.expressions.expression import Expression
from repro.expressions.subgraph import SubgraphExpression
from repro.kb.namespaces import EX


class TestSearchStats:
    def test_defaults(self):
        stats = SearchStats()
        assert stats.nodes_visited == 0
        assert not stats.timed_out
        assert stats.sort_share == 0.0

    def test_queue_build_seconds(self):
        stats = SearchStats(
            enumerate_seconds=1.0, complexity_seconds=2.0, sort_seconds=0.5
        )
        assert stats.queue_build_seconds == 3.5

    def test_sort_share(self):
        stats = SearchStats(sort_seconds=1.0, total_seconds=10.0)
        assert stats.sort_share == 0.1

    def test_phase_ratios_guard_degenerate_denominators(self):
        """Empty-queue and fully-pruned bounded runs legitimately record
        zero (or even negative timer-resolution) phase durations — every
        ratio must answer 0.0 instead of dividing by it."""
        zero = SearchStats()
        assert zero.sort_share == 0.0
        assert zero.queue_build_share == 0.0
        assert zero.sort_share_of_build == 0.0
        # Sort time recorded but no total: still no division.
        sort_only = SearchStats(sort_seconds=0.5)
        assert sort_only.sort_share == 0.0
        assert sort_only.sort_share_of_build == 1.0  # build == sort here
        # A clock that went backwards (negative resolution artefact).
        backwards = SearchStats(enumerate_seconds=-1e-9, total_seconds=-1e-9)
        assert backwards.queue_build_share == 0.0
        assert backwards.sort_share_of_build == 0.0

    def test_phase_ratios_normal_case(self):
        stats = SearchStats(
            enumerate_seconds=1.0, complexity_seconds=2.0, sort_seconds=1.0,
            total_seconds=8.0,
        )
        assert stats.queue_build_share == 0.5
        assert stats.sort_share_of_build == 0.25

    def test_accumulate_bounded_counters(self):
        """families_pruned/bound_probes sum as queue-phase counters,
        heap_peak maxes (widest frontier ever), and queue_extensions —
        a search-side counter — sums in BOTH folds."""
        total = SearchStats()
        total.accumulate(
            SearchStats(families_pruned=3, bound_probes=10, heap_peak=64,
                        queue_extensions=1)
        )
        total.accumulate(
            SearchStats(families_pruned=2, bound_probes=5, heap_peak=32,
                        queue_extensions=2)
        )
        assert total.families_pruned == 5
        assert total.bound_probes == 15
        assert total.heap_peak == 64
        assert total.queue_extensions == 3
        total.accumulate(
            SearchStats(
                families_pruned=99, bound_probes=99, heap_peak=999,
                queue_extensions=4,
            ),
            queue_phases=False,
        )
        # Queue-build counters stay with the parent; the streamed
        # extension count still folds in from the worker.
        assert total.families_pruned == 5
        assert total.bound_probes == 15
        assert total.heap_peak == 64
        assert total.queue_extensions == 7

    def test_merge_accumulates(self):
        a = SearchStats(nodes_visited=3, re_tests=5, peak_stack_depth=2)
        b = SearchStats(nodes_visited=4, re_tests=1, timed_out=True, peak_stack_depth=5)
        a.accumulate(b, queue_phases=False)
        assert a.nodes_visited == 7
        assert a.re_tests == 6
        assert a.timed_out
        assert a.peak_stack_depth == 5

    def test_worker_fold_keeps_queue_phases_with_parent(self):
        """accumulate(queue_phases=False) — the worker-thread fold — must
        leave the parent's queue-build counters and timings untouched
        (they describe the one shared queue, not the workers)."""
        parent = SearchStats(
            candidates=7, enumerated=11, intersected_out=3, scored=7,
            enumerate_seconds=0.5, intersect_seconds=0.1,
            complexity_seconds=0.25, sort_seconds=0.125,
        )
        worker = SearchStats(
            nodes_visited=9, re_tests=4, candidates=999, enumerated=999,
            enumerate_seconds=99.0, intersect_seconds=99.0, total_seconds=99.0,
        )
        parent.accumulate(worker, queue_phases=False)
        assert parent.nodes_visited == 9 and parent.re_tests == 4
        assert parent.candidates == 7 and parent.enumerated == 11
        assert parent.enumerate_seconds == 0.5
        assert parent.intersect_seconds == 0.1
        assert parent.total_seconds == 0.0

    def test_lifetime_fold_sums_everything(self):
        """The serving-summary fold (the default) sums every counter AND
        every phase timing — the `--summary` totals regression guard."""
        runs = [
            SearchStats(
                candidates=3, enumerated=10, intersected_out=2, scored=3,
                nodes_visited=5, re_tests=2, enumerate_seconds=0.5,
                intersect_seconds=0.25, complexity_seconds=0.125,
                sort_seconds=0.0625, search_seconds=1.0, total_seconds=2.0,
            ),
            SearchStats(
                candidates=4, enumerated=20, intersected_out=8, scored=4,
                nodes_visited=7, re_tests=1, enumerate_seconds=0.25,
                intersect_seconds=0.125, complexity_seconds=0.0625,
                sort_seconds=0.03125, search_seconds=0.5, total_seconds=1.0,
                timed_out=True, peak_stack_depth=4,
            ),
        ]
        total = SearchStats()
        for run in runs:
            total.accumulate(run)
        assert total.candidates == 7 and total.enumerated == 30
        assert total.intersected_out == 10 and total.scored == 7
        assert total.nodes_visited == 12 and total.re_tests == 3
        assert total.enumerate_seconds == 0.75
        assert total.intersect_seconds == 0.375
        assert total.complexity_seconds == 0.1875
        assert total.sort_seconds == 0.09375
        assert total.search_seconds == 1.5 and total.total_seconds == 3.0
        assert total.timed_out and total.peak_stack_depth == 4


class TestMiningResult:
    def test_found(self):
        expression = Expression.of(SubgraphExpression.single_atom(EX.p, EX.o))
        result = MiningResult(targets=(EX.a,), expression=expression, complexity=2.0)
        assert result.found

    def test_not_found(self):
        result = MiningResult(targets=(EX.a,), expression=None)
        assert not result.found
        assert result.complexity == math.inf

    def test_repr_compact(self):
        result = MiningResult(targets=(EX.a,), expression=None)
        assert "∅" in repr(result)


class TestStatsJson:
    def test_round_trip_preserves_every_field(self):
        stats = SearchStats(
            candidates=4, enumerated=9, intersected_out=2, scored=7,
            nodes_visited=11, re_tests=6, solutions_seen=1, bound_prunes=3,
            roots_explored=2, timed_out=True, total_seconds=0.5,
            peak_stack_depth=4,
        )
        assert SearchStats.from_json(stats.to_json()) == stats

    def test_to_json_rounds_timings_stably(self):
        stats = SearchStats(total_seconds=0.123456789)
        assert stats.to_json()["total_seconds"] == 0.123457

    def test_from_json_rejects_unknown_fields(self):
        import pytest

        with pytest.raises(ValueError):
            SearchStats.from_json({"warp_factor": 9})

    def test_accumulate_sums_queue_build_counters_too(self):
        total = SearchStats()
        total.accumulate(SearchStats(candidates=3, re_tests=2, enumerate_seconds=0.5))
        total.accumulate(SearchStats(candidates=4, re_tests=1, enumerate_seconds=0.25))
        assert total.candidates == 7
        assert total.re_tests == 3
        assert total.enumerate_seconds == 0.75
