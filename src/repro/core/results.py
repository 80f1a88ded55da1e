"""Result and instrumentation records for the miners.

:class:`SearchStats` is the mutable per-run instrumentation the miners
fill in; it backs the Figure-1 search-space bench (node/pruning accounting)
and the §4.2.2 phase-split experiment (queue-build vs search time).

:class:`MiningResult` is what :meth:`repro.core.remi.REMI.mine` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.expressions.expression import Expression


@dataclass
class SearchStats:
    """Counters and phase timings for one mining run."""

    candidates: int = 0
    #: Queue-build phase counters, filled by the candidate engine:
    #: expressions enumerated from the seed target, candidates dropped by
    #: the cross-target intersection, and survivors handed to Ĉ scoring.
    enumerated: int = 0
    intersected_out: int = 0
    scored: int = 0
    #: Time inside the cross-target intersection alone — a *sub-timing* of
    #: ``enumerate_seconds`` (which covers Alg. 1 line 1 end to end), split
    #: out so the kernel-vs-set benchmark can report the phases separately.
    intersect_seconds: float = 0.0
    nodes_visited: int = 0
    re_tests: int = 0
    solutions_seen: int = 0
    depth_prunes: int = 0
    side_prunes: int = 0
    bound_prunes: int = 0
    roots_explored: int = 0
    roots_skipped: int = 0
    timed_out: bool = False
    #: Bounded top-k counters (zero in exact full-queue mode): whole
    #: candidate families discarded on their admissible lower bound alone,
    #: family bounds probed, the widest the incumbent frontier ever got,
    #: and how many times the search pulled a deferred queue extension.
    families_pruned: int = 0
    bound_probes: int = 0
    heap_peak: int = 0
    queue_extensions: int = 0
    enumerate_seconds: float = 0.0
    complexity_seconds: float = 0.0
    sort_seconds: float = 0.0
    search_seconds: float = 0.0
    total_seconds: float = 0.0
    peak_stack_depth: int = 0

    @property
    def queue_build_seconds(self) -> float:
        """Phase 1 of §3.5.2: enumerating, scoring and sorting the queue."""
        return self.enumerate_seconds + self.complexity_seconds + self.sort_seconds

    @property
    def sort_share(self) -> float:
        """Fraction of total time spent sorting the queue (§4.2.2 statistic)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.sort_seconds / self.total_seconds

    @property
    def queue_build_share(self) -> float:
        """Fraction of total time spent building the queue (phase 1)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.queue_build_seconds / self.total_seconds

    @property
    def sort_share_of_build(self) -> float:
        """Sort time as a fraction of the queue-build phase alone.

        Empty-queue and fully-pruned bounded runs legitimately record a
        zero (or timer-resolution) build phase, so the ratio guards the
        denominator instead of assuming phase 1 took measurable time.
        """
        build = self.queue_build_seconds
        if build <= 0:
            return 0.0
        return self.sort_seconds / build

    def to_json(self) -> Dict:
        """Every counter and timing as a JSON-serializable dict.

        The wire form of server telemetry: one key per dataclass field
        (timings rounded to µs so records are stable across dumps), and
        :meth:`from_json` restores an equal instance — round-trip pinned
        by ``tests/core/test_results.py``.
        """
        record: Dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            record[spec.name] = round(value, 6) if isinstance(value, float) else value
        return record

    @classmethod
    def from_json(cls, record: Dict) -> "SearchStats":
        """Rebuild from :meth:`to_json` output (unknown keys rejected)."""
        names = {spec.name for spec in fields(cls)}
        unknown = set(record) - names
        if unknown:
            raise ValueError(f"unknown SearchStats fields: {sorted(unknown)}")
        return cls(**record)

    def accumulate(self, other: "SearchStats", *, queue_phases: bool = True) -> None:
        """Fold *other* into this record — THE aggregation method.

        Two callers exist, distinguished by ``queue_phases``:

        * ``True`` (default) — fold a whole run into a serving-lifetime
          total (what :meth:`repro.core.batch.BatchMiner.summary` reports
          across requests): every counter and phase timing sums;
          ``timed_out`` ORs and ``peak_stack_depth`` takes the max.
        * ``False`` — fold a worker thread's local stats into its parent
          run (P-REMI's fan-out): the queue-build counters and timings
          (``candidates``/``enumerated``/``intersected_out``/``scored``
          and all ``*_seconds``) already belong to the parent, which
          built the one shared queue, so only the search-side counters
          sum.

        The legacy :meth:`merge` spelling of the ``False`` case remains
        as a deprecated alias.
        """
        self.nodes_visited += other.nodes_visited
        self.re_tests += other.re_tests
        self.solutions_seen += other.solutions_seen
        self.depth_prunes += other.depth_prunes
        self.side_prunes += other.side_prunes
        self.bound_prunes += other.bound_prunes
        self.roots_explored += other.roots_explored
        self.roots_skipped += other.roots_skipped
        self.timed_out = self.timed_out or other.timed_out
        self.peak_stack_depth = max(self.peak_stack_depth, other.peak_stack_depth)
        # queue_extensions is search-side (a worker thread can trigger the
        # deferred inflate), so it sums in both folds.
        self.queue_extensions += other.queue_extensions
        if not queue_phases:
            return
        self.candidates += other.candidates
        self.enumerated += other.enumerated
        self.intersected_out += other.intersected_out
        self.scored += other.scored
        self.families_pruned += other.families_pruned
        self.bound_probes += other.bound_probes
        self.heap_peak = max(self.heap_peak, other.heap_peak)
        self.enumerate_seconds += other.enumerate_seconds
        self.intersect_seconds += other.intersect_seconds
        self.complexity_seconds += other.complexity_seconds
        self.sort_seconds += other.sort_seconds
        self.search_seconds += other.search_seconds
        self.total_seconds += other.total_seconds


@dataclass
class MiningResult:
    """The outcome of mining one target set.

    ``expression is None`` means no referring expression exists for the
    targets in the KB (Algorithm 1 line 8) — or the run timed out before
    finding one (check ``stats.timed_out``).
    """

    targets: Tuple
    expression: Optional[Expression]
    complexity: float = math.inf
    stats: SearchStats = field(default_factory=SearchStats)
    #: All REs encountered during traversal (when collection was requested):
    #: the §4.1.2 baseline pool.
    encountered: List[Tuple[Expression, float]] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.expression is not None

    def __repr__(self) -> str:
        expr = repr(self.expression) if self.expression is not None else "∅"
        return (
            f"MiningResult(targets={len(self.targets)}, expression={expr}, "
            f"complexity={self.complexity:.2f} bits)"
        )
