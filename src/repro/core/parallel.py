"""P-REMI: the parallel miner (Algorithm 3, §3.4).

Worker threads concurrently dequeue root subgraph expressions from the
shared priority queue and explore the subtrees rooted at them.  Three
departures from the sequential logic, exactly as §3.4 prescribes:

1. the least complex solution ``e`` is shared: reads and writes go through
   a lock;
2. a thread that exhausts the subtree of root ``ρᵢ`` *without finding any
   solution* signals workers on roots ``ρⱼ`` (j > i) to stop — their
   subtrees cover only less specific expressions (Alg. 1 line 8 logic,
   parallelized);
3. before each RE test a worker re-checks the shared bound and backtracks
   while the current conjunction is no cheaper than ``e``
   (P-DFS-REMI lines 6-7).

Queue *construction* is not parallelized, although §3.5.2 says "we
parallelized the construction and sorting of the queue": P-REMI builds
its queue with the same :class:`~repro.core.candidates.CandidateEngine`
as REMI.  Under the GIL a thread fan-out of Ĉ scoring cannot run in
parallel, and on the ID-space path scoring is already int-dict table
lookups, so there is no queue-scoring fan-out.

A note on expectations: CPython's GIL serializes pure-Python bytecode, so
wall-clock speed-ups here can only come from work-sharing (early shared
bounds and stop signals), not from hardware parallelism.  The paper
itself observes speed-ups from 0.003× to 197× depending on search-space
size.  Ours are below 1: the committed Table 4 records
(``benchmarks/results/table4_*.txt``) have put P-REMI at 0.31–0.82× the
speed of REMI.
"""

from __future__ import annotations

import math
import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro.core.candidates import _UNSET
from repro.core.remi import REMI, _Search
from repro.core.results import MiningResult, SearchStats
from repro.expressions.expression import Expression
from repro.kb.terms import Term


class _SharedState:
    """The cross-thread best solution and stop signal."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.best: Optional[Expression] = None
        self.best_c: float = math.inf
        #: Roots with index ≥ this value are superfluous (difference 2).
        self.stop_after_root: float = math.inf

    def offer(self, expression: Expression, complexity: float) -> None:
        with self.lock:
            if complexity < self.best_c:
                self.best, self.best_c = expression, complexity

    def bound(self) -> float:
        with self.lock:
            return self.best_c

    def signal_no_solution(self, root_index: int) -> None:
        with self.lock:
            self.stop_after_root = min(self.stop_after_root, root_index)

    def should_skip(self, root_index: int) -> bool:
        with self.lock:
            return root_index > self.stop_after_root


class _ParallelSearch(_Search):
    """A per-thread search that consults the shared state (Alg. 3)."""

    def __init__(self, shared: _SharedState, **kwargs) -> None:
        super().__init__(**kwargs)
        self.shared = shared

    @property
    def best_c(self) -> float:  # type: ignore[override]
        # The pruning bound is the *global* best (P-DFS-REMI line 6).
        return min(self._local_best_c, self.shared.bound())

    @best_c.setter
    def best_c(self, value: float) -> None:
        self._local_best_c = value

    def _test(self, expression: Expression, complexity: float) -> bool:
        found = super()._test(expression, complexity)
        if found:
            self.shared.offer(expression, complexity)
        return found


class PREMI(REMI):
    """The multi-threaded miner.  Same interface as :class:`REMI`.

    Queue construction is REMI's own :class:`~repro.core.candidates.CandidateEngine`,
    so the two miners can never build different queues; only the search
    runs on ``config.num_threads`` threads.
    """

    def mine(
        self,
        targets: Sequence[Term],
        collect_encountered: bool = False,
        top_k=_UNSET,
    ) -> MiningResult:
        target_set = frozenset(targets)
        if not target_set:
            raise ValueError("need at least one target entity")
        stats = SearchStats()
        started = time.perf_counter()
        deadline = (
            started + self.config.timeout_seconds
            if self.config.timeout_seconds is not None
            else None
        )
        queue = self.candidates(targets, stats, top_k=top_k)
        search_start = time.perf_counter()
        shared = _SharedState()
        next_root = [0]
        next_root_lock = threading.Lock()
        extend_queue = getattr(queue, "extend_frontier", None)
        bound_pruning = self.config.bound_pruning

        def take_root() -> Optional[int]:
            """Claim the next root index, inflating a bounded queue when
            the frontier is spent.  Extension is skipped once the last
            frontier root already fails the shared bound — the deferred
            remainder sorts after it, so every deferred root would fail
            too (the dispenser-level twin of Alg. 1's bound break)."""
            with next_root_lock:
                index = next_root[0]
                if index >= len(queue):
                    if extend_queue is None:
                        return None
                    if (
                        bound_pruning
                        and len(queue)
                        and queue[len(queue) - 1][1] >= shared.bound()
                    ):
                        return None
                    if not extend_queue():
                        return None
                    stats.queue_extensions += 1
                next_root[0] = index + 1
                return index

        thread_stats: List[SearchStats] = []
        encountered: List[Tuple[Expression, float]] = []
        encountered_lock = threading.Lock()
        no_solution_anywhere = threading.Event()

        def worker() -> None:
            local_stats = SearchStats()
            search = _ParallelSearch(
                shared=shared,
                miner=self,
                queue=queue,
                targets=target_set,
                stats=local_stats,
                deadline=deadline,
                collect=collect_encountered,
            )
            while True:
                root_index = take_root()
                if root_index is None:
                    break
                if shared.should_skip(root_index):
                    local_stats.roots_skipped += 1
                    continue
                root, root_c = queue[root_index]
                if self.config.bound_pruning and root_c >= shared.bound():
                    local_stats.roots_skipped += 1
                    local_stats.bound_prunes += 1
                    continue
                local_stats.roots_explored += 1
                bound_prunes_before = local_stats.bound_prunes
                found_any = search._dfs(
                    prefix=(root,),
                    prefix_c=root_c,
                    rest=queue,
                    start=root_index + 1,
                    depth=1,
                    tested_prefix=False,
                )
                subtree_exhausted = (
                    local_stats.bound_prunes == bound_prunes_before
                    and not local_stats.timed_out
                )
                if not found_any and subtree_exhausted:
                    # Difference 2: the subtree was FULLY explored (no
                    # complexity-bound cut) and holds no RE, so any root
                    # ρⱼ (j > i) covers only less specific expressions and
                    # is superfluous.  A bound-pruned subtree must NOT
                    # signal — the cut branches could contain REs cheaper
                    # than roots still waiting in the queue.
                    shared.signal_no_solution(root_index)
                    if root_index == 0 and shared.bound() == math.inf:
                        no_solution_anywhere.set()
                if local_stats.timed_out:
                    break
            with encountered_lock:
                thread_stats.append(local_stats)
                encountered.extend(search.encountered)

        workers = max(1, self.config.num_threads)
        threads = [threading.Thread(target=worker, name=f"p-remi-{i}") for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for local in thread_stats:
            stats.accumulate(local, queue_phases=False)
        stats.search_seconds = time.perf_counter() - search_start
        stats.total_seconds = time.perf_counter() - started

        best, best_c = shared.best, shared.best_c
        if no_solution_anywhere.is_set():
            best, best_c = None, math.inf
        return MiningResult(
            targets=tuple(targets),
            expression=best if best is not None and not best.is_top else None,
            complexity=best_c,
            stats=stats,
            encountered=encountered,
        )
