"""REMI: Algorithm 1 (main loop) and Algorithm 2 (DFS-REMI).

Given a KB and a target entity set ``T``, :meth:`REMI.mine`:

1. enumerates the subgraph expressions common to all targets
   (Alg. 1 line 1) and
2. scores each with Ĉ and sorts them ascending into the priority queue
   (line 2) — both delegated to the shared candidate pipeline,
   :class:`~repro.core.candidates.CandidateEngine`, which runs them in
   integer-ID space on dictionary-encoded backends;
3. explores conjunctions depth-first, pruning

   * **by depth** — descendants of an RE are REs with strictly larger Ĉ;
   * **by side**  — siblings after an RE are at least as complex (the
     queue is sorted);
   * **by bound** — any node whose Ĉ already exceeds the best solution
     (and, the queue being sorted, all its later siblings) is skipped.

Two traversal strategies are available (``config.search``):
``COMPLETE`` (default) is a recursive DFS that provably returns the
Ĉ-minimal RE; ``PAPER`` transcribes Algorithm 2's stack linearization
verbatim, which can skip one sibling family after a *deep* success —
kept for fidelity studies (see DESIGN.md §5 and the comparison test).
"""

from __future__ import annotations

import math
import time
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.complexity.codes import ComplexityEstimator
from repro.complexity.ranking import Prominence
from repro.registry import ESTIMATORS, PROMINENCE
from repro.core.candidates import _UNSET, CandidateEngine, ScoredSE
from repro.core.config import MinerConfig, SearchStrategy
from repro.core.results import MiningResult, SearchStats
from repro.expressions.expression import Expression
from repro.expressions.matching import Matcher
from repro.expressions.subgraph import SubgraphExpression
from repro.kb.epoch import EpochWatcher
from repro.kb.store import KnowledgeBase
from repro.kb.terms import Term

__all__ = ["REMI", "ScoredSE", "resolve_prominence"]


def resolve_prominence(
    kb: KnowledgeBase, prominence: Union[str, Prominence]
) -> Prominence:
    """Accepts a registry key (``"fr"``, ``"pr"``, or any provider
    registered in :data:`repro.registry.PROMINENCE`) or a prebuilt model."""
    if isinstance(prominence, str):
        return PROMINENCE.create(prominence, kb)
    return prominence


class REMI:
    """The sequential miner of Algorithms 1 and 2.

    >>> miner = REMI(kb)                      # Ĉfr, REMI's language bias
    >>> result = miner.mine([paris])
    >>> result.expression, result.complexity

    The instance caches rankings and query results across :meth:`mine`
    calls, so reuse one miner for many target sets on the same KB.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        prominence: Union[str, Prominence] = "fr",
        mode: str = "exact",
        config: Optional[MinerConfig] = None,
        matcher: Optional[Matcher] = None,
        estimator: Optional[ComplexityEstimator] = None,
    ):
        self.kb = kb
        self.config = config or MinerConfig()
        self.prominence = resolve_prominence(kb, prominence)
        # ``mode`` is a key of the ESTIMATORS registry ("exact",
        # "powerlaw", or a custom factory registered by the caller).
        self.estimator = estimator or ESTIMATORS.create(mode, kb, self.prominence)
        self.matcher = matcher or Matcher(kb)
        self._prominent: Optional[FrozenSet[Term]] = None
        self._prominent_watch = EpochWatcher(kb)
        #: The shared candidate pipeline (Alg. 1 lines 1–2).  Its memos
        #: and rank tables live as long as the miner, so batch serving
        #: amortizes them across requests.
        self.engine = CandidateEngine(
            kb,
            config=self.config,
            matcher=self.matcher,
            estimator=self.estimator,
            prominent=lambda: self.prominent_entities,
        )

    def _drop_prominent(self) -> None:
        self._prominent = None

    # ------------------------------------------------------------------
    # queue construction (Alg. 1 lines 1-2)
    # ------------------------------------------------------------------

    @property
    def prominent_entities(self) -> FrozenSet[Term]:
        """The top-5 % prominence cutoff set of §3.5.2 (lazily computed,
        recomputed when the KB mutates — prominence shifts can move
        entities across the cutoff)."""
        if self._prominent_watch.seen != self.kb.epoch:
            self._prominent_watch.absorb(None, self._drop_prominent)
        if self._prominent is None:
            cutoff = self.config.prominent_object_cutoff
            if cutoff is None:
                self._prominent = frozenset()
            else:
                self._prominent = self.prominence.top_entities(cutoff)  # type: ignore[attr-defined]
        return self._prominent

    def candidates(
        self,
        targets: Sequence[Term],
        stats: Optional[SearchStats] = None,
        top_k=_UNSET,
    ) -> Sequence[ScoredSE]:
        """The sorted priority queue of common subgraph expressions.

        A thin wrapper over :class:`~repro.core.candidates.CandidateEngine`,
        which fills the per-phase counters and timings on *stats*.  *top_k*
        overrides the config's bound for this call (``None`` = exact).
        """
        return self.engine.candidates(targets, stats, top_k=top_k)

    # ------------------------------------------------------------------
    # mining (Alg. 1 lines 3-9)
    # ------------------------------------------------------------------

    #: Capability flag for the batch layer: per-request ``top_k``
    #: overrides are honoured (custom registered miners may not).
    supports_top_k = True

    def mine(
        self,
        targets: Sequence[Term],
        collect_encountered: bool = False,
        top_k=_UNSET,
    ) -> MiningResult:
        """Return the Ĉ-minimal referring expression for *targets*.

        With ``collect_encountered=True`` every RE met during traversal is
        recorded in :attr:`MiningResult.encountered` (the §4.1.2 baseline
        pool).  *top_k* bounds the queue build for this call (see
        :meth:`CandidateEngine.candidates`); the search streams the
        bounded queue and pulls the deferred remainder only when its
        sorted prefix is exhausted without a bound prune, so the mining
        result is identical to exact mode.
        """
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
        search = _Search(
            miner=self,
            queue=queue,
            targets=target_set,
            stats=stats,
            deadline=deadline,
            collect=collect_encountered,
        )
        best, best_c = search.run()
        stats.search_seconds = time.perf_counter() - search_start
        stats.total_seconds = time.perf_counter() - started
        return MiningResult(
            targets=tuple(targets),
            expression=best if best is not None and not best.is_top else None,
            complexity=best_c,
            stats=stats,
            encountered=search.encountered,
        )

    def describe(self, targets: Sequence[Term]) -> Optional[str]:
        """Convenience: mine and verbalize in one call (None when no RE)."""
        from repro.expressions.verbalize import Verbalizer

        result = self.mine(targets)
        if not result.found:
            return None
        return Verbalizer(self.kb).expression(result.expression)


class _Search:
    """One DFS run over the conjunction tree (shared by both strategies)."""

    def __init__(
        self,
        miner: REMI,
        queue: Sequence[ScoredSE],
        targets: FrozenSet[Term],
        stats: SearchStats,
        deadline: Optional[float],
        collect: bool,
    ):
        self.miner = miner
        self.config = miner.config
        self.matcher = miner.matcher
        self.queue = queue
        self.targets = targets
        self.stats = stats
        self.deadline = deadline
        self.collect = collect
        self.encountered: List[Tuple[Expression, float]] = []
        self.best: Optional[Expression] = None
        self.best_c: float = math.inf

    # -- shared helpers -------------------------------------------------

    def _expired(self) -> bool:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.stats.timed_out = True
            return True
        return False

    def _test(self, expression: Expression, complexity: float) -> bool:
        """RE test with bookkeeping; updates best on success."""
        self.stats.nodes_visited += 1
        self.stats.re_tests += 1
        if not self.matcher.identifies(expression, self.targets):
            return False
        self.stats.solutions_seen += 1
        if self.collect:
            self.encountered.append((expression, complexity))
        if complexity < self.best_c:
            self.best, self.best_c = expression, complexity
        return True

    def _grow(self) -> bool:
        """Pull a bounded queue's deferred remainder in (no-op on exact
        queues); True when new entries appeared.

        The search only calls this when a sorted prefix ran out *without*
        a bound prune — the one situation where deferred entries (which
        all sort after the frontier, hence cost at least as much) could
        still matter.  That sorted-prefix early-exit discipline is exactly
        what makes the lazily-grown queue semantically identical to the
        full one.
        """
        extend = getattr(self.queue, "extend_frontier", None)
        if extend is None:
            return False
        if extend():
            self.stats.queue_extensions += 1
            return True
        return False

    # -- Alg. 1 main loop -----------------------------------------------

    def run(self) -> Tuple[Optional[Expression], float]:
        queue = self.queue
        root_index = 0
        while root_index < len(queue) or self._grow():
            root, root_c = queue[root_index]
            if self._expired():
                break
            if self.config.bound_pruning and root_c >= self.best_c:
                # The queue is sorted: no later root — frontier or
                # deferred — can beat the best, so no extension either.
                self.stats.roots_skipped += len(queue) - root_index
                self.stats.bound_prunes += 1
                break
            self.stats.roots_explored += 1
            if self.config.search is SearchStrategy.PAPER:
                found_any = self._paper_scan(root_index)
            else:
                found_any = self._dfs(
                    prefix=(root,), prefix_c=root_c, rest=queue,
                    start=root_index + 1, depth=1, tested_prefix=False,
                )
            # Alg. 1 line 8: the first root's subtree covers, in the worst
            # case, the conjunction of ALL candidates — if even that is not
            # an RE, no solution exists for T.  (The subtree walk grows the
            # queue as needed, so "all" includes the deferred remainder.)
            if root_index == 0 and not found_any and self.best is None and not self.stats.timed_out:
                return None, math.inf
            root_index += 1
        return self.best, self.best_c

    # -- complete recursive DFS (default strategy) -----------------------

    def _dfs(
        self,
        prefix: Tuple[SubgraphExpression, ...],
        prefix_c: float,
        rest: Sequence[ScoredSE],
        start: int,
        depth: int,
        tested_prefix: bool,
    ) -> bool:
        """Explore conjunctions extending *prefix* with entries of *rest*
        from index *start* on; returns True if any RE exists in this
        subtree (used by Alg. 1 line 8).

        *rest* is the SHARED scored queue — recursion passes the same
        sequence with a moved start index.  Re-slicing (``rest[i + 1:]``) would copy
        O(n) entries at every recursion level, O(n²) per root subtree.
        """
        self.stats.peak_stack_depth = max(self.stats.peak_stack_depth, depth)
        found_any = False
        if not tested_prefix:
            expression = Expression(prefix)
            if self._test(expression, prefix_c):
                if self.config.depth_pruning:
                    self.stats.depth_prunes += 1
                    return True
                found_any = True
        if self._expired():
            return found_any
        i = start
        while i < len(rest) or self._grow():
            se, se_c = rest[i]
            child_c = prefix_c + se_c
            if self.config.bound_pruning and child_c >= self.best_c:
                self.stats.bound_prunes += 1
                break  # sorted queue: later siblings only costlier
            child = Expression(prefix + (se,))
            if self._test(child, child_c):
                found_any = True
                if self.config.depth_pruning:
                    self.stats.depth_prunes += 1
                else:
                    self._dfs(prefix + (se,), child_c, rest, i + 1, depth + 1, True)
                if self.config.side_pruning:
                    self.stats.side_prunes += 1
                    break
            else:
                if self._dfs(prefix + (se,), child_c, rest, i + 1, depth + 1, True):
                    found_any = True
            if self._expired():
                break
            i += 1
        return found_any

    # -- literal Algorithm 2 --------------------------------------------

    def _paper_scan(self, root_index: int) -> bool:
        """DFS-REMI exactly as printed: one stack, one linear scan of G'
        (starting at *root_index* in the shared queue)."""
        stack: List[ScoredSE] = []
        found_any = False
        queue = self.queue
        j = root_index
        while j < len(queue) or self._grow():
            scored = queue[j]
            if self._expired():
                break
            stack.append(scored)
            self.stats.peak_stack_depth = max(self.stats.peak_stack_depth, len(stack))
            expression = Expression(tuple(se for se, _ in stack))
            complexity = sum(c for _, c in stack)
            if self._test(expression, complexity):
                found_any = True
                stack.pop()  # line 7: pruning by depth
                self.stats.depth_prunes += 1
                if stack:
                    stack.pop()  # line 8: side pruning (backtrack anew)
                    self.stats.side_prunes += 1
                if not stack:
                    return found_any  # line 9
            j += 1
        return found_any
