"""Span recording from outside the program: wrappers around public calls.

:func:`install` replaces a fixed list of public functions with thin
wrappers that record one span per call — name, request key, parent
span, start, end — into an in-memory :class:`Tracer`.  Nothing inside
``src/`` changes; uninstalled, the program runs untouched.  Spans are
written out once, at the end (:meth:`Tracer.dump`).

``Matcher.identifies`` runs once per search node, so it is aggregated
(call count and total time) instead of recorded span by span.

Layer names follow the modules a request crosses::

    facade.handle      MiningService.handle_json
    facade.update      MiningService.update
    facade.session_build  BatchMiner() built inside facade.update
    batch.mine         BatchMiner.mine_one
    batch.apply_update BatchMiner.apply_update
    kb.at_epoch        <KB>.at_epoch
    kb.load            service.facade.load_kb
    remi.mine          REMI.mine
    candidates.build   CandidateEngine.candidates
    matching.identifies  Matcher.identifies (aggregated)
    verbalize.expression Verbalizer.expression
    workers.request    WorkerPool.request        (async)
    workers.broadcast  WorkerPool.broadcast_update (async)
    workers.start      WorkerPool.start
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Tracer:
    """Spans of one process: ``(name, key, parent, start, end)`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """True when a span called *name* is open on this thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    def wrap(self, fn: Callable, name: str, key: Optional[Callable] = None,
             when: Optional[str] = None) -> Callable:
        """A span-recording stand-in for *fn*.  *key* maps the call's
        arguments to a request key; *when* records only inside an open
        span of that name.  Re-entrant calls of the same name (a
        subclass calling ``super()``) stay inside the outer span."""
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    row = [name, key(*args, **kwargs) if key else None, None,
                           started, time.perf_counter()]
                    with tracer._lock:
                        tracer.spans.append(row)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if (when is not None and not tracer.inside(when)) or tracer.inside(name):
                return fn(*args, **kwargs)
            row = [name, key(*args, **kwargs) if key else None,
                   stack[-1] if stack else None, time.perf_counter(), None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(row)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[4] = time.perf_counter()

        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        """Aggregate-only stand-in: call count and total seconds."""
        totals = self.calls[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[1] += time.perf_counter() - started
                totals[0] += 1

        return counted

    # ------------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s[4] - s[3] for s in self.spans if s[0] == name and s[4] is not None]

    def by_key(self, name: str) -> Dict[str, float]:
        """Total seconds of span *name* per request key."""
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[0] == name and s[4] is not None:
                out[str(s[1])] += s[4] - s[3]
        return out

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus the part its
        direct children cover (children nest on the same thread)."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[2] is not None and s[4] is not None:
                child_time[s[2]] += s[4] - s[3]
        totals: Dict[str, float] = defaultdict(float)
        for index, s in enumerate(self.spans):
            if s[4] is not None:
                totals[s[0]] += (s[4] - s[3]) - child_time.get(index, 0.0)
        return dict(totals)

    def dump(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps(s) + "\n")
            out.write(json.dumps(["#calls", dict(self.calls)]) + "\n")

    @classmethod
    def load(cls, path: Path) -> "Tracer":
        tracer = cls()
        for line in Path(path).read_text().splitlines():
            row = json.loads(line)
            if row[0] == "#calls":
                tracer.calls.update(row[1])
            else:
                tracer.spans.append(row)
        return tracer


def _payload_id(_self, payload, *args, **kwargs):
    return payload.get("id") if isinstance(payload, dict) else None


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public calls of every layer; returns the undo."""
    from repro.core.batch import BatchMiner
    from repro.core.candidates import CandidateEngine
    from repro.core.remi import REMI
    from repro.expressions.matching import Matcher
    from repro.expressions.verbalize import Verbalizer
    from repro.kb.image.backend import ImageKnowledgeBase, ImageSnapshot
    from repro.kb.interned import InternedKnowledgeBase
    from repro.kb.snapshot import KbSnapshot
    from repro.service import facade
    from repro.service.workers import WorkerPool

    originals = []

    def _patch(owner, attr: str, replacement: Callable) -> None:
        originals.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    wrap = tracer.wrap
    service = facade.MiningService
    _patch(service, "handle_json", wrap(service.handle_json, "facade.handle", _payload_id))
    _patch(service, "update", wrap(service.update, "facade.update", lambda _s, r: r.id))
    _patch(BatchMiner, "__init__",
           wrap(BatchMiner.__init__, "facade.session_build", when="facade.update"))
    _patch(BatchMiner, "mine_one", wrap(BatchMiner.mine_one, "batch.mine", lambda _s, r: r.id))
    _patch(BatchMiner, "apply_update", wrap(BatchMiner.apply_update, "batch.apply_update"))
    for cls in (InternedKnowledgeBase, KbSnapshot, ImageKnowledgeBase, ImageSnapshot):
        if "at_epoch" in vars(cls):
            _patch(cls, "at_epoch", wrap(vars(cls)["at_epoch"], "kb.at_epoch"))
    _patch(facade, "load_kb", wrap(facade.load_kb, "kb.load"))
    _patch(REMI, "mine", wrap(REMI.mine, "remi.mine"))
    _patch(CandidateEngine, "candidates", wrap(CandidateEngine.candidates, "candidates.build"))
    _patch(Matcher, "identifies", tracer.count(Matcher.identifies, "matching.identifies"))
    _patch(Verbalizer, "expression", wrap(Verbalizer.expression, "verbalize.expression"))
    _patch(WorkerPool, "request", wrap(WorkerPool.request, "workers.request", _payload_id))
    _patch(WorkerPool, "broadcast_update",
           wrap(WorkerPool.broadcast_update, "workers.broadcast", _payload_id))
    _patch(WorkerPool, "start", wrap(WorkerPool.start, "workers.start"))
    return uninstall
