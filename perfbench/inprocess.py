"""In-process workloads: ``paper_scale``, ``no_re`` and ``no_re_hard``.

One thread drives :meth:`MiningService.handle_json` in a closed loop
(the next request is sent when the previous one returns) over the
dbpedia-like and wikidata-like scale-1.0 KBs, loaded from N-Triples into
the ``interned`` backend, with ``MinerConfig(prominent_object_cutoff=None)``
— ``bench_pipeline.py``'s operating point, where queues hold 10^3–10^5
candidates.  The no-RE workloads add a 1 s search deadline.

A run mines its warm-up sets once (untimed), then passes over its
measured sets, each once per pass in a seeded order with
``verbalize: true``, until ``--seconds`` have elapsed.  Every answer is compared with the
reference miner's (see :mod:`inputs`).  A traced run alternates
untraced and traced passes over the same sets (at least four), so the
tracing overhead is measured on identical work.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Dict, List, Tuple

from harness import Failures, median, metric, percentile, pss_mb
from inputs import IN_PROCESS_KBS, NO_RE_DEADLINE, hard_pools, load_pools, split

SETUP_REPEATS = 5


def _config(workload: str):
    from repro.core.config import MinerConfig

    if workload == "paper_scale":
        return MinerConfig(prominent_object_cutoff=None)
    return MinerConfig(prominent_object_cutoff=None, timeout_seconds=NO_RE_DEADLINE)


def _setup(cache, workload: str) -> Tuple[Dict, List[float]]:
    """Load both KBs and warm their services, SETUP_REPEATS times;
    returns the last services and every set-up time."""
    from repro.service import MiningService, ServiceConfig

    config = ServiceConfig(miner_config=_config(workload))
    times = []
    services = {}
    for _ in range(SETUP_REPEATS):
        services = {}
        gc.collect()
        started = time.perf_counter()
        for name in IN_PROCESS_KBS:
            service = MiningService.from_path(cache / f"{name}.nt", config)
            service.warm_up()
            services[name] = service
        times.append(time.perf_counter() - started)
    return services, times


def _check(record: Dict, entry: Dict, failures: Failures) -> None:
    """Record one reply in *failures* unless it is a correct answer."""
    if not record.get("ok"):
        code = record.get("error", {}).get("code")
        kind = "timeout" if code == "timeout" else "internal"
        failures.add(kind, entry["targets"], entry["queue_len"],
                     error=record.get("error", {}).get("reason", "")[:200])
        return
    result = record["result"]
    if result["stats"]["timed_out"]:
        failures.add("timeout", entry["targets"], entry["queue_len"])
        return
    got = {
        "found": result["found"],
        "expression": result.get("expression"),
        "complexity_bits": result.get("complexity_bits"),
    }
    if got != entry["expected"]:
        failures.add("wrong", entry["targets"], entry["queue_len"], got=got,
                     expected=entry["expected"])


def run(workload: str, seed: int, seconds: float, trace: bool, cache) -> Dict:
    pools = hard_pools(cache) if workload == "no_re_hard" else load_pools(cache)[workload]
    warm: List[Tuple[str, Dict]] = []
    measured: List[Tuple[str, Dict]] = []
    for name in IN_PROCESS_KBS:
        w, m = split(pools[name], seed, f"{workload}:{name}")
        warm += [(name, e) for e in w]
        measured += [(name, e) for e in m]
    order = random.Random(f"{workload}-order:{seed}")

    tracer = uninstall = None
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
    services, setup_times = _setup(cache, workload)
    for name, entry in warm:
        services[name].handle_json({"type": "mine", "id": "warm", "targets": entry["targets"]})
    if trace:
        uninstall()

    failures = Failures()
    rows = {False: [], True: []}  # traced? -> [(latency_s, record, entry)]
    started = time.perf_counter()
    # Overhead baseline: untraced passes after the first (the first runs
    # colder than any traced pass).
    baseline: List[float] = []
    pass_cpu = {False: [], True: []}  # traced? -> CPU ms per request, per pass
    passes = 0
    while True:
        traced_pass = trace and passes % 2 == 1
        if traced_pass:
            install(tracer)
        # A fresh order every pass: cache effects of any one order
        # average out within the run.
        order.shuffle(measured)
        cpu_started = time.process_time()
        for index, (name, entry) in enumerate(measured):
            payload = {"type": "mine", "id": f"{name}:{passes}:{index}",
                       "targets": entry["targets"], "verbalize": True}
            sent = time.perf_counter()
            record = services[name].handle_json(payload)
            rows[traced_pass].append((time.perf_counter() - sent, record, entry))
            if trace and passes >= 2 and not traced_pass:
                baseline.append(rows[False][-1][0])
        pass_cpu[traced_pass].append(
            1000.0 * (time.process_time() - cpu_started) / len(measured))
        if traced_pass:
            uninstall()
        passes += 1
        # Whole passes only, so every set weighs the same.
        if time.perf_counter() - started >= seconds and (not trace or passes >= 4):
            break
    elapsed = time.perf_counter() - started

    for _, record, entry in rows[False] + rows[True]:
        _check(record, entry, failures)
    attempted = len(rows[False]) + len(rows[True])
    kept = rows[trace]
    latencies = [lat * 1000.0 for lat, _, _ in kept]
    busy = sum(lat for lat, _, _ in kept)
    e2e = {
        "setup_s": metric(median(setup_times), "s"),
        "mine_p50_ms": metric(percentile(latencies, 50), "ms"),
        "mine_p90_ms": metric(percentile(latencies, 90), "ms"),
        "cpu_ms_per_req": metric(median(pass_cpu[trace]), "ms"),
        "mem_mb": metric(pss_mb([os.getpid()]), "MB"),
    }
    extra = {
        "sets_per_s": metric(len(kept) / busy, "1/s"),
        "failed_share": metric(failures.total / attempted, "share"),
        "mine_samples": metric(len(kept), "count"),
    }
    info = {"passes": passes, "elapsed_s": round(elapsed, 3),
            "sets_per_pass": len(measured), "warm_up_sets": len(warm)}
    layers = _layers(tracer, rows[True], baseline) if trace else {}
    return {"e2e": e2e, "extra": extra, "layers": layers, "failures": failures,
            "attempted": attempted, "info": info, "tracer": tracer,
            "latencies_ms": sorted(round(x, 3) for x in latencies)}


def _stat_mean(kept, field: str, scale: float = 1.0) -> float:
    values = [r["result"]["stats"][field] for _, r, _ in kept if r.get("ok")]
    return scale * sum(values) / len(kept) if kept else 0.0


def _layers(tracer, traced, baseline: List[float]) -> Dict[str, Dict]:
    """Per-layer numbers of the traced passes (means per request)."""
    n = len(traced)
    keys = {r["id"] for _, r, _ in traced}
    spans_per_key: Dict[str, Dict[str, float]] = {}
    # candidates/remi/verbalize spans nest under facade.handle → key by root.
    root_key = {}
    for index, span in enumerate(tracer.spans):
        parent = span[2]
        root_key[index] = span[1] if parent is None else root_key.get(parent)
        key = root_key[index]
        if key in keys and span[4] is not None:
            bucket = spans_per_key.setdefault(key, {})
            bucket[span[0]] = bucket.get(span[0], 0.0) + span[4] - span[3]

    def mean_span(name: str) -> float:
        return 1000.0 * sum(b.get(name, 0.0) for b in spans_per_key.values()) / n

    identify_calls, identify_s = tracer.calls.get("matching.identifies", (0, 0.0))
    re_tests = sum(r["result"]["stats"]["re_tests"] for _, r, _ in traced if r.get("ok"))
    solutions = sum(r["result"]["stats"]["solutions_seen"] for _, r, _ in traced if r.get("ok"))
    traced_lat = [lat for lat, _, _ in traced]
    overhead = 1000.0 * (median(traced_lat) - median(baseline))
    loads = tracer.durations("kb.load")
    layers = {
        "batch.mine_ms": metric(1000.0 * sum(r.get("seconds", 0.0) for _, r, _ in traced) / n, "ms"),
        "candidates.build_ms": metric(mean_span("candidates.build"), "ms"),
        "candidates.enumerate_ms": metric(
            _stat_mean(traced, "enumerate_seconds", 1000.0)
            - _stat_mean(traced, "intersect_seconds", 1000.0), "ms"),
        "candidates.intersect_ms": metric(_stat_mean(traced, "intersect_seconds", 1000.0), "ms"),
        "candidates.score_ms": metric(_stat_mean(traced, "complexity_seconds", 1000.0), "ms"),
        "candidates.sort_ms": metric(_stat_mean(traced, "sort_seconds", 1000.0), "ms"),
        "candidates.queue_len": metric(_stat_mean(traced, "candidates"), "count"),
        "candidates.families_pruned": metric(_stat_mean(traced, "families_pruned"), "count"),
        "remi.search_ms": metric(mean_span("remi.mine") - mean_span("candidates.build"), "ms"),
        "remi.nodes": metric(_stat_mean(traced, "nodes_visited"), "count"),
        "remi.useful_ratio": metric(solutions / re_tests if re_tests else 0.0, "ratio"),
        "matching.identifies_us": metric(
            1e6 * identify_s / identify_calls if identify_calls else 0.0, "us"),
        "matching.calls": metric(identify_calls / n, "count"),
        "verbalize.expression_ms": metric(mean_span("verbalize.expression"), "ms"),
        "kb.load_s": metric(sum(loads) / SETUP_REPEATS, "s"),
        "trace.overhead_ms": metric(overhead, "ms"),
        "trace.overhead_share": metric(overhead / (1000.0 * median(baseline)), "share"),
    }
    return layers
