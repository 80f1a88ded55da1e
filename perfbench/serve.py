"""The ``serve`` workload: a real ``remi serve`` fleet under open-loop load.

The server is a subprocess — ``remi serve db2.img --workers 2 --warm-up
--port 0`` — booted from the KB image of the dbpedia-like scale-2.0 KB
with the default ``MinerConfig``.  This process is the load generator:
two connections, requests sent on a fixed schedule whether or not
earlier ones were answered (open loop), each timed from the moment it
was due.

Traffic: ``mine`` requests (10 % ``describe``) over Table-4 sets drawn
with Zipf popularity from a pool of a few hundred, and genuine updates
(new facts added, existing facts deleted) on connection 0, one per
:data:`UPDATE_EVERY` requests.  After the main phase a ladder of higher
offered rates at the same mix finds ``max_rate_rps``: the highest rate
whose mine p99 stays within 1 s with no backlog left at the step's end.

Correctness: every reply must be ``ok`` and not ``timed_out``; every
request must be answered; after the run every set the run used is mined
once more on the fleet and compared with a cold in-process reference
miner (hash backend) built on the same triples at the same epoch.

A traced run launches the server through ``serve_traced.py`` (span
wrappers in the router process) and runs the main phase twice, first on
an untraced fleet and then on a traced one, for the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    BENCH_DIR,
    OUT_DIR,
    P99_LIMIT_MS,
    ROOT,
    SRC,
    Failures,
    cpu_seconds,
    median,
    metric,
    percentile,
    pss_mb,
)
from inputs import load_pools, update_stream, zipf_stream

RATE = 30.0
UPDATE_EVERY = 50
DESCRIBE_SHARE = 0.1
WORKERS = 2
#: Fleets booted per run (set-up time and every end-to-end number is a
#: median over them).
BOOTS = 3
#: Offered rates tried after the main phase (same mix), seconds per step.
LADDER = (40.0, 50.0, 65.0, 80.0, 100.0)
LADDER_STEP_S = 2.0
#: Replies still missing this long after the last send count as lost.
GRACE_S = 15.0
#: The generator fell behind its schedule (and the run is marked
#: invalid) when more than 1 % of sends were later than one gap between
#: arrivals at the main rate.


@dataclass
class Row:
    id: str
    kind: str
    conn: int
    offset: float
    payload: Dict
    targets: Tuple = ()
    phase: str = "main"
    due: float = 0.0
    sent: float = 0.0
    done: Optional[float] = None
    record: Optional[Dict] = None

    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


class Server:
    """One ``remi serve`` subprocess, ready when its stderr says so."""

    def __init__(self, image: Path, spans: Optional[Path] = None):
        base = [sys.executable]
        if spans is None:
            base += ["-m", "repro.cli"]
        else:
            base += [str(BENCH_DIR / "serve_traced.py"), str(spans)]
        command = base + ["serve", str(image), "--workers", str(WORKERS), "--warm-up", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.lines: List[str] = []
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.port: Optional[int] = None
        ready = threading.Event()

        def pump() -> None:
            for line in self.process.stderr:
                self.lines.append(line.rstrip())
                if self.port is None and "listening on" in line:
                    self.port = int(line.rsplit(":", 1)[1])
                    self.ready_s = time.perf_counter() - self.started
                    ready.set()
            ready.set()

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        if not ready.wait(120.0) or self.port is None:
            self.stop()
            raise RuntimeError("remi serve did not come up:\n" + "\n".join(self.lines[-20:]))

    def stop(self) -> None:
        """Drain via a shutdown request; terminate, then kill, if that fails."""
        if self.port is not None and self.process.poll() is None:
            try:
                asyncio.run(_ask_once(self.port, {"type": "shutdown", "id": "bye"}))
            except OSError:
                pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._pump.join(timeout=5)


async def _ask_once(port: int, payload: Dict) -> Dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 24)
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=60)
    writer.close()
    return json.loads(line) if line else {}


def _schedule(sets: List[List[str]], updates, rate: float, seconds: float,
              seed: int, phase: str, counter: List[int]) -> List[Row]:
    """Rows due over *seconds* at *rate*, consuming *sets* and *updates*;
    every UPDATE_EVERY-th request is the next update, on connection 0."""
    rng = random.Random(f"serve-mix:{seed}:{phase}")
    rows = []
    count = int(rate * seconds)
    for i in range(count):
        n = counter[0]
        counter[0] += 1
        offset = i / rate
        if n % UPDATE_EVERY == UPDATE_EVERY - 1 and updates:
            op, triple = updates.pop(0)
            rid = f"u{n}"
            payload = {"type": "update", "id": rid, "op": op, "triple": [t.n3() for t in triple]}
            rows.append(Row(rid, "update", 0, offset, payload, (op, triple), phase))
            continue
        targets = sets.pop(0)
        kind = "describe" if rng.random() < DESCRIBE_SHARE else "mine"
        rid = f"{kind[0]}{n}"
        payload = {"type": kind, "id": rid, "targets": targets}
        rows.append(Row(rid, kind, n % 2, offset, payload, tuple(targets), phase))
    return rows


class Generator:
    """Two connections; sends rows on schedule, matches replies by id."""

    def __init__(self, port: int):
        self.port = port
        self.inflight: Dict[str, Row] = {}

    async def open(self) -> None:
        self.conns = [
            await asyncio.open_connection("127.0.0.1", self.port, limit=1 << 24)
            for _ in range(2)
        ]
        self.readers = [asyncio.ensure_future(self._read(r)) for r, _ in self.conns]

    async def _read(self, reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            record = json.loads(line)
            row = self.inflight.pop(str(record.get("id")), None)
            if row is not None:
                row.done = now
                row.record = record

    async def drive(self, rows: List[Row], t0: float) -> None:
        for row in rows:
            row.due = t0 + row.offset
            delay = row.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            row.sent = time.perf_counter()
            self.inflight[row.id] = row
            self.conns[row.conn][1].write(json.dumps(row.payload).encode() + b"\n")

    async def settle(self, rows: List[Row], grace: float) -> None:
        deadline = time.perf_counter() + grace
        while any(r.done is None for r in rows) and time.perf_counter() < deadline:
            await asyncio.sleep(0.02)

    async def ask(self, payload: Dict, conn: int = 0) -> Dict:
        row = Row(payload["id"], payload["type"], conn, 0.0, payload)
        row.due = row.sent = time.perf_counter()
        self.inflight[row.id] = row
        self.conns[conn][1].write(json.dumps(payload).encode() + b"\n")
        await self.settle([row], 60.0)
        return row.record or {}

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


def _classify(row: Row, failures: Failures) -> None:
    """Record the row in *failures* unless its reply counts as a success."""
    if row.done is None:
        failures.add("lost", row.targets if row.kind != "update" else [], phase=row.phase, id=row.id)
        return
    record = row.record
    if not record.get("ok"):
        code = record.get("error", {}).get("code")
        failures.add("timeout" if code == "timeout" else "internal",
                     row.targets if row.kind != "update" else [], phase=row.phase, id=row.id,
                     error=str(record.get("error"))[:200])
        return
    stats = record.get("result", {}).get("stats")
    if stats and stats.get("timed_out"):
        failures.add("timeout", row.targets, stats.get("candidates"), phase=row.phase, id=row.id)


def _step_ok(rows: List[Row], rate: float) -> bool:
    """A ladder step passes when its mine p99 (failures count as
    infinitely slow) is within the limit and no more than one second of
    arrivals was still unanswered when the step's last request was due."""
    reads = [r for r in rows if r.kind != "update"]
    lat = [r.latency_ms() if (r.done and r.record.get("ok")) else float("inf") for r in reads]
    if not lat or percentile(lat, 99) > P99_LIMIT_MS:
        return False
    last_due = max(r.due for r in rows)
    backlog = sum(1 for r in rows if r.done is None or r.done > last_due)
    return backlog <= rate


async def _phase(gen: Generator, rows: List[Row]) -> None:
    """Send *rows* on their schedule, then wait for their replies."""
    t0 = time.perf_counter() + 0.05
    await gen.drive(rows, t0)
    await gen.settle(rows, GRACE_S)


def _cold_answers(triples, ops, sets) -> Dict[Tuple, Dict]:
    """A cold hash-backend reference miner on the post-run triples."""
    from inputs import answer_of
    from repro.core.remi import REMI
    from repro.kb.store import KnowledgeBase
    from repro.kb.terms import IRI

    state = set(triples)
    for op, triple in ops:
        (state.add if op == "add" else state.discard)(triple)
    miner = REMI(KnowledgeBase(sorted(state, key=lambda t: t.n3()), name="db2"))
    return {tuple(t): answer_of(miner.mine([IRI(x) for x in t])) for t in sets}


async def _final_check(gen: Generator, answers: Dict[Tuple, Dict], failures: Failures) -> int:
    """Mine every set once more on the fleet; a differing answer is wrong."""
    checked = 0
    for index, targets in enumerate(sorted(answers)):
        record = await gen.ask({"type": "mine", "id": f"check{index}", "targets": list(targets)},
                               conn=index % 2)
        result = record.get("result", {}) if record.get("ok") else {}
        got = {"found": result.get("found"), "expression": result.get("expression"),
               "complexity_bits": result.get("complexity_bits")}
        if got != answers[targets]:
            failures.add("wrong", list(targets), result.get("stats", {}).get("candidates"),
                         phase="check", got=got, expected=answers[targets])
        checked += 1
    return checked


def _fleet(stats_record: Dict) -> Dict:
    return stats_record.get("result", {}).get("server", {}).get("workers", {})


def run(workload: str, seed: int, seconds: float, trace: bool, cache) -> Dict:
    from repro.kb.ntriples import iter_ntriples_file

    image = cache / "db2.img"
    pool = load_pools(cache)["serve"]["sets"]
    triples = list(iter_ntriples_file(cache / "db2.nt"))
    protected = {t for entry in pool for t in entry["targets"]}
    main_s = seconds / BOOTS
    per_boot = int(RATE * main_s + sum(LADDER) * LADDER_STEP_S) + 10
    sets = zipf_stream(pool, seed, BOOTS * per_boot)
    ops = update_stream(triples, protected, seed, per_boot // UPDATE_EVERY + 2)
    failures = Failures()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"serve-s{seed}-router-spans.jsonl"

    # BOOTS fleets, one after another, each booted from the image and
    # carrying its own share of the request stream; the end-to-end
    # numbers are medians over the boots.  The last boot also climbs
    # the rate ladder and has its answers checked; in a traced run it is
    # the traced one, and the untraced boots give the overhead baseline.
    setup_times, boots = [], []
    for boot in range(BOOTS):
        last = boot == BOOTS - 1
        server = Server(image, spans_path if trace and last else None)
        setup_times.append(server.ready_s)
        try:
            boots.append(asyncio.run(_session(
                server, sets[boot * per_boot:(boot + 1) * per_boot], ops, seed, main_s,
                ladder=last and not trace, check=last, triples=triples, failures=failures)))
        finally:
            server.stop()
    session = boots[-1]
    measured = boots[-1:] if trace else boots

    all_rows = [r for b in boots for r in b["rows"] + b["ladder_rows"]]
    for row in all_rows:
        _classify(row, failures)
    if not session["consistent"]:
        failures.add("wrong", [], phase="check", error="replica epochs differ from the router's")

    def lat(rows, kinds):
        return [r.latency_ms() if r.done else math.inf for r in rows if r.kind in kinds]

    reads = ("mine", "describe")
    mine_lat = [x for b in measured for x in lat(b["rows"], reads)]
    upd_lat = [x for b in measured for x in lat(b["rows"], ("update",))]
    rows = [r for b in measured for r in b["rows"]]
    gen_late = [1000.0 * (r.sent - r.due) for r in rows]
    behind = sum(1 for late in gen_late if late > 1000.0 / RATE)
    attempted = len(all_rows) + session["checked"]
    e2e = {
        "setup_s": metric(median(setup_times), "s"),
        "mine_p50_ms": metric(median([percentile(lat(b["rows"], reads), 50) for b in measured]), "ms"),
        "mine_p90_ms": metric(median([percentile(lat(b["rows"], reads), 90) for b in measured]), "ms"),
        "cpu_ms_per_req": metric(median([1000.0 * b["cpu_s"] / len(b["rows"]) for b in measured]), "ms"),
        "mem_mb": metric(median([b["mem"] for b in measured]), "MB"),
    }
    extra = {
        "mine_p99_ms": metric(percentile(mine_lat, 99), "ms"),
        "update_p50_ms": metric(percentile(upd_lat, 50), "ms"),
        "update_p90_ms": metric(percentile(upd_lat, 90), "ms"),
        "max_rate_rps": metric(session["max_rate"], "1/s"),
        "failed_share": metric(failures.total / attempted, "share"),
        "mine_samples": metric(len(mine_lat), "count"),
        "update_samples": metric(len(upd_lat), "count"),
        "gen.late_ms": metric(percentile(gen_late, 99), "ms"),
        "checked_sets": metric(session["checked"], "count"),
    }
    info = {
        "rate_rps": RATE, "update_every": UPDATE_EVERY, "boots": BOOTS, "main_s": main_s,
        "ladder": [[rate, ok] for rate, ok in session["ladder"]],
        "valid": behind <= 0.01 * len(rows),
        "fleet_consistent": session["consistent"],
    }
    layers, tracer = {}, None
    if trace:
        from spans import Tracer

        tracer = Tracer.load(spans_path)
        untraced = [r for b in boots[:-1] for r in b["rows"]]
        layers = _layers(tracer, session["rows"], untraced, session["fleet"])
    return {"e2e": e2e, "extra": extra, "layers": layers, "failures": failures,
            "attempted": attempted, "info": info, "tracer": tracer,
            "latencies_ms": sorted(round(x, 3) for x in mine_lat)}


async def _session(server: Server, sets, ops, seed: int, main_s: float, ladder: bool,
                   check: bool, triples, failures: Failures) -> Dict:
    """The main phase (then the ladder and the answer check) on one fleet."""
    counter = [0]
    sets, ops = list(sets), list(ops)
    rows = _schedule(sets, ops, RATE, main_s, seed, "main", counter)
    gen = Generator(server.port)
    await gen.open()
    out = {"rows": rows, "ladder_rows": [], "ladder": [], "max_rate": 0.0, "checked": 0}
    try:
        fleet = _fleet(await gen.ask({"type": "stats", "id": "stats0"}))
        pids = [server.process.pid] + [w["pid"] for w in fleet.get("per_worker", [])]
        cpu = cpu_seconds(pids)
        await _phase(gen, rows)
        out["cpu_s"] = cpu_seconds(pids) - cpu
        out["mem"] = pss_mb(pids)
        for rate in LADDER if ladder else ():
            step = _schedule(sets, ops, rate, LADDER_STEP_S, seed, f"ladder{rate}", counter)
            await _phase(gen, step)
            out["ladder_rows"] += step
            out["ladder"].append((rate, _step_ok(step, rate)))
            if not out["ladder"][-1][1]:
                break
            out["max_rate"] = rate
        stats = await gen.ask({"type": "stats", "id": "stats1"})
        out["fleet"] = fleet = _fleet(stats)
        router_epoch = stats.get("result", {}).get("serving", {}).get("epoch")
        out["consistent"] = {w.get("epoch") for w in fleet.get("per_worker", [])} == {router_epoch}
        if check:
            applied = [
                r.targets for r in rows + out["ladder_rows"]
                if r.kind == "update" and r.record and r.record.get("ok")
                and r.record["result"].get("applied")
            ]
            used = {tuple(r.targets) for r in rows if r.kind != "update"}
            answers = _cold_answers(triples, applied, used)
            out["checked"] = await _final_check(gen, answers, failures)
    finally:
        await gen.close()
    return out


def _layers(tracer, rows: List[Row], untraced: List[Row], fleet: Dict) -> Dict:
    """Per-layer numbers from router spans plus replica-side reply fields."""
    request_s = tracer.by_key("workers.request")
    reads = [r for r in rows if r.kind != "update" and r.done and r.record.get("ok")]
    mines = [r for r in reads if r.kind == "mine"]
    updates = [r for r in rows if r.kind == "update" and r.done]
    n_upd = max(1, len(updates))
    # Nested update spans, keyed by the root facade.handle span's key.
    root_key: Dict[int, object] = {}
    per_update: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(tracer.spans):
        parent = span[2]
        root_key[index] = span[1] if parent is None else root_key.get(parent)
        if span[4] is None:
            continue
        bucket = per_update.setdefault(str(root_key[index]), {})
        bucket[span[0]] = bucket.get(span[0], 0.0) + span[4] - span[3]

    def update_mean(name: str) -> float:
        return 1000.0 * sum(per_update.get(r.id, {}).get(name, 0.0) for r in updates) / n_upd

    def stat_mean(field: str, scale: float = 1.0) -> float:
        return scale * sum(r.record["result"]["stats"][field] for r in mines) / max(1, len(mines))

    overhead = [1000.0 * (r.done - r.sent) - 1000.0 * request_s.get(r.id, 0.0) for r in reads]
    roundtrip = [1000.0 * (request_s.get(r.id, 0.0) - r.record.get("seconds", 0.0)) for r in reads]
    broadcast = tracer.by_key("workers.broadcast")
    first_reads = []
    reads_by_due = sorted((r for r in rows if r.kind != "update"), key=lambda r: r.due)
    for upd in updates:
        later = next((r for r in reads_by_due if r.due >= upd.done), None)
        if later is not None and later.done:
            first_reads.append(later.latency_ms())
    re_tests = sum(r.record["result"]["stats"]["re_tests"] for r in mines)
    solutions = sum(r.record["result"]["stats"]["solutions_seen"] for r in mines)
    base = median([r.latency_ms() for r in untraced if r.kind != "update" and r.done])
    traced_p50 = median([r.latency_ms() for r in reads])
    late = [1000.0 * (r.sent - r.due) for r in rows]
    return {
        "server.overhead_ms": metric(sum(overhead) / max(1, len(overhead)), "ms"),
        "workers.roundtrip_ms": metric(sum(roundtrip) / max(1, len(roundtrip)), "ms"),
        "workers.broadcast_ms": metric(
            1000.0 * sum(broadcast.get(r.id, 0.0) for r in updates) / n_upd, "ms"),
        "facade.update_ms": metric(update_mean("facade.update"), "ms"),
        "batch.apply_update_ms": metric(update_mean("batch.apply_update"), "ms"),
        "kb.at_epoch_ms": metric(update_mean("kb.at_epoch"), "ms"),
        "facade.session_build_ms": metric(update_mean("facade.session_build"), "ms"),
        "facade.first_read_ms": metric(median(first_reads) if first_reads else 0.0, "ms"),
        "batch.mine_ms": metric(
            1000.0 * sum(r.record.get("seconds", 0.0) for r in reads) / max(1, len(reads)), "ms"),
        "candidates.build_ms": metric(
            stat_mean("enumerate_seconds", 1000.0) + stat_mean("complexity_seconds", 1000.0)
            + stat_mean("sort_seconds", 1000.0), "ms"),
        "candidates.enumerate_ms": metric(
            stat_mean("enumerate_seconds", 1000.0) - stat_mean("intersect_seconds", 1000.0), "ms"),
        "candidates.intersect_ms": metric(stat_mean("intersect_seconds", 1000.0), "ms"),
        "candidates.score_ms": metric(stat_mean("complexity_seconds", 1000.0), "ms"),
        "candidates.sort_ms": metric(stat_mean("sort_seconds", 1000.0), "ms"),
        "candidates.queue_len": metric(stat_mean("candidates"), "count"),
        "candidates.families_pruned": metric(stat_mean("families_pruned"), "count"),
        "remi.search_ms": metric(stat_mean("search_seconds", 1000.0), "ms"),
        "remi.nodes": metric(stat_mean("nodes_visited"), "count"),
        "remi.useful_ratio": metric(solutions / re_tests if re_tests else 0.0, "ratio"),
        "kb.load_s": metric(sum(tracer.durations("kb.load")), "s"),
        "workers.start_s": metric(sum(tracer.durations("workers.start")), "s"),
        "workers.resyncs": metric(fleet.get("resyncs", 0), "count"),
        "workers.timeouts": metric(fleet.get("timeouts", 0), "count"),
        "workers.retries": metric(fleet.get("retries", 0), "count"),
        "gen.late_ms": metric(percentile(late, 99), "ms"),
        "trace.overhead_ms": metric(traced_p50 - base, "ms"),
        "trace.overhead_share": metric((traced_p50 - base) / base, "share"),
    }
