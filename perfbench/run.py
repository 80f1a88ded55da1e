"""The REMI benchmark: one command, every workload, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``serve``       — ``remi serve --workers 2`` under open-loop load with
  live updates (:mod:`serve`);
* ``paper_scale`` — in-process closed loop over sets that have an RE,
  10^3–10^5-candidate queues (:mod:`inprocess`);
* ``no_re``       — in-process closed loop over sets with no RE, where
  the exhaustive search walk ends inside its 1 s deadline;
* ``no_re_hard``  — not run by default: no-RE sets whose search today
  times out or overflows the recursion.  It records those requests as
  failures (``fail.timeout``/``fail.internal``) and logs each one.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps the public call of every layer and reports the
per-layer metrics (means per request) plus the tracing overhead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A request fails when it gets an error envelope (``internal``,
``timeout``), has ``stats.timed_out``, returns an answer that differs
from the reference miner's, or gets no reply by the end of the run.
``correct`` is false, and the exit code 1, when any answer differs from
the reference.  Result records, failure logs and span dumps go to the
untracked ``perfbench/out/``; generated inputs are cached in
``perfbench/cache/``.  The first run in a fresh checkout builds that
cache (a few minutes: the reference miner is slow).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    OUT_DIR,
    fingerprint,
    metric,
    print_report,
    print_result,
    require_source,
    write_outputs,
)

WORKLOADS = ("serve", "paper_scale", "no_re", "no_re_hard")
DEFAULT_WORKLOADS = ("serve", "paper_scale", "no_re")

#: End-to-end metrics every workload reports with tracing off: the ones
#: steady enough from run to run to guard.  Latency percentiles, update
#: latency, max_rate_rps, sets_per_s and failed_share are printed after
#: them and kept in the result record.
E2E = {
    "setup_s": "s",
    "cpu_ms_per_req": "ms",
    "mem_mb": "MB",
}

#: Per-layer metrics every traced run reports (0 where a workload does
#: not cross the layer or the layer runs where spans cannot see it).
LAYERS = {
    "server.overhead_ms": "ms",
    "workers.roundtrip_ms": "ms",
    "workers.broadcast_ms": "ms",
    "facade.update_ms": "ms",
    "batch.apply_update_ms": "ms",
    "kb.at_epoch_ms": "ms",
    "facade.session_build_ms": "ms",
    "facade.first_read_ms": "ms",
    "batch.mine_ms": "ms",
    "candidates.build_ms": "ms",
    "candidates.enumerate_ms": "ms",
    "candidates.intersect_ms": "ms",
    "candidates.score_ms": "ms",
    "candidates.sort_ms": "ms",
    "remi.search_ms": "ms",
    "matching.identifies_us": "us",
    "matching.calls": "count",
    "verbalize.expression_ms": "ms",
    "kb.load_s": "s",
    "workers.start_s": "s",
    "candidates.queue_len": "count",
    "candidates.families_pruned": "count",
    "remi.nodes": "count",
    "remi.useful_ratio": "ratio",
    "workers.resyncs": "count",
    "workers.timeouts": "count",
    "workers.retries": "count",
    "fail.internal": "count",
    "fail.timeout": "count",
    "fail.wrong": "count",
    "fail.lost": "count",
    "gen.late_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "share",
}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_source()
    import inputs

    cache = inputs.cache_dir()
    if not (cache / "pools.json").is_file():
        # Build in a child so this process measures from a clean heap.
        subprocess.run([sys.executable, str(Path(inputs.__file__))], check=True)
    if workload == "serve":
        import serve as module
    else:
        import inprocess as module
    outcome = module.run(workload, seed, seconds, trace, cache)
    failures = outcome["failures"]
    if trace:
        layers = {name: metric(0.0, unit) for name, unit in LAYERS.items()}
        layers.update(outcome["layers"])
        layers.update({name: metric(v, "count") for name, v in failures.metrics().items()})
        shown = {name: layers[name] for name in LAYERS}
    else:
        shown = {name: outcome["e2e"][name] for name in E2E}
    correct = failures.counts["wrong"] == 0
    name = f"{workload}-s{seed}" + ("-trace" if trace else "")
    info = dict(outcome["info"], seed=seed, seconds=seconds, trace=int(trace))
    machine = fingerprint()
    record = {
        "workload": workload,
        "fingerprint": machine,
        "info": info,
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failures.total,
        "failures": failures.counts,
        "end_to_end": outcome["e2e"],
        "extra": outcome["extra"],
        "per_layer": outcome["layers"],
        "mine_latencies_ms": outcome["latencies_ms"],
    }
    tracer = outcome.get("tracer")
    if tracer is not None:
        record["self_seconds"] = tracer.self_times()
        tracer.dump(OUT_DIR / f"{name}-spans.jsonl")
    path = write_outputs(name, record, failures)
    extra = {k: v for k, v in outcome["e2e"].items() if k not in E2E}
    extra.update(outcome["extra"])
    print_report(workload, shown, {} if trace else extra,
                 dict(info, nproc=machine["nproc"], python=machine["python"],
                      git_sha=machine["git_sha"], record=str(path.relative_to(path.parents[2]))))
    print_result(correct, outcome["attempted"], failures.total, shown)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every default workload in its own process; one combined line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in DEFAULT_WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {workload} crashed", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print_result(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # One fixed string-hash seed here and in every process started
        # from here: randomized hashing changes set and dict layouts from
        # run to run, which shows up as run-to-run noise.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
