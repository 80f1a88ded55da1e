"""Guard the perf trajectory: fail CI when a key benchmark ratio regresses.

The CI benches emit ``BENCH_*.json`` artifacts every run, and the
committed baselines live in ``benchmarks/results/``.  This script compares
a fresh artifact against its baseline on the *ratio* metrics only —
speedups and retention factors are machine-relative, so they transfer
across runners where absolute seconds would not — and exits non-zero when
one falls more than the tolerance below the committed value.

Usage::

    python benchmarks/check_regression.py BENCH_pipeline.json
    python benchmarks/check_regression.py BENCH_interned.json --tolerance 0.4
    python benchmarks/check_regression.py BENCH_*.json        # any mix

Each payload's ``benchmark`` field selects the guarded keys (see
:data:`GUARDS`).  Re-record a baseline by copying a representative fresh
artifact over ``benchmarks/results/BENCH_<name>.json`` — deliberately a
manual step, so the trajectory only moves when a human (or a PR review)
decides the new numbers are the new normal.

A few keys additionally carry an **absolute floor** (see :data:`FLOORS`):
a ratchet the fresh value must clear regardless of what any baseline
says, so a quietly-regressed baseline can never lower the bar.

Timing ratios divided out of two phases are only meaningful on hosts
with cores to spare: the benches record ``cpu_count`` in their payload,
and on starved runners (fewer than 4 cores) the keys listed in
:data:`STARVED_ADVISORY_KEYS` downgrade to **advisory** — printed with a
WARN verdict, never failing the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: benchmark name -> {ratio key: tolerance override or None (use --tolerance)}.
#: A key may be absent from old baselines (a bench gained a metric); absent
#: baseline keys are skipped with a notice rather than failed, so adding a
#: metric never requires regenerating every baseline at once.
GUARDS = {
    # Pipeline speedups are ratios of two measured runs and move with the
    # runner's cache/turbo behaviour; the committed baselines come from
    # one machine, so the floor sits wider than the default 20 % (a real
    # kernel regression drops these toward 1.0, far below any floor).
    "candidate-pipeline-phase-split": {
        "overall_id_speedup_vs_seed": 0.35,
        "overall_bounded_sort_score_speedup": 0.35,
    },
    "interned-vs-hash-backend": {
        "overall_interned_speedup": None,
    },
    "live-updates-steady-state": {
        "throughput_retained_at_heaviest_mix": None,
    },
    # Cold-start divides a sub-millisecond mmap open into a parse time,
    # so the ratio swings hugely with disk cache state — the baseline is
    # three orders of magnitude above the floor, and only the absolute
    # ratchet below really binds.
    "image-coldstart": {
        "coldstart_speedup_large": 0.5,
        "worker_rss_saving": 0.5,
    },
}

#: benchmark name -> {ratio key: absolute floor}.  Unlike :data:`GUARDS`
#: (relative to the committed baseline, so a bad baseline lowers the bar),
#: these are ratchets: the FRESH value must clear the floor no matter what
#: the baseline says, and re-recording a baseline can never lower them —
#: raising a floor takes an explicit edit here.  The retained-throughput
#: ratchet pins the MVCC snapshot-read path: before epoch snapshots the
#: heaviest update mix kept ~42% of read-only throughput, with them the
#: netted no-op epochs keep it at parity, and this floor makes sure that
#: number only ever goes up.
FLOORS = {
    "live-updates-steady-state": {
        "throughput_retained_at_heaviest_mix": 0.85,
    },
    # The bounded top-k ratchet: branch-and-bound queue construction
    # must halve the combined score + sort cost of the exact id-kernel
    # build at table-4 scale.  Advisory on core-starved runners (see
    # :data:`STARVED_ADVISORY_KEYS`) — timer noise on an oversubscribed
    # box says nothing about the pruning.
    "candidate-pipeline-phase-split": {
        "overall_bounded_sort_score_speedup": 2.0,
    },
    # The persistent-image ratchets.  Cold start from the image must beat
    # re-parsing the large tier ≥5× (the measured margin is ~3 orders of
    # magnitude, so 5.0 only trips on a real O(file)-work regression in
    # the open path; advisory on core-starved runners, where the parse
    # side is scheduler noise).  The RSS saving is a memory accounting,
    # not a timing — it binds everywhere: image-booted replicas must stay
    # measurably (≥10 %) below wire-rehydrated ones.
    "image-coldstart": {
        "coldstart_speedup_large": 5.0,
        "worker_rss_saving": 0.10,
    },
}

#: Cores below which the advisory timing ratios say nothing about the code.
MIN_TIMING_CORES = 4

#: benchmark name -> keys whose checks go advisory on core-starved
#: runners; the benchmark's other guarded keys keep binding.  The
#: bounded top-k ratio is a single-threaded measurement, but on an
#: oversubscribed shared box the two timed phases it divides are pure
#: scheduler noise.
STARVED_ADVISORY_KEYS = {
    "candidate-pipeline-phase-split": {"overall_bounded_sort_score_speedup"},
    # The cold-start ratio divides a full N-Triples parse by a mmap open;
    # on an oversubscribed box the parse half is scheduler noise.  The
    # RSS saving is deliberately NOT here — memory accounting is exact on
    # any host, so that floor binds everywhere.
    "image-coldstart": {"coldstart_speedup_small", "coldstart_speedup_large"},
}


def key_advisory_reason(fresh: dict, key: str) -> str | None:
    """Why the check on *key* should warn instead of fail, or ``None``."""
    if key not in STARVED_ADVISORY_KEYS.get(fresh.get("benchmark"), ()):
        return None
    cpus = fresh.get("cpu_count")
    if cpus is None:
        return "payload lacks cpu_count (older bench build)"
    if cpus < MIN_TIMING_CORES:
        return f"runner has {cpus} core(s), timings need ≥ {MIN_TIMING_CORES}"
    return None


def check_floors(fresh_path: Path, fresh: dict) -> int:
    """The absolute ratchets: independent of any baseline file."""
    floors = FLOORS.get(fresh.get("benchmark"))
    if not floors:
        return 0
    failures = 0
    for key, floor in floors.items():
        advisory = key_advisory_reason(fresh, key)
        fresh_value = fresh.get(key)
        if fresh_value is None:
            if advisory:
                print(f"{fresh_path}: WARN — no ratcheted {key!r} ({advisory})")
                continue
            print(f"{fresh_path}: FRESH run lacks ratcheted {key!r} — failing")
            failures += 1
            continue
        if fresh_value >= floor:
            verdict = "ok"
        elif advisory:
            verdict = f"WARN (below floor; advisory: {advisory})"
        else:
            verdict = "BELOW ABSOLUTE FLOOR"
        print(
            f"{fresh_path}: {key} = {fresh_value:.3f} "
            f"(absolute floor {floor:.3f}) {verdict}"
        )
        if fresh_value < floor and not advisory:
            failures += 1
    return failures


def check_file(fresh_path: Path, baseline_dir: Path, tolerance: float) -> int:
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    name = fresh.get("benchmark")
    failures = check_floors(fresh_path, fresh)
    guards = GUARDS.get(name)
    if guards is None:
        print(f"{fresh_path}: no guard configured for benchmark {name!r} — skipped")
        return failures
    baseline_path = baseline_dir / fresh_path.name
    if not baseline_path.exists():
        print(f"{fresh_path}: no committed baseline at {baseline_path} — skipped")
        return failures
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    for key, override in guards.items():
        advisory = key_advisory_reason(fresh, key)
        allowed_drop = tolerance if override is None else override
        base_value = baseline.get(key)
        if base_value is None:
            print(f"{fresh_path}: baseline lacks {key!r} (older recording) — skipped")
            continue
        fresh_value = fresh.get(key)
        if fresh_value is None:
            print(f"{fresh_path}: FRESH run lacks {key!r} — failing")
            failures += 1
            continue
        floor = base_value * (1.0 - allowed_drop)
        if fresh_value >= floor:
            verdict = "ok"
        elif advisory:
            verdict = f"WARN (regressed; advisory: {advisory})"
        else:
            verdict = "REGRESSED"
        print(
            f"{fresh_path}: {key} = {fresh_value:.3f} "
            f"(baseline {base_value:.3f}, floor {floor:.3f}) {verdict}"
        )
        if fresh_value < floor and not advisory:
            failures += 1
        elif base_value and fresh_value > base_value * (1.0 + allowed_drop):
            print(
                f"{fresh_path}: note — {key} improved well past the baseline; "
                f"consider re-recording benchmarks/results/{fresh_path.name}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", nargs="+", help="fresh BENCH_*.json artifacts")
    parser.add_argument(
        "--baseline-dir",
        default=str(Path(__file__).parent / "results"),
        help="directory of committed baselines (default: benchmarks/results)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop below the baseline ratio (default 0.2)",
    )
    args = parser.parse_args(argv)
    baseline_dir = Path(args.baseline_dir)
    failures = 0
    for path in args.fresh:
        failures += check_file(Path(path), baseline_dir, args.tolerance)
    if failures:
        print(f"{failures} guarded ratio(s) regressed beyond tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
