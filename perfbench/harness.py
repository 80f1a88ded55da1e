"""Shared plumbing of the benchmark: paths, statistics, fingerprint, output.

Everything the workloads have in common and nothing else: where the
input cache and the untracked outputs live, nearest-rank percentiles,
PSS memory, the machine fingerprint, the failure log and the one-line
JSON result the harness prints last.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Generated KBs, pools and reference answers (untracked, rebuilt when
#: the program or the benchmark's input code changes).
CACHE_DIR = BENCH_DIR / "cache"
#: Result records, failure logs and span dumps (untracked).
OUT_DIR = BENCH_DIR / "out"

#: Latency limit behind ``max_rate_rps``: the highest offered rate whose
#: mine p99 stays at or under this many milliseconds.
P99_LIMIT_MS = 1000.0


def require_source() -> None:
    """Exit non-zero (no result line) when the program is not next to us."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def source_digest(extra: Iterable[Path] = ()) -> str:
    """Hash of the program sources plus *extra* files: the cache key."""
    digest = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(extra)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0–100) of an unsorted sequence."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def pss_mb(pids: Iterable[int]) -> float:
    """Proportional set size summed over *pids*, in MiB (shared pages
    count once across the processes that map them)."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU time consumed so far by *pids* (threads included)."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / tick


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without leaving the
    checkout ("none" outside a git work tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "none"


def fingerprint() -> Dict:
    """Where a number was measured: recorded in every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


class Failures:
    """Failed requests of one run, by kind, with a log line per request."""

    KINDS = ("internal", "timeout", "wrong", "lost")

    def __init__(self) -> None:
        self.counts = {kind: 0 for kind in self.KINDS}
        self.records: List[Dict] = []

    def add(self, kind: str, targets, queue_len: Optional[int] = None, **detail) -> None:
        self.counts[kind] += 1
        record = {"kind": kind, "targets": list(targets), "queue_len": queue_len}
        record.update(detail)
        self.records.append(record)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def metrics(self) -> Dict[str, float]:
        return {f"fail.{kind}": float(count) for kind, count in self.counts.items()}


def write_outputs(name: str, record: Dict, failures: Failures) -> Path:
    """The untracked result record and failure log of one run."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    log = OUT_DIR / f"{name}-failures.jsonl"
    log.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in failures.records))
    return path


def print_report(
    workload: str,
    metrics: Dict[str, Dict],
    extra: Dict[str, Dict],
    info: Dict,
) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"# workload {workload}  " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, entry in list(metrics.items()) + list(extra.items()):
        print(f"{name:32s} {entry['value']:>14.6g} {entry['unit']}")


def print_result(correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict]) -> None:
    """The last line of standard output, read by whoever drives the run."""
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(entry["value"]), "unit": entry["unit"]}
            for name, entry in metrics.items()
        },
    }
    print(json.dumps(line), flush=True)


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}
