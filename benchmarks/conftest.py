"""Shared benchmark fixtures and reporting helpers.

Every experiment prints a human-readable report, so ``pytest benchmarks/
--benchmark-only -s`` shows the tables live, and writes it to the
untracked ``benchmarks/out/<experiment>.txt``.  The committed
paper-vs-measured records under ``benchmarks/results/`` are re-recorded
by hand — copy a representative report over the committed one — so a
plain test run never rewrites tracked files with timing churn (the same
policy ``check_regression.py`` applies to the ``BENCH_*.json``
baselines).

Scale knobs (environment variables):

* ``REMI_BENCH_SCALE``    — KB scale factor (default 0.6);
* ``REMI_BENCH_SETS``     — entity sets per KB for the runtime table
  (default 10; the paper uses 100);
* ``REMI_BENCH_TIMEOUT``  — per-set timeout in seconds (default 6;
  the paper uses 7200).
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from repro.datasets import dbpedia_like, wikidata_like

#: Where test runs write their reports (untracked; see the docstring).
OUT_DIR = Path(__file__).parent / "out"

BENCH_SCALE = float(os.environ.get("REMI_BENCH_SCALE", "0.6"))
BENCH_SETS = int(os.environ.get("REMI_BENCH_SETS", "10"))
BENCH_TIMEOUT = float(os.environ.get("REMI_BENCH_TIMEOUT", "6"))


@pytest.fixture(scope="session")
def dbpedia_bench():
    return dbpedia_like(scale=BENCH_SCALE, seed=42)


@pytest.fixture(scope="session")
def wikidata_bench():
    return wikidata_like(scale=BENCH_SCALE, seed=7)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


def report(results_dir: Path, name: str, lines: "list[str]") -> None:
    """Print the experiment report and persist it under *results_dir*."""
    text = "\n".join(lines)
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def sample_entity_sets(generated, classes, count, seed, sizes=(1, 2, 3), weights=(0.5, 0.3, 0.2)):
    """The paper's sampling: sets of 1-3 same-class entities (50/30/20 %),
    drawn from the most frequent instances so they have enough subgraph
    expressions to make the search non-trivial."""
    rng = random.Random(seed)
    frequencies = generated.kb.entity_frequencies()
    pools = {
        cls: sorted(generated.instances_of(cls), key=lambda e: -frequencies[e])[:30]
        for cls in classes
    }
    sets = []
    for _ in range(count):
        cls = rng.choice(classes)
        size = rng.choices(sizes, weights=weights)[0]
        size = min(size, len(pools[cls]))
        sets.append(rng.sample(pools[cls], size))
    return sets
