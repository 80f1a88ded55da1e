"""Workload inputs: generated KBs, set pools, reference answers, sampling.

The KBs are fixed scale models (the seeds the repo's other benches use);
the pools of target sets are fixed too, so every run measures the same
mix; a run's ``--seed`` orders the in-process sets and, for ``serve``,
draws the request sequence and the updates.  Building the pools needs the reference miner,
which is slow, so :func:`ensure_built` does it once per source digest
and keeps the result under ``perfbench/cache/<digest>/``:

* ``db1.nt`` / ``wd1.nt`` — dbpedia-like and wikidata-like, scale 1.0
  (the paper-scale operating point of ``bench_pipeline.py``);
* ``db2.nt`` / ``db2.img`` — dbpedia-like scale 2.0 and its KB image,
  what ``serve`` boots from;
* ``pools.json`` — per KB, the Table-4 sets of each workload with their
  queue length and the answer of the hash-backend Term-space reference
  miner (``found``, ``expression``, ``complexity_bits``).

Pool sets are Table-4 samples: 1/2/3 same-class entities in 50/30/20 %
proportions among each class's 30 most frequent instances.

* ``paper_scale`` keeps sets that have an RE (the miner finds one) and
  1 000–70 000 candidates;
* ``no_re`` keeps multi-entity sets with no RE whose queue has 9–14
  candidates, so the exhaustive walk (2^(n−1) ≤ 8192 nodes) does real
  work yet ends far inside the 1 s deadline;
* ``no_re_hard`` (built on first use only) keeps multi-entity sets with
  ≥ 24 candidates and no RE — today they time out or overflow the
  recursion, which is what its failure log records.

Run ``python3 perfbench/inputs.py`` to build the cache by hand.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import CACHE_DIR, require_source, source_digest  # noqa: E402

#: name -> (kind, scale, generator seed, classes)
KBS = {
    "db1": ("dbpedia", 1.0, 42, ("Person", "Settlement", "Album", "Film", "Organization")),
    "wd1": ("wikidata", 1.0, 7, ("Company", "City", "Film", "Human")),
    "db2": ("dbpedia", 2.0, 42, ("Person", "Settlement", "Album", "Film", "Organization")),
}
IN_PROCESS_KBS = ("db1", "wd1")
#: Per KB and in-process workload: sets every run mines, plus warm-up
#: sets (drawn first, never measured).
POOL_PER_KB = 16
WARM_PER_KB = 2
#: paper_scale queue lengths: the paper's 10^3–10^5 operating point.
PAPER_QUEUE = (1000, 70000)
HARD_PER_KB = 8
SERVE_POOL = 300
NO_RE_QUEUE = (9, 14)
HARD_MIN_QUEUE = 24
#: Search deadline of the no_re workloads (seconds).
NO_RE_DEADLINE = 1.0


def _generate(name: str):
    from repro.datasets import dbpedia_like, wikidata_like

    kind, scale, seed, _ = KBS[name]
    make = dbpedia_like if kind == "dbpedia" else wikidata_like
    return make(scale=scale, seed=seed)


def table4_draws(generated, classes: Sequence[str], rng: random.Random, top: int = 30):
    """Endless Table-4 samples (sorted IRI strings, duplicates skipped)."""
    frequencies = generated.kb.entity_frequencies()
    pools = {
        cls: sorted(generated.instances_of(cls), key=lambda e: (-frequencies[e], str(e)))[:top]
        for cls in classes
    }
    seen = set()
    while True:
        cls = rng.choice(classes)
        size = rng.choices((1, 2, 3), weights=(0.5, 0.3, 0.2))[0]
        targets = tuple(sorted(str(e) for e in rng.sample(pools[cls], size)))
        if targets not in seen:
            seen.add(targets)
            yield targets


_NO_RE = {"found": False, "expression": None, "complexity_bits": None}


def answer_of(result) -> Dict:
    """The comparable part of a mining result."""
    if not result.found:
        return dict(_NO_RE)
    return {
        "found": True,
        "expression": repr(result.expression),
        "complexity_bits": result.complexity,
    }


def _probe(miner, targets) -> Tuple[str, object]:
    """Mine once: ("found"|"none"|"timeout"|"recursion", result)."""
    from repro.kb.terms import IRI

    try:
        result = miner.mine([IRI(t) for t in targets])
    except RecursionError:
        return "recursion", None
    if result.stats.timed_out:
        return "timeout", result
    return ("found" if result.found else "none"), result


def _in_process_pools(name: str, wanted: Dict[str, int]) -> Dict[str, List[Dict]]:
    """Draw pool sets of the *wanted* workloads (name -> count) for one KB.

    Selection is deterministic: it depends on queue lengths, on the
    conjunction-of-the-whole-queue test and on node counts, never on
    timings, so every machine draws the same pools.
    """
    from repro.core.config import MinerConfig
    from repro.core.remi import REMI
    from repro.core.results import SearchStats
    from repro.expressions.expression import Expression
    from repro.kb.interned import InternedKnowledgeBase
    from repro.kb.terms import IRI

    generated = _generate(name)
    kb = InternedKnowledgeBase(generated.kb.triples(), name=name)
    probe = REMI(kb, config=MinerConfig(prominent_object_cutoff=None, timeout_seconds=5.0))
    pools: Dict[str, List[Dict]] = {key: [] for key in wanted}
    lo, hi = NO_RE_QUEUE

    def needs(key: str) -> bool:
        return key in wanted and len(pools[key]) < wanted[key]

    rng = random.Random(f"perfbench-pool:{name}")
    for draws, targets in enumerate(table4_draws(generated, KBS[name][3], rng)):
        if not any(needs(key) for key in wanted) or draws > 4000:
            break
        multi = len(targets) > 1
        if not (multi or needs("paper_scale")):
            continue  # only paper_scale takes single targets
        iris = [IRI(t) for t in targets]
        queue = probe.candidates(iris, SearchStats())
        entry = {"targets": list(targets), "queue_len": len(queue)}
        in_range = multi and lo <= len(queue) <= hi
        if multi and len(queue) > hi:
            hard = len(queue) >= HARD_MIN_QUEUE and needs("no_re_hard")
            if not (hard or needs("paper_scale")):
                continue
            # Whether any RE exists: the conjunction of the whole queue.
            conj = Expression(tuple(se for se, _ in queue))
            if not probe.matcher.identifies(conj, frozenset(iris)):
                if hard:
                    entry["expected"] = dict(_NO_RE)
                    pools["no_re_hard"].append(entry)
                continue
        paper = PAPER_QUEUE[0] <= len(queue) <= PAPER_QUEUE[1] and needs("paper_scale")
        if not (paper or (in_range and needs("no_re"))):
            continue
        status, result = _probe(probe, targets)
        if status == "found" and paper and result.stats.nodes_visited <= 20000:
            pools["paper_scale"].append(entry)
        elif status == "none" and in_range and needs("no_re"):
            pools["no_re"].append(entry)
    if "no_re_hard" not in wanted:
        _attach_reference(generated, [e for entries in pools.values() for e in entries])
    return pools


def _attach_reference(generated, entries: List[Dict]) -> None:
    """The hash-backend Term-space reference answer of every entry."""
    from repro.core.config import MinerConfig
    from repro.core.remi import REMI
    from repro.kb.terms import IRI

    reference = REMI(generated.kb, config=MinerConfig(prominent_object_cutoff=None))
    for entry in entries:
        entry["expected"] = answer_of(reference.mine([IRI(t) for t in entry["targets"]]))


def _serve_pool() -> List[Dict]:
    """Table-4 sets over db2 that the default config answers in at most
    256 search nodes, each with its count of enumerated expressions (a
    cost key that does not depend on the machine)."""
    from repro.core.config import MinerConfig
    from repro.core.remi import REMI
    from repro.kb.interned import InternedKnowledgeBase

    generated = _generate("db2")
    kb = InternedKnowledgeBase(generated.kb.triples(), name="db2")
    probe = REMI(kb, config=MinerConfig(timeout_seconds=1.0))
    rng = random.Random("perfbench-pool:serve")
    sets: List[Dict] = []
    for draws, targets in enumerate(table4_draws(generated, KBS["db2"][3], rng, top=40)):
        if len(sets) >= SERVE_POOL or draws > 5000:
            break
        status, result = _probe(probe, targets)
        if status in ("found", "none") and result.stats.nodes_visited <= 256:
            sets.append({"targets": list(targets), "enumerated": result.stats.enumerated})
    return sets


def cache_dir() -> Path:
    return CACHE_DIR / source_digest([Path(__file__)])


def _write_kb(name: str, directory: Path) -> None:
    from repro.kb.image import build_image
    from repro.kb.ntriples import write_ntriples_file

    write_ntriples_file(_generate(name).kb.triples(), directory / f"{name}.nt")
    if name == "db2":
        build_image(str(directory / "db2.nt"), str(directory / "db2.img"), name="db2")


def build(target: Path) -> None:
    """Generate every KB file and pool into *target* (atomically), the
    two in-process KBs' pools in two processes."""
    from concurrent.futures import ProcessPoolExecutor

    started = time.perf_counter()
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    staging.mkdir(parents=True, exist_ok=True)
    for name in KBS:
        _write_kb(name, staging)
    wanted = {"paper_scale": WARM_PER_KB + POOL_PER_KB, "no_re": WARM_PER_KB + POOL_PER_KB}
    with ProcessPoolExecutor(max_workers=2) as executor:
        drawn = dict(zip(IN_PROCESS_KBS, executor.map(
            _in_process_pools, IN_PROCESS_KBS, [wanted] * len(IN_PROCESS_KBS))))
        serve_sets = _serve_pool()
    pools: Dict[str, Dict] = {
        workload: {name: drawn[name][workload] for name in IN_PROCESS_KBS}
        for workload in wanted
    }
    pools["serve"] = {"sets": serve_sets}
    (staging / "pools.json").write_text(json.dumps(pools, indent=1) + "\n")
    for stale in CACHE_DIR.iterdir():  # inputs of other source versions
        if stale != staging:
            shutil.rmtree(stale)
    staging.rename(target)
    print(f"perfbench: inputs built in {time.perf_counter() - started:.1f}s", file=sys.stderr)


def ensure_built() -> Path:
    """The cache directory for the current sources, built if missing."""
    target = cache_dir()
    if not (target / "pools.json").is_file():
        build(target)
    return target


def load_pools(directory: Path) -> Dict:
    return json.loads((directory / "pools.json").read_text())


def hard_pools(directory: Path) -> Dict[str, List[Dict]]:
    """no_re_hard pools (built and cached on first use)."""
    path = directory / "hard.json"
    if not path.is_file():
        pools = {
            name: _in_process_pools(name, {"no_re_hard": HARD_PER_KB})["no_re_hard"]
            for name in IN_PROCESS_KBS
        }
        path.write_text(json.dumps(pools, indent=1) + "\n")
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# per-seed sampling
# ----------------------------------------------------------------------


def split(entries: Sequence[Dict], seed: int, tag: str) -> Tuple[List[Dict], List[Dict]]:
    """(warm-up, measured) sets of one in-process pool: the warm-up sets
    are the first drawn; the seed orders the measured ones."""
    warm, measured = list(entries[:WARM_PER_KB]), list(entries[WARM_PER_KB:])
    random.Random(f"{tag}:{seed}").shuffle(measured)
    return warm, measured


def zipf_stream(pool: Sequence[Dict], seed: int, count: int, exponent: float = 1.0,
                bands: int = 10) -> List[List[str]]:
    """*count* draws over the pool with Zipf popularity, the draws made
    by the seed.  Popularity ranks are fixed, and every run of ``bands``
    consecutive ranks holds one set from each cost band (the pool cut
    by enumerated expressions), so cheap and costly sets are equally
    popular."""
    rng = random.Random("serve-popularity")
    ordered = sorted(pool, key=lambda e: (e["enumerated"], e["targets"]))
    width = math.ceil(len(ordered) / bands)
    groups = [ordered[i : i + width] for i in range(0, len(ordered), width)]
    for group in groups:
        rng.shuffle(group)
    ranked = []
    for rank in range(width):
        layer = [group[rank] for group in groups if rank < len(group)]
        rng.shuffle(layer)
        ranked += layer
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(ranked))]
    draws = random.Random(f"serve-sets:{seed}").choices(ranked, weights=weights, k=count)
    return [list(e["targets"]) for e in draws]


def update_stream(triples, protected: set, seed: int, count: int) -> List[Tuple[str, Tuple]]:
    """*count* genuine mutations: deletes of existing entity-to-entity
    facts and adds of new facts (an existing subject and predicate with
    another object that predicate already points to).  Facts touching a
    pool target are left alone, so no pool set changes its answer
    class mid-run.  Every op changes the KB when applied in order."""
    from repro.kb.terms import IRI

    rng = random.Random(f"serve-updates:{seed}")
    facts = sorted(
        (t for t in triples if isinstance(t.object, IRI) and "type" not in str(t.predicate)),
        key=lambda t: t.n3(),
    )
    facts = [
        t for t in facts if str(t.subject) not in protected and str(t.object) not in protected
    ]
    by_predicate: Dict[str, List] = {}
    for t in facts:
        by_predicate.setdefault(str(t.predicate), []).append(t)
    present = set(triples)
    ops: List[Tuple[str, Tuple]] = []
    while len(ops) < count:
        base = rng.choice(facts)
        if rng.random() < 0.5:
            if base in present:
                present.discard(base)
                ops.append(("delete", base))
            continue
        other = rng.choice(by_predicate[str(base.predicate)])
        candidate = type(base)(base.subject, base.predicate, other.object)
        if candidate not in present:
            present.add(candidate)
            ops.append(("add", candidate))
    return ops


if __name__ == "__main__":
    require_source()
    print(ensure_built())
