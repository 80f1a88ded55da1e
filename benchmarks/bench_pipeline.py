"""Benchmark smoke: candidate-pipeline phase split (enumerate / intersect /
score / sort).

Runs Alg. 1 lines 1–2 — the :class:`~repro.core.candidates.CandidateEngine`
— over the Table 4 smoke scenarios (entity sets of size 1/2/3 in
50/30/20 % proportions, same sampling as ``bench_interned.py``) in three
variants; the backend selects the engine path:

* ``term-hash``     — the Term-space path on the hash backend (the seed
  pipeline: per-SE enumeration, ``holds_for`` intersection, per-SE Ĉ);
* ``id-kernel``     — the mask-native path on the interned backend:
  cross-target intersection as big-int algebra over the KB's shared
  :class:`~repro.kb.idset.MaskStore`, decode-free precompiled
  code-length tables, and lazy SE decode (queue entries materialize only
  when touched — here, during the bit-identity check, outside timing);
* ``bounded-k``     — the id-kernel path with ``top_k=BOUNDED_TOP_K``:
  best-first branch-and-bound queue construction (whole candidate
  families pruned on admissible Ĉ lower bounds, incumbent frontier
  instead of a full sort).  Checked as an exact *prefix* of the
  reference queue rather than full bit-identity — that IS its contract
  (``tests/core/test_topk.py``).

``id-kernel`` must produce queues bit-identical to ``term-hash``
(candidate sets AND Ĉ values) on every entity set — the run aborts
otherwise.  Headline ratios:

* ``id_speedup_vs_seed`` — (enumerate + intersect + score) seconds of the
  Term-space seed pipeline over the id-kernel path; ``--fail-below``
  gates its overall value;
* ``bounded_sort_score_speedup`` — id-kernel over bounded-k on the
  combined score + sort phases (in bounded mode scoring and ordering
  interleave, so only their sum is comparable).  The acceptance bar is
  ≥ 2× overall, ratcheted by ``check_regression.py``.

Scale note (same reasoning as ``test_sec422_phase_split.py``): on the
42 M-fact DBpedia, queues reach 25.2 k candidates per set *with* the
§3.5.2 prominence cutoff active; on our scale-model KBs the cutoff keeps
queues in the tens, where fixed per-request costs drown the pipeline
phases.  To recreate the paper's operating point the miner config here
disables the cutoff (queues then reach the tens of thousands, as in the
paper); the cutoff itself is benchmarked in the pruning ablation.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --out BENCH_pipeline.json

Recorded reference numbers live in ``benchmarks/results/bench_pipeline.txt``
(regenerate with ``--record``); the committed baseline JSON guarded by CI
is ``benchmarks/results/BENCH_pipeline.json`` (see ``check_regression.py``).
Exit code 1 when the guarded ratio falls below ``--fail-below``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.candidates import CandidateEngine  # noqa: E402
from repro.core.config import MinerConfig  # noqa: E402
from repro.core.remi import REMI  # noqa: E402
from repro.core.results import SearchStats  # noqa: E402
from repro.datasets import dbpedia_like, wikidata_like  # noqa: E402
from repro.kb.interned import InternedKnowledgeBase  # noqa: E402

from bench_interned import sample_entity_sets  # noqa: E402

DBPEDIA_CLASSES = ("Person", "Settlement", "Album", "Film", "Organization")
WIKIDATA_CLASSES = ("Company", "City", "Film", "Human")

#: Variants in run order; the first is the bit-identity reference.
VARIANTS = ("term-hash", "id-kernel", "bounded-k")

#: Frontier size of the ``bounded-k`` variant: small against the
#: paper-scale queues (tens of thousands) yet far deeper than any DFS
#: ever streams before its bound prune fires.  Smaller k tightens the
#: k-th-best threshold sooner, so more families are pruned unscored.
BOUNDED_TOP_K = 128


def build_engine(kb, config):
    """A fresh engine with cold memos/tables but a warm prominence model
    (a serving deployment builds prominence once at startup)."""
    miner = REMI(kb, config=config)
    _ = miner.prominent_entities
    return CandidateEngine(
        kb,
        config=config,
        matcher=miner.matcher,
        estimator=miner.estimator,
        prominent=miner.prominent_entities,
    )


def run_variant(kb, config, variant, entity_sets, repeats):
    """Best-of phase timings over all entity sets; returns (row, queues).

    The cyclic GC is paused while the pipeline runs: the queues retained
    for the bit-identity check keep millions of objects alive, and letting
    generational collections fire mid-measurement would tax whichever
    variant happens to run later.
    """
    top_k = BOUNDED_TOP_K if variant == "bounded-k" else None
    best = None
    queues = None
    for _ in range(repeats):
        engine = build_engine(kb, config)
        stats = SearchStats()
        gc.disable()
        try:
            queues = [
                engine.candidates(targets, stats, top_k=top_k)
                for targets in entity_sets
            ]
        finally:
            gc.enable()
        phases = (
            stats.enumerate_seconds,
            stats.intersect_seconds,
            stats.complexity_seconds,
            stats.sort_seconds,
        )
        # enumerate_seconds already covers the intersect sub-timing, so
        # enum + score is phases[0] + phases[2].  The bounded variant is
        # guarded on score + sort (the phases it attacks), so pick its
        # best run by that sum instead.
        metric = (
            (phases[2] + phases[3])
            if top_k is not None
            else (phases[0] + phases[2])
        )
        if best is None or metric < best[0]:
            best = (metric, phases)
    enumerate_s, intersect_s, score_s, sort_s = best[1]
    return (
        {
            "enumerate_seconds": round(enumerate_s - intersect_s, 4),
            "intersect_seconds": round(intersect_s, 4),
            "score_seconds": round(score_s, 4),
            "sort_seconds": round(sort_s, 4),
            "enumerate_plus_score_seconds": round(enumerate_s + score_s, 4),
            "sort_plus_score_seconds": round(score_s + sort_s, 4),
            "candidates": sum(len(q) for q in queues),
        },
        queues,
    )


def assert_identical(name, reference, candidate, variant):
    """Queues must match the reference pipeline exactly: SEs and Ĉ bits."""
    for index, (ref_q, cand_q) in enumerate(zip(reference, candidate)):
        if len(ref_q) != len(cand_q):
            raise SystemExit(
                f"DIVERGENCE on {name} set {index}: {variant} queue length "
                f"{len(cand_q)} != reference {len(ref_q)}"
            )
        if [se for se, _ in ref_q] != [se for se, _ in cand_q]:
            raise SystemExit(
                f"DIVERGENCE on {name} set {index}: {variant} candidate set "
                f"differs from the reference pipeline"
            )
        for (_, ref_c), (se, cand_c) in zip(ref_q, cand_q):
            if ref_c != cand_c:
                raise SystemExit(
                    f"DIVERGENCE on {name} set {index}: {variant} Ĉ({se!r}) = "
                    f"{cand_c!r} != reference {ref_c!r}"
                )


def assert_prefix(name, reference, candidate, variant, k):
    """A bounded queue's contract: exactly the first-k sorted prefix."""
    for index, (ref_q, cand_q) in enumerate(zip(reference, candidate)):
        expected = min(k, len(ref_q))
        if len(cand_q) != expected:
            raise SystemExit(
                f"DIVERGENCE on {name} set {index}: {variant} frontier size "
                f"{len(cand_q)} != min(k={k}, {len(ref_q)})"
            )
        for position in range(expected):
            ref_se, ref_c = ref_q[position]
            cand_se, cand_c = cand_q[position]
            if ref_se != cand_se or ref_c != cand_c:
                raise SystemExit(
                    f"DIVERGENCE on {name} set {index} position {position}: "
                    f"{variant} ({cand_se!r}, {cand_c!r}) != reference "
                    f"({ref_se!r}, {ref_c!r}) — not the sorted prefix"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_pipeline.json")
    parser.add_argument("--scale", type=float, default=1.0, help="KB scale factor")
    parser.add_argument("--sets", type=int, default=12, help="entity sets per KB")
    parser.add_argument("--repeats", type=int, default=2, help="best-of repeats")
    parser.add_argument(
        "--record",
        action="store_true",
        help="also rewrite benchmarks/results/bench_pipeline.txt",
    )
    parser.add_argument(
        "--fail-below",
        type=float,
        default=1.5,
        help="exit 1 when the overall enumerate+intersect+score speedup "
        "(seed vs id-kernel) is below this ratio",
    )
    args = parser.parse_args(argv)

    # Paper-scale queues: see the scale note in the module docstring.
    config = MinerConfig(prominent_object_cutoff=None)
    workloads = [
        ("dbpedia", dbpedia_like(scale=args.scale, seed=42), DBPEDIA_CLASSES, 23),
        ("wikidata", wikidata_like(scale=args.scale, seed=7), WIKIDATA_CLASSES, 29),
    ]
    results = []
    report_lines = [
        "candidate-pipeline phase split (enumerate / intersect / score / sort), "
        "Table 4 smoke",
        f"python {platform.python_version()}, scale={args.scale}, "
        f"sets={args.sets}, best of {args.repeats}",
        "",
        f"{'kb':9s} {'variant':14s} {'enum(s)':>9s} {'isect(s)':>9s} "
        f"{'score(s)':>9s} {'sort(s)':>9s} {'enum+score':>11s}",
    ]
    for name, generated, classes, seed in workloads:
        hash_kb = generated.kb
        interned_kb = InternedKnowledgeBase(hash_kb.triples(), name=hash_kb.name)
        entity_sets = sample_entity_sets(generated, classes, args.sets, seed)
        rows = {}
        reference_queues = None
        for variant in VARIANTS:
            kb = hash_kb if variant == "term-hash" else interned_kb
            row, queues = run_variant(kb, config, variant, entity_sets, args.repeats)
            if reference_queues is None:
                reference_queues = queues
            elif variant == "bounded-k":
                assert_prefix(
                    name, reference_queues, queues, variant, BOUNDED_TOP_K
                )
            else:
                assert_identical(name, reference_queues, queues, variant)
            rows[variant] = row
            report_lines.append(
                f"{name:9s} {variant:14s} {row['enumerate_seconds']:>9.4f} "
                f"{row['intersect_seconds']:>9.4f} {row['score_seconds']:>9.4f} "
                f"{row['sort_seconds']:>9.4f} "
                f"{row['enumerate_plus_score_seconds']:>11.4f}"
            )
        result = {
            "kb": name,
            "facts": len(hash_kb),
            "entity_sets": len(entity_sets),
            "variants": rows,
            "id_speedup_vs_seed": round(
                rows["term-hash"]["enumerate_plus_score_seconds"]
                / rows["id-kernel"]["enumerate_plus_score_seconds"],
                3,
            ),
            "bounded_sort_score_speedup": round(
                rows["id-kernel"]["sort_plus_score_seconds"]
                / rows["bounded-k"]["sort_plus_score_seconds"],
                3,
            ),
        }
        report_lines.append(
            f"{name:9s} id-kernel speedup: "
            f"{result['id_speedup_vs_seed']:.2f}x vs seed (term-hash)"
        )
        report_lines.append(
            f"{name:9s} bounded-k (top_k={BOUNDED_TOP_K}) sort+score "
            f"speedup vs id-kernel: "
            f"{result['bounded_sort_score_speedup']:.2f}x"
        )
        results.append(result)
        print(report_lines[-1])

    def overall(numerator, denominator, phases):
        return sum(r["variants"][numerator][phases] for r in results) / sum(
            r["variants"][denominator][phases] for r in results
        )

    payload = {
        "benchmark": "candidate-pipeline-phase-split",
        "protocol": "table4-smoke",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "scale": args.scale,
        "sets_per_kb": args.sets,
        "repeats": args.repeats,
        "results": results,
        "queues_bit_identical": True,
        "overall_id_speedup_vs_seed": round(
            overall("term-hash", "id-kernel", "enumerate_plus_score_seconds"), 3
        ),
        "bounded_top_k": BOUNDED_TOP_K,
        "overall_bounded_sort_score_speedup": round(
            overall("id-kernel", "bounded-k", "sort_plus_score_seconds"), 3
        ),
    }
    guarded = payload["overall_id_speedup_vs_seed"]
    guarded_label = "overall id-kernel speedup vs seed"

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    report_lines += [
        "",
        f"overall id-kernel enumerate+intersect+score speedup vs seed: "
        f"{guarded:.2f}x",
        f"overall bounded-k (top_k={BOUNDED_TOP_K}) sort+score speedup "
        f"vs id-kernel: "
        f"{payload['overall_bounded_sort_score_speedup']:.2f}x",
        "queues bit-identical: id-kernel == term-hash "
        "(bounded-k checked as exact sorted prefix)",
    ]
    if args.record:
        record = Path(__file__).parent / "results" / "bench_pipeline.txt"
        record.write_text("\n".join(report_lines) + "\n", encoding="utf-8")
        print(f"recorded -> {record}")
    print(f"{guarded_label}: {guarded:.2f}x -> {args.out}")
    if guarded < args.fail_below:
        print(
            f"FAIL: {guarded_label} below the floor "
            f"(ratio {guarded:.2f} < {args.fail_below})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
