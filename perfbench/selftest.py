"""The benchmark's own tests (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that ``BENCHMARK.json`` and the harness agree on every
metric name and unit, that a seed fully determines a workload's inputs
(sets, order and update stream), and run a reduced pass of every
workload — traced and untraced — checking that the result line carries
exactly the named metrics with their units.  The first run builds the
input cache (a few minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402

harness.require_source()

import inputs  # noqa: E402
import serve  # noqa: E402


@pytest.fixture(scope="module")
def cache():
    return inputs.ensure_built()


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYERS
    assert [w["name"] for w in spec["workloads"]] == list(run.DEFAULT_WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_seed_fixes_the_in_process_sets(cache):
    pools = inputs.load_pools(cache)
    for workload in ("paper_scale", "no_re"):
        for name in inputs.IN_PROCESS_KBS:
            entries = pools[workload][name]
            first = inputs.split(entries, 5, workload)
            assert first == inputs.split(entries, 5, workload)
            assert first != inputs.split(entries, 6, workload)
            warm, measured = first
            assert len(warm) == inputs.WARM_PER_KB and len(measured) == inputs.POOL_PER_KB
            assert not {tuple(e["targets"]) for e in warm} & {
                tuple(e["targets"]) for e in measured
            }


def test_seed_fixes_the_serve_stream(cache):
    from repro.kb.ntriples import iter_ntriples_file

    pool = inputs.load_pools(cache)["serve"]["sets"]
    triples = list(iter_ntriples_file(cache / "db2.nt"))
    protected = {t for s in pool for t in s}

    def stream(seed):
        sets = inputs.zipf_stream(pool, seed, 300)
        ops = inputs.update_stream(triples, protected, seed, 8)
        rows = serve._schedule(list(sets), list(ops), 30.0, 10.0, seed, "main", [0])
        return [(r.id, r.conn, r.offset, r.payload) for r in rows]

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)
    ops = inputs.update_stream(triples, protected, 3, 40)
    present = set(triples)
    for op, triple in ops:  # every op really changes the KB
        assert (triple in present) == (op == "delete")
        (present.add if op == "add" else present.discard)(triple)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.DEFAULT_WORKLOADS)
def test_reduced_pass_reports_every_metric(cache, workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.LAYERS if trace else run.E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), name
        if not trace:
            assert entry["value"] > 0, name
