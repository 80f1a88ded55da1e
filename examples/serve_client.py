"""Concurrent clients against a running ``remi serve`` instance.

Demonstrates the NDJSON-over-TCP envelope protocol end to end: several
query clients mine referring expressions while an update client
interleaves ``add``/``delete`` mutations — MVCC snapshot reads and the
server's update lock keep every answer coherent (and its telemetry
proves it: the final stats response must report zero cache-coherence
violations).

Start a server, then run this client::

    PYTHONPATH=src python -m repro.cli generate --kind wikidata --scale 0.3 --out /tmp/kb.hdt
    PYTHONPATH=src python -m repro.cli serve /tmp/kb.hdt --port 8757 &
    python examples/serve_client.py --port 8757 --shutdown

``--shutdown`` sends the drain request at the end, so the server exits
cleanly — which is exactly how the CI smoke test drives it.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time


class Client:
    """One NDJSON connection; correlates responses by request id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def ask(self, payload: dict) -> dict:
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        line = await asyncio.wait_for(self.reader.readline(), timeout=60)
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()


async def query_worker(tag: str, host: str, port: int, targets: list, rounds: int) -> int:
    client = await Client.connect(host, port)
    found = 0
    for round_no in range(rounds):
        target = targets[round_no % len(targets)]
        response = await client.ask(
            {"type": "mine", "id": f"{tag}-{round_no}", "targets": [target],
             "verbalize": True}
        )
        if not response["ok"]:
            raise RuntimeError(f"{tag}: server error {response['error']}")
        if response["result"]["found"]:
            found += 1
            if round_no == 0:
                print(f"[{tag}] {target} → {response['result']['verbalized']!r} "
                      f"({response['result']['complexity_bits']:.2f} bits)")
    await client.close()
    return found


async def update_worker(host: str, port: int, targets: list, rounds: int) -> int:
    """Paired add/delete churn: mutates between the queriers' requests,
    leaving the KB unchanged at the end."""
    client = await Client.connect(host, port)
    applied = 0
    for round_no in range(rounds):
        triple = [f"urn:example:churn{round_no}", "urn:example:saw", targets[0]]
        for op in ("add", "delete"):
            response = await client.ask(
                {"type": "update", "id": f"{op}{round_no}", "op": op, "triple": triple}
            )
            if not response["ok"]:
                raise RuntimeError(f"update error: {response['error']}")
            applied += response["result"]["applied"]
    await client.close()
    return applied


def _mine_essence(record: dict) -> dict:
    """The answer bits of a mine response: identical across replicas and
    restarts (timing and per-request search counters are not)."""
    result = record.get("result", {})
    return {
        key: result.get(key)
        for key in ("found", "expression", "complexity_bits", "verbalized")
    }


async def chaos_kill(admin: "Client", target: str) -> int:
    """Kill one replica by pid mid-run and prove the fleet self-heals:
    the supervisor must respawn it (restarts >= 1, full live count) and
    the identical mine must answer bit-identically afterwards."""
    probe = {"type": "mine", "id": "chaos-pre", "targets": [target],
             "verbalize": True}
    before = await admin.ask(probe)
    if not before["ok"]:
        print(f"FAIL: chaos probe errored before the kill: {before['error']}",
              file=sys.stderr)
        return 1
    stats = await admin.ask({"type": "stats", "id": "chaos-stats"})
    pool = stats["result"].get("server", {}).get("workers")
    if not pool or not pool.get("supervised"):
        print("FAIL: --chaos-kill needs a supervised multi-worker server",
              file=sys.stderr)
        return 1
    victim = next(w for w in pool["per_worker"] if w["alive"])
    print(f"chaos: kill -9 worker {victim['worker']} (pid {victim['pid']})")
    os.kill(victim["pid"], signal.SIGKILL)

    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        stats = await admin.ask({"type": "stats", "id": "chaos-wait"})
        pool = stats["result"]["server"]["workers"]
        if pool["alive"] == pool["count"] and pool["restarts"] >= 1:
            break
        await asyncio.sleep(0.25)
    else:
        print(f"FAIL: fleet never healed after kill: {pool}", file=sys.stderr)
        return 1
    print(f"chaos: healed — alive={pool['alive']}/{pool['count']} "
          f"restarts={pool['restarts']} "
          f"epochs={[w['epoch'] for w in pool['per_worker']]}")

    after = await admin.ask({**probe, "id": "chaos-post"})
    if not after["ok"]:
        print(f"FAIL: post-restart probe errored: {after['error']}",
              file=sys.stderr)
        return 1
    if _mine_essence(before) != _mine_essence(after):
        print(f"FAIL: post-restart answer drifted:\n  before={_mine_essence(before)}"
              f"\n  after={_mine_essence(after)}", file=sys.stderr)
        return 1
    print("chaos: post-restart mine answer bit-identical")
    return 0


async def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8757)
    parser.add_argument("--clients", type=int, default=3, help="concurrent queriers")
    parser.add_argument("--rounds", type=int, default=8, help="requests per querier")
    parser.add_argument(
        "--targets",
        nargs="*",
        default=[f"http://wikidata.example.org/entity/City_{i}" for i in range(4)],
        help="entity IRIs to mine (default: the synthetic wikidata naming scheme)",
    )
    parser.add_argument(
        "--shutdown", action="store_true", help="drain the server when done"
    )
    parser.add_argument(
        "--chaos-kill",
        action="store_true",
        help="kill one worker replica by pid mid-run (SIGKILL) and assert "
        "the supervisor respawns it with the mine answer unchanged",
    )
    parser.add_argument(
        "--expect-workers",
        type=int,
        default=None,
        metavar="N",
        help="fail unless the server reports N live worker replicas, "
        "all at the serving epoch (multi-process smoke check)",
    )
    args = parser.parse_args()

    workers = [
        query_worker(f"q{i}", args.host, args.port, args.targets, args.rounds)
        for i in range(args.clients)
    ]
    workers.append(update_worker(args.host, args.port, args.targets, args.rounds // 2))
    results = await asyncio.gather(*workers)
    print(f"queriers found REs in {sum(results[:-1])} responses; "
          f"{results[-1]} update ops applied")

    admin = await Client.connect(args.host, args.port)
    if args.chaos_kill:
        failed = await chaos_kill(admin, args.targets[0])
        if failed:
            return failed
    stats = await admin.ask({"type": "stats", "id": "final"})
    serving = stats["result"]["serving"]
    coherence = serving["coherence"]
    print(f"served={serving['requests_served']} updates={serving['updates_applied']} "
          f"epoch={serving['epoch']} coherence={coherence}")
    if coherence["violations"] != 0:
        print("FAIL: cache-coherence violations reported", file=sys.stderr)
        return 1
    if args.expect_workers is not None:
        pool = stats["result"].get("server", {}).get("workers")
        if pool is None:
            print("FAIL: server reports no worker pool", file=sys.stderr)
            return 1
        replicas = pool["per_worker"]
        lagging = [w for w in replicas if w["epoch"] != serving["epoch"]]
        print(f"workers={pool['alive']}/{pool['count']} "
              f"epochs={[w['epoch'] for w in replicas]} "
              f"fanned={pool['updates_fanned']} resyncs={pool['resyncs']}")
        if pool["alive"] != args.expect_workers:
            print(f"FAIL: expected {args.expect_workers} live workers, "
                  f"got {pool['alive']}", file=sys.stderr)
            return 1
        if lagging:
            print(f"FAIL: replicas behind the serving epoch: {lagging}",
                  file=sys.stderr)
            return 1
    if args.shutdown:
        goodbye = await admin.ask({"type": "shutdown"})
        assert goodbye["ok"], goodbye
        print("server draining; bye")
    await admin.close()
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
