"""`remi serve` network-layer tests: concurrent clients, MVCC reads and
the update lock, backpressure bounds, graceful drain — and the acceptance pin
that a concurrent mine+update session reports ZERO cache-coherence
violations in the `CacheCoherence` telemetry.

Everything runs in-process on an ephemeral port (`port=0`), with plain
asyncio stream clients, so the suite needs no sockets beyond loopback
and no subprocesses.
"""

import asyncio
import json
import random

import pytest

from repro.core.remi import REMI
from repro.datasets import rennes_nantes_scene
from repro.kb.interned import InternedKnowledgeBase
from repro.kb.namespaces import EX
from repro.service import MiningServer, MiningService, ServiceConfig


def _interned_scene():
    return InternedKnowledgeBase(rennes_nantes_scene().triples(), name="scene")


async def _start(service, **kwargs) -> MiningServer:
    server = MiningServer(service, port=0, **kwargs)
    await server.start()
    return server


class _Client:
    """A tiny NDJSON test client over asyncio streams."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, server: MiningServer) -> "_Client":
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        return cls(reader, writer)

    async def send(self, payload) -> None:
        raw = payload if isinstance(payload, str) else json.dumps(payload)
        self.writer.write(raw.encode("utf-8") + b"\n")
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=30)
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def ask(self, payload) -> dict:
        await self.send(payload)
        return await self.recv()

    async def close(self) -> None:
        self.writer.close()


def test_single_client_session_and_drain():
    async def scenario():
        service = MiningService(_interned_scene())
        server = await _start(service)
        client = await _Client.connect(server)

        mined = await client.ask(
            {"type": "mine", "id": "m", "targets": [str(EX.Rennes)], "verbalize": True}
        )
        assert mined["ok"] and mined["v"] == 1 and mined["kind"] == "mine"
        assert "verbalized" in mined["result"]

        legacy = await client.ask([str(EX.Nantes)])  # untyped batch form
        assert legacy["ok"] and legacy["kind"] == "mine"

        updated = await client.ask(
            {"type": "update", "id": "u", "op": "add",
             "triple": [str(EX.Lyon), str(EX.cityOf), str(EX.France)]}
        )
        assert updated["ok"] and updated["result"]["applied"]

        bad = await client.ask("{not json")
        assert not bad["ok"] and bad["error"]["code"] == "bad_request"
        assert bad["error"]["line"] == 4

        stats = await client.ask({"type": "stats", "id": "s"})
        assert stats["result"]["serving"]["updates_applied"] == 1

        goodbye = await client.ask({"type": "shutdown"})
        assert goodbye["kind"] == "shutdown" and goodbye["result"]["draining"]
        await server.serve_until_drained()

    asyncio.run(scenario())


def test_concurrent_clients_with_interleaved_updates_zero_violations():
    """The acceptance smoke test: several clients mine while one client
    interleaves updates; every response is served, same-connection
    ordering holds, answers match a direct miner on the final state, and
    the coherence telemetry reports zero violations."""

    async def scenario():
        kb = _interned_scene()
        service = MiningService(kb, ServiceConfig(workers=1))
        server = await _start(service, pool_workers=4, max_pending=16)

        query_targets = [[str(EX.Rennes)], [str(EX.Nantes)], [str(EX.Rennes), str(EX.Nantes)]]

        async def querier(tag: str, rounds: int):
            client = await _Client.connect(server)
            rng = random.Random(hash(tag) % 1000)
            answered = 0
            for round_no in range(rounds):
                targets = rng.choice(query_targets)
                record = await client.ask(
                    {"type": "mine", "id": f"{tag}-{round_no}", "targets": targets}
                )
                assert record["ok"], record
                answered += 1
            await client.close()
            return answered

        async def updater(rounds: int):
            client = await _Client.connect(server)
            for round_no in range(rounds):
                # Paired add/delete: the KB ends where it started, but
                # every round bumps epochs and invalidates caches.
                triple = [str(EX[f"u{round_no}"]), str(EX.visited), str(EX.Rennes)]
                added = await client.ask({"op": "add", "triple": triple, "id": f"a{round_no}"})
                assert added["ok"] and added["result"]["applied"]
                removed = await client.ask(
                    {"type": "update", "op": "delete", "triple": triple, "id": f"d{round_no}"}
                )
                assert removed["ok"] and removed["result"]["applied"]
            await client.close()

        answered = await asyncio.gather(
            querier("q1", 12), querier("q2", 12), querier("q3", 12), updater(8)
        )
        assert answered[:3] == [12, 12, 12]

        # Post-churn: service answers equal a cold miner on the final KB.
        checker = await _Client.connect(server)
        record = await checker.ask({"type": "mine", "id": "check",
                                    "targets": [str(EX.Rennes), str(EX.Nantes)]})
        fresh = REMI(InternedKnowledgeBase(kb.triples())).mine([EX.Rennes, EX.Nantes])
        assert record["result"]["found"] == fresh.found
        if fresh.found:
            assert record["result"]["expression"] == repr(fresh.expression)
            assert record["result"]["complexity_bits"] == fresh.complexity

        stats = await checker.ask({"type": "stats", "id": "final"})
        coherence = stats["result"]["serving"]["coherence"]
        assert coherence["violations"] == 0  # the acceptance pin
        assert coherence["epochs_seen"] > 0  # updates really invalidated caches
        assert stats["result"]["serving"]["updates_applied"] == 16

        await checker.send({"type": "shutdown"})
        assert (await checker.recv())["ok"]
        await server.serve_until_drained()

    asyncio.run(scenario())


def test_same_connection_update_barrier_ordering():
    """mine, update, mine on ONE connection: the second mine must observe
    the mutation even though queries run concurrently."""

    async def scenario():
        service = MiningService(_interned_scene())
        server = await _start(service, pool_workers=4)
        client = await _Client.connect(server)

        await client.send({"type": "mine", "id": "before", "targets": [str(EX.Rennes)]})
        await client.send({"op": "add", "id": "u",
                           "triple": [str(EX.Quimper), str(EX.inRegion), str(EX.Bretagne)]})
        await client.send({"type": "mine", "id": "after", "targets": [str(EX.Quimper)]})
        records = {}
        for _ in range(3):
            record = await client.recv()
            records[record["id"]] = record
        # The update flushed "before" first, so "after" is served
        # against the mutated KB: the brand-new entity is known.
        assert records["u"]["ok"] and records["u"]["result"]["applied"]
        assert records["after"]["ok"], records["after"]
        await client.close()
        await server.drain()

    asyncio.run(scenario())


def test_backpressure_bounds_in_flight_requests():
    async def scenario():
        service = MiningService(_interned_scene())
        server = await _start(service, pool_workers=2, max_pending=3)
        clients = [await _Client.connect(server) for _ in range(4)]
        for i, client in enumerate(clients):
            for j in range(5):
                await client.send(
                    {"type": "mine", "id": f"{i}-{j}",
                     "targets": [str(EX.Rennes), str(EX.Nantes)]}
                )
        seen = 0
        for client in clients:
            for _ in range(5):
                record = await client.recv()
                assert record["ok"]
                seen += 1
        assert seen == 20
        await server.drain()  # waits for every handler's finally blocks
        assert server.requests_in_flight == 0

    asyncio.run(scenario())


def test_drain_answers_other_connections_in_flight_requests():
    """A shutdown from one client must NOT drop responses still being
    computed for another client — in-flight requests finish and answer."""

    async def scenario():
        import time as _time

        service = MiningService(_interned_scene())
        inner = service.handle_json

        def slow_handle(payload, line=None):
            record = inner(payload, line=line)
            if record.get("kind") == "mine":
                _time.sleep(0.2)  # hold the request in flight on the pool
            return record

        service.handle_json = slow_handle
        server = await _start(service, pool_workers=2)

        slow_client = await _Client.connect(server)
        await slow_client.send(
            {"type": "mine", "id": "slow", "targets": [str(EX.Rennes)]}
        )
        await asyncio.sleep(0.05)  # ensure the request is scheduled
        admin = await _Client.connect(server)
        await admin.send({"type": "shutdown"})
        record = await slow_client.recv()
        assert record["id"] == "slow" and record["ok"]
        assert (await admin.recv())["kind"] == "shutdown"
        await server.serve_until_drained()

    asyncio.run(scenario())


def test_queries_do_not_wait_for_updates_on_snapshot_backend():
    """The MVCC headline: a mine completes while an update is still
    holding the update lock."""

    async def scenario():
        import time as _time

        service = MiningService(_interned_scene())
        inner = service.handle_json

        def slow_updates(payload, line=None):
            record = inner(payload, line=line)
            if record.get("kind") == "update":
                _time.sleep(0.4)  # the update holds the update lock
            return record

        service.handle_json = slow_updates
        server = await _start(service, pool_workers=2)

        updater = await _Client.connect(server)
        querier = await _Client.connect(server)
        await updater.send(
            {"type": "update", "id": "slow-u", "op": "add",
             "triple": [str(EX.Quimper), str(EX.inRegion), str(EX.Bretagne)]}
        )
        await asyncio.sleep(0.05)  # let the update occupy a pool thread
        loop = asyncio.get_running_loop()
        started = loop.time()
        record = await querier.ask(
            {"type": "mine", "id": "fast-q", "targets": [str(EX.Rennes)]}
        )
        elapsed = loop.time() - started
        assert record["ok"]
        assert elapsed < 0.3, f"query waited for the update ({elapsed:.2f}s)"
        updated = await updater.recv()
        assert updated["ok"] and updated["result"]["applied"]
        await server.drain()

    asyncio.run(scenario())


def test_server_rejects_kb_without_snapshots():
    """MVCC is the only read path: a KB without epoch snapshots (the hash
    store) cannot be served."""
    with pytest.raises(TypeError, match="no epoch snapshots"):
        MiningServer(MiningService(rennes_nantes_scene()))


def test_client_disconnect_mid_reply_balances_accounting():
    """Regression: a client that vanishes while its answer is being
    computed must not leak the backpressure slot or break the in-flight
    counter — and the server keeps serving everyone else."""

    async def scenario():
        import time as _time

        service = MiningService(_interned_scene())
        inner = service.handle_json

        def slow_handle(payload, line=None):
            record = inner(payload, line=line)
            if record.get("kind") == "mine":
                _time.sleep(0.2)  # client is gone before the reply is ready
            return record

        service.handle_json = slow_handle
        server = await _start(service, pool_workers=2, max_pending=2)

        ghost = await _Client.connect(server)
        await ghost.send({"type": "mine", "id": "ghost", "targets": [str(EX.Rennes)]})
        await asyncio.sleep(0.05)  # request admitted and on the pool
        # A hard disconnect (RST, not FIN): the server's transport is
        # torn down before the reply is ready, so _send must swallow it.
        import socket as _socket
        import struct as _struct

        raw = ghost.writer.transport.get_extra_info("socket")
        raw.setsockopt(
            _socket.SOL_SOCKET, _socket.SO_LINGER, _struct.pack("ii", 1, 0)
        )
        await ghost.close()

        # The slot comes back: a live client still gets served (this would
        # hang at max_pending if the dead request leaked its semaphore).
        survivor = await _Client.connect(server)
        for round_no in range(3):
            record = await survivor.ask(
                {"type": "mine", "id": f"alive-{round_no}", "targets": [str(EX.Nantes)]}
            )
            assert record["ok"]
        await survivor.close()
        await server.drain()
        assert server.requests_in_flight == 0
        assert server.responses_dropped >= 1  # the ghost's reply, counted

    asyncio.run(scenario())


def test_drain_failure_is_logged_and_surfaced(caplog):
    """A shutdown whose drain breaks must not vanish into a GC'd task:
    the failure is logged AND re-raised from serve_until_drained()."""

    async def scenario():
        service = MiningService(_interned_scene())
        server = await _start(service)
        inner = server._drain_inner

        async def broken_drain():
            await inner()
            raise RuntimeError("pool refused to shut down")

        server._drain_inner = broken_drain
        client = await _Client.connect(server)
        await client.send({"type": "shutdown"})
        assert (await client.recv())["ok"]  # the goodbye still answers
        with pytest.raises(RuntimeError, match="pool refused to shut down"):
            await server.serve_until_drained()
        assert server._drain_task is not None
        await asyncio.wait([server._drain_task])  # done-callback has run
        assert server._drain_task.done()

    with caplog.at_level("ERROR", logger="repro.service.server"):
        asyncio.run(scenario())
    assert any("graceful drain failed" in r.message for r in caplog.records)


def test_invalid_server_parameters_rejected():
    service = MiningService(_interned_scene())
    with pytest.raises(ValueError):
        MiningServer(service, pool_workers=0)
    with pytest.raises(ValueError):
        MiningServer(service, max_pending=0)
