"""Command-line interface — a thin client of :class:`repro.service.MiningService`.

Six subcommands::

    remi generate --kind dbpedia --scale 1.0 --out kb.hdt     # build a KB
    remi build-image kb.nt kb.img                             # persistent image
    remi mine kb.hdt <entity-iri> [<entity-iri> ...]          # mine an RE
    remi batch kb.hdt requests.jsonl                          # many targets
    remi serve kb.img --port 8757                             # network server
    remi stats kb.hdt                                         # KB statistics

Every mining subcommand builds the same :class:`~repro.service.ServiceConfig`
(backend / miner / prominence resolved through the plugin registries of
:mod:`repro.registry`) and talks to the same façade — the CLI adds only
argument parsing and printing.

``mine`` prints the winning referring expression, its Ĉ in bits, the NL
verbalization and the search statistics; ``--json`` emits the same
versioned response envelope the service returns on the wire instead.
``batch`` streams the JSONL request/update protocol
(:mod:`repro.core.batch`) — one JSON record per input line, malformed
lines becoming structured per-line error records
(``{"code", "reason", "line"}``); the exit code is non-zero only on I/O
failure, never for per-line errors.  ``serve`` starts the concurrent
NDJSON-over-TCP server (:mod:`repro.service.server`); ``--workers N``
scales it out to N worker processes, each holding an epoch replica of
the KB (:mod:`repro.service.workers`), with ``--workers 0`` keeping the
single-process reference behaviour.  Input KBs may be
RHDT binaries (``.hdt``), persistent KB images (``remi build-image``
output, sniffed by magic and mmap-opened zero-copy — the fast cold-start
path, and with ``--workers N`` the page cache is shared across the whole
fleet) or N-Triples text (anything else).  ``--backend`` picks the
storage backend of ``stats``, ``mine`` and ``batch``: ``interned``
(dictionary-encoded integer IDs, the faster choice for mining workloads)
by default — answers are identical on ``hash``, only timings differ.
``serve`` always loads the interned store, because it reads from MVCC
epoch snapshots.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.config import LanguageBias, MinerConfig
from repro.registry import KB_BACKENDS, MINERS, PROMINENCE
from repro.service import MineRequest, MiningService, ServiceConfig, StatsRequest


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """The one place CLI flags become a validated service config."""
    defaults = ServiceConfig()
    return ServiceConfig(
        backend=args.backend,
        miner=args.miner,
        prominence=args.prominence,
        workers=getattr(args, "workers", 1),
        request_timeout=getattr(args, "request_timeout", defaults.request_timeout),
        heartbeat_interval=getattr(
            args, "heartbeat_interval", defaults.heartbeat_interval
        ),
        max_restarts=getattr(args, "max_restarts", defaults.max_restarts),
        restart_backoff=getattr(args, "restart_backoff", defaults.restart_backoff),
        miner_config=MinerConfig(
            language=(
                LanguageBias.STANDARD
                if getattr(args, "standard", False)
                else LanguageBias.REMI
            ),
            timeout_seconds=getattr(args, "timeout", None),
            top_k=getattr(args, "top_k", None),
        ),
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import dbpedia_like, wikidata_like
    from repro.kb.hdt import save_hdt
    from repro.kb.ntriples import write_ntriples_file

    if args.stream:
        from repro.datasets import write_schema_ntriples
        from repro.datasets.dbpedia import dbpedia_schema
        from repro.datasets.wikidata import wikidata_schema

        if args.out.endswith(".hdt"):
            print(
                "remi generate: --stream writes N-Triples only "
                "(.hdt needs the whole KB in memory — drop --stream)",
                file=sys.stderr,
            )
            return 2
        if args.kind == "dbpedia":
            schema = dbpedia_schema(scale=args.scale)
        elif args.kind == "wikidata":
            schema = wikidata_schema(scale=args.scale)
        else:
            print(f"unknown KB kind {args.kind!r}", file=sys.stderr)
            return 2
        count = write_schema_ntriples(schema, args.out, seed=args.seed)
        print(f"wrote {args.out}: {count} statements (N-Triples, streamed)")
        return 0
    if args.kind == "dbpedia":
        generated = dbpedia_like(scale=args.scale, seed=args.seed)
    elif args.kind == "wikidata":
        generated = wikidata_like(scale=args.scale, seed=args.seed)
    else:
        print(f"unknown KB kind {args.kind!r}", file=sys.stderr)
        return 2
    kb = generated.kb
    if args.out.endswith(".hdt"):
        size = save_hdt(kb, args.out)
        print(f"wrote {args.out}: {len(kb)} facts, {size} bytes (RHDT)")
    else:
        count = write_ntriples_file(kb.triples(), args.out)
        print(f"wrote {args.out}: {count} statements (N-Triples)")
    return 0


def _cmd_build_image(args: argparse.Namespace) -> int:
    from repro.kb.image import ImageError, build_image

    kwargs = {}
    if args.batch_size is not None:
        kwargs["batch_size"] = args.batch_size
    try:
        stats = build_image(
            args.source, args.out, name=args.name, masks=args.masks, **kwargs
        )
    except ImageError as exc:
        print(f"remi build-image: {exc}", file=sys.stderr)
        return 2
    extra = f", {stats.mask_pages} mask pages" if args.masks else ""
    print(
        f"wrote {stats.path}: {stats.facts} facts, {stats.terms} terms, "
        f"epoch {stats.epoch}, {stats.bytes} bytes{extra}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    service = MiningService.from_path(
        args.kb, ServiceConfig(backend=args.backend)
    )
    response = service.stats(StatsRequest(id="stats"))
    if args.json:
        print(json.dumps(response.to_json(), ensure_ascii=False))
        return 0
    kb_stats = response.result["kb"]
    width = max(map(len, kb_stats), default=0)
    for key, value in kb_stats.items():
        print(f"{key:{width}s} {value}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    service = MiningService.from_path(args.kb, _service_config(args))
    request = MineRequest(
        id="cli", targets=tuple(args.entities), verbalize=True
    )
    response = service.mine(request)
    if args.json:
        print(json.dumps(response.to_json(), ensure_ascii=False))
        if not response.ok:
            return 2
        return 0 if response.result["found"] else 1
    if not response.ok:
        print(response.error, file=sys.stderr)
        return 2
    result = response.result
    if not result["found"]:
        print("no referring expression exists for these entities")
        return 1
    print(f"expression : {result['expression']}")
    print(f"complexity : {result['complexity_bits']:.2f} bits")
    print(f"verbalized : {result['verbalized']}")
    stats = result["stats"]
    print(
        f"search     : {stats['candidates']} candidates, {stats['nodes_visited']} nodes, "
        f"{stats['re_tests']} RE tests, {stats['total_seconds'] * 1000:.1f} ms"
        + (" (timed out)" if stats["timed_out"] else "")
    )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    service = MiningService.from_path(args.kb, _service_config(args))
    verbalizer = service.verbalizer if args.verbalize else None
    if args.requests == "-":
        # Stream from stdin.  With the default --workers 1 every line is
        # answered (and every update applied) as soon as it arrives, so
        # an interactive request/response producer works; --workers N>1
        # buffers runs of consecutive requests to mine them concurrently
        # and flushes at update lines and EOF — don't pair it with a
        # producer that waits for each response.
        lines = iter(sys.stdin)
    else:
        try:
            from pathlib import Path

            lines = iter(Path(args.requests).read_text(encoding="utf-8").splitlines())
        except OSError as exc:
            print(f"cannot read requests file: {exc}", file=sys.stderr)
            return 2
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"cannot write output file: {exc}", file=sys.stderr)
        return 2
    try:
        for outcome in service.serve_jsonl(lines):
            print(json.dumps(outcome.to_json(verbalizer), ensure_ascii=False), file=out)
            out.flush()
    except OSError as exc:
        print(f"I/O failure while streaming results: {exc}", file=sys.stderr)
        return 2
    finally:
        if out is not sys.stdout:
            out.close()
    if args.summary:
        print(json.dumps(service.summary()), file=sys.stderr)
    # Per-line request errors are structured records on the output
    # stream, not process failures: exit 0 unless I/O actually broke.
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import run_server

    config = _service_config(args)
    service = MiningService.from_path(args.kb, config)
    # Snapshots first, so --warm-up builds the session that serves reads.
    service.enable_snapshots()
    if args.warm_up:
        service.warm_up()

    pool = None
    if args.replicas:
        from repro.service.workers import WorkerPool

        pool = WorkerPool(
            service.kb, config=config, count=args.replicas, warm_up=args.warm_up
        )

    def ready(address) -> None:
        host, port = address
        print(f"remi serve: listening on {host}:{port}", file=sys.stderr, flush=True)

    def summary(telemetry) -> None:
        print(
            f"remi serve: summary {json.dumps(telemetry, ensure_ascii=False)}",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(
            run_server(
                service,
                host=args.host,
                port=args.port,
                pool_workers=args.pool,
                max_pending=args.max_pending,
                ready=ready,
                workers=pool,
                on_summary=summary,
            )
        )
    except KeyboardInterrupt:
        print("remi serve: interrupted, draining", file=sys.stderr)
    finally:
        if pool is not None:
            pool.stop()
    print("remi serve: drained, bye", file=sys.stderr)
    return 0


def _add_backend_flag(parser: argparse.ArgumentParser) -> None:
    """``--backend``, shared by every subcommand that loads a KB."""
    parser.add_argument(
        "--backend",
        choices=sorted(KB_BACKENDS.names()),
        default="interned",
        help="storage backend (plugin registry key; default: interned)",
    )


def _add_miner_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every mining subcommand shares (one spelling, one place)."""
    parser.add_argument(
        "--miner",
        choices=sorted(MINERS.names()),
        default="remi",
        help="mining algorithm (default: remi)",
    )
    parser.add_argument(
        "--prominence", choices=sorted(PROMINENCE.names()), default="fr"
    )
    parser.add_argument("--standard", action="store_true", help="standard language bias")
    parser.add_argument("--timeout", type=float, default=None, help="seconds per request")
    parser.add_argument(
        "--top-k",
        dest="top_k",
        type=int,
        default=None,
        metavar="K",
        help="bounded best-first queue construction: build only the first-K "
        "prefix of the candidate queue, deferring the rest until the search "
        "needs it (identical results; default: exact full queue)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remi",
        description="Mine intuitive referring expressions on RDF knowledge bases.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic KB")
    generate.add_argument("--kind", choices=("dbpedia", "wikidata"), default="dbpedia")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--out", required=True, help=".hdt or .nt output path")
    generate.add_argument(
        "--stream",
        action="store_true",
        help="stream facts straight to an N-Triples file without holding the "
        "KB in memory (skips §4 inverse materialization; pairs with "
        "`remi build-image`)",
    )
    generate.set_defaults(func=_cmd_generate)

    build_img = subparsers.add_parser(
        "build-image",
        help="ingest an N-Triples/RHDT file into a persistent mmap-able KB "
        "image (bounded-memory external sort; serve it directly)",
    )
    build_img.add_argument("source", help="input KB file (.hdt or N-Triples)")
    build_img.add_argument("out", help="output image path")
    build_img.add_argument(
        "--name", default=None, help="KB name stamped in the image (default: source stem)"
    )
    build_img.add_argument(
        "--batch-size",
        dest="batch_size",
        type=int,
        default=None,
        metavar="N",
        help="triples interned per sort run (memory/speed knob)",
    )
    build_img.add_argument(
        "--masks",
        action="store_true",
        help="precompute MaskStore pages into the image (faster first queries, "
        "bigger file)",
    )
    build_img.set_defaults(func=_cmd_build_image)

    stats = subparsers.add_parser("stats", help="print KB statistics")
    stats.add_argument("kb", help="KB file (.hdt or N-Triples)")
    _add_backend_flag(stats)
    stats.add_argument(
        "--json", action="store_true", help="emit the service response envelope"
    )
    stats.set_defaults(func=_cmd_stats)

    mine = subparsers.add_parser("mine", help="mine a referring expression")
    mine.add_argument("kb", help="KB file (.hdt or N-Triples)")
    mine.add_argument("entities", nargs="+", help="target entity IRIs")
    _add_backend_flag(mine)
    _add_miner_flags(mine)
    mine.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned service response envelope instead of text",
    )
    mine.set_defaults(func=_cmd_mine)

    batch = subparsers.add_parser(
        "batch",
        help="mine many target sets from a JSON-lines file (may interleave "
        'live KB updates: {"op": "add"|"delete", "triple": [s, p, o]})',
    )
    batch.add_argument("kb", help="KB file (.hdt or N-Triples)")
    batch.add_argument(
        "requests",
        help="JSON-lines requests/updates file, or - for stdin",
    )
    _add_backend_flag(batch)
    _add_miner_flags(batch)
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent requests (N>1 buffers request runs; keep 1 for "
        "interactive per-line streaming from stdin)",
    )
    batch.add_argument("--verbalize", action="store_true", help="include NL rendering")
    batch.add_argument("--out", default=None, help="output file (default: stdout)")
    batch.add_argument(
        "--summary", action="store_true", help="print serving stats to stderr"
    )
    batch.set_defaults(func=_cmd_batch)

    serve = subparsers.add_parser(
        "serve",
        help="serve concurrent clients over NDJSON-on-TCP "
        "(mine/describe/update/stats envelopes)",
    )
    serve.add_argument("kb", help="KB file (.hdt or N-Triples)")
    _add_miner_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8757, help="0 = ephemeral")
    serve.add_argument(
        "--pool", type=int, default=4, help="mining worker threads (bounded pool)"
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=32,
        help="in-flight request bound before the server stops reading (backpressure)",
    )
    serve.add_argument(
        "--warm-up",
        action="store_true",
        help="build shared KB-derived state before accepting traffic",
    )
    serve.add_argument(
        "--workers",
        dest="replicas",
        type=int,
        default=0,
        metavar="N",
        help="worker processes, each holding an epoch replica of the KB "
        "(0 = answer everything in-process; the differential reference)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request deadline on worker replicas: a wedged replica "
        "yields a typed timeout error and is respawned (0 = no deadline)",
    )
    serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="fleet supervisor cadence: heartbeat pings, crash sweeps and "
        "replica respawns (0 = no supervision, fail-soft only)",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="failed respawn attempts per replica slot before its circuit "
        "breaker trips and the slot is abandoned as degraded",
    )
    serve.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the exponential backoff between respawn attempts "
        "on the same replica slot",
    )
    serve.set_defaults(func=_cmd_serve, workers=1, backend="interned")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
