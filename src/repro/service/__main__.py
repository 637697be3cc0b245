"""``python -m repro.service`` — a runnable bound-serving demo.

Builds a synthetic movies/ratings database, publishes SafeBound statistics
to an on-disk catalog, starts the micro-batching estimation server, drives
it with a concurrent load generator, optionally streams inserts/deletes
through the live-ingest path (with a background recompress-and-republish
cycle the server hot-swaps), and prints a JSON metrics report.

The ``serve`` subcommand runs the same stack behind the network tier
(``service/net.py``): a socket server a separate ``client`` process
drives, with optional live ingest rounds republishing under load.  The
``client`` subcommand runs the same load generator as the in-process
demo, one socket connection per client thread.

The ``stats-info`` subcommand prints a published version's manifest —
size on disk, array counts and content digest (the serving-side
counterpart of the paper's Fig 8a memory reporting).  The ``explain``
and ``trace`` subcommands are the observability CLI (``repro.obs``):
per-stage latency breakdown of one bound computation, and Chrome-trace
export of a traced batch.

Examples::

    PYTHONPATH=src python -m repro.service
    PYTHONPATH=src python -m repro.service --requests 2000 --concurrency 16
    PYTHONPATH=src python -m repro.service --updates 5 --batch 32
    PYTHONPATH=src python -m repro.service serve --updates 3 &
    PYTHONPATH=src python -m repro.service client --port 7719 --requests 1000
    PYTHONPATH=src python -m repro.service stats-info demo --catalog /tmp/cat
    PYTHONPATH=src python -m repro.service explain --workload stats-ceb --query 3
    PYTHONPATH=src python -m repro.service trace --workload job-light --out trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time

import numpy as np

from ..core.predicates import Eq, Like, Range
from ..core.safebound import SafeBoundConfig
from ..db.database import Database
from ..db.query import Query
from ..db.schema import Schema
from ..db.table import Table
from .catalog import CatalogBackedSafeBound, StatsCatalog
from .ingest import RepublishWorker, UpdateIngest
from .server import EstimationServer, generate_load


def build_demo_database(n_movies: int = 2000, n_ratings: int = 40000, seed: int = 0) -> Database:
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table("movies", primary_key="id", filter_columns=["year", "title"])
    schema.add_table("ratings", join_columns=["movie_id"], filter_columns=["stars"])
    schema.add_foreign_key("ratings", "movie_id", "movies", "id")
    db = Database(schema)
    words = ["Casablanca", "Vertigo", "Alien", "Heat", "Arrival", "Amelie"]
    titles = np.array(
        [f"{words[int(w)]}{i % 101}" for i, w in enumerate(rng.integers(0, len(words), n_movies))],
        dtype=object,
    )
    db.add_table(Table("movies", {
        "id": np.arange(n_movies),
        "year": rng.integers(1940, 2024, n_movies),
        "title": titles,
    }))
    db.add_table(Table("ratings", {
        "id": np.arange(n_ratings),
        "movie_id": (rng.zipf(1.4, n_ratings) - 1) % n_movies,
        "stars": rng.integers(1, 6, n_ratings),
    }))
    return db


def demo_queries() -> list[Query]:
    def q() -> Query:
        return (
            Query()
            .add_relation("m", "movies")
            .add_relation("r", "ratings")
            .add_join("r", "movie_id", "m", "id")
        )

    queries = [
        q().add_predicate("m", Range("year", low=1990, high=1999)),
        q().add_predicate("m", Like("title", "Alien")).add_predicate("r", Eq("stars", 5)),
        q().add_predicate("r", Eq("stars", 1)),
        (
            Query()
            .add_relation("r1", "ratings")
            .add_relation("r2", "ratings")
            .add_join("r1", "movie_id", "r2", "movie_id")
        ),
    ]
    for decade in range(1940, 2020, 10):
        queries.append(q().add_predicate("m", Range("year", low=decade, high=decade + 9)))
    return queries


def stats_info(argv: list[str]) -> int:
    """``stats-info <database>``: print one published version's manifest."""
    from ..core.serialization import describe_stats_file
    from .catalog import StatsCatalog

    parser = argparse.ArgumentParser(
        prog="python -m repro.service stats-info",
        description="Inspect a published statistics version",
    )
    parser.add_argument("database", help="logical database name in the catalog")
    parser.add_argument("--catalog", required=True, help="catalog root directory")
    parser.add_argument(
        "--version", type=int, default=None, help="version number (default: latest)"
    )
    args = parser.parse_args(argv)
    catalog = StatsCatalog(args.catalog)
    try:
        entry = catalog.version_info(args.database, args.version)
    except LookupError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    path = catalog.archive_path(entry)
    info = {
        "database": entry.database,
        "version": entry.version,
        "label": entry.label,
        "filename": entry.filename,
        "created_at": entry.created_at,
        "note": entry.note,
        "build_seconds": entry.build_seconds,
        "num_sequences": entry.num_sequences,
        "stats_digest": entry.metadata.get("stats_digest"),
        **describe_stats_file(str(path)),
    }
    print(json.dumps(info, indent=2))
    return 0


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def _read_ready_file(path: str) -> dict | None:
    """The ready file's payload iff it names a live server process.

    A crash or SIGKILL never unlinks the file, so the address in it may
    be stale; liveness comes from the recorded PID.  Returns None for a
    payload whose pid is dead — callers must not trust its address."""
    with open(path) as fh:
        ready = json.load(fh)
    pid = ready.get("pid")
    if isinstance(pid, int) and not _pid_alive(pid):
        return None
    return ready


def _check_ready_file(path: str, remove_stale: bool = False) -> dict:
    """Validate a serve ``--ready-file``; optionally remove a stale one."""
    try:
        with open(path) as fh:
            ready = json.load(fh)
    except FileNotFoundError:
        return {"path": path, "status": "absent"}
    except (OSError, ValueError):
        ready = {}
    pid = ready.get("pid")
    if isinstance(pid, int) and _pid_alive(pid):
        return {"path": path, "status": "live", "pid": pid}
    removed = False
    if remove_stale:
        try:
            os.unlink(path)
            removed = True
        except OSError:
            pass
    return {"path": path, "status": "stale", "pid": pid, "removed": removed}


def fsck(argv: list[str]) -> int:
    """``fsck``: detect and repair crash debris in a stats catalog."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service fsck",
        description="Detect and repair catalog crash debris: stale publish "
        "temp files, unreadable (torn) archives, torn manifests; prints "
        "a JSON repair report",
    )
    parser.add_argument("--catalog", required=True, help="catalog root directory")
    parser.add_argument("--database", default=None, help="limit to one database")
    parser.add_argument(
        "--stale-tmp-seconds", type=float, default=0.0,
        help="only remove publish temp files older than this many seconds "
        "(default 0: the operator asserts no publish is live)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="also validate a serve --ready-file (PID liveness) and remove "
        "it when stale",
    )
    args = parser.parse_args(argv)
    catalog = StatsCatalog(args.catalog, fsck_on_open=False)
    report = catalog.fsck(args.database, stale_tmp_seconds=args.stale_tmp_seconds)
    out = report.to_dict()
    if args.ready_file:
        out["ready_file"] = _check_ready_file(args.ready_file, remove_stale=True)
    print(json.dumps(out, indent=2))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for sizes that must be at least 1."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_demo_estimator(catalog: StatsCatalog, db) -> CatalogBackedSafeBound:
    """Build + publish demo statistics; returns the serving estimator."""
    estimator = CatalogBackedSafeBound(
        catalog, "demo", SafeBoundConfig(track_updates=True)
    )
    estimator.build(db)
    published = catalog.latest("demo")
    print(
        f"published {published.label}: "
        f"{published.file_bytes / 1024:.1f} KiB, "
        f"{published.num_sequences} sequences, built in {published.build_seconds:.2f}s",
        file=sys.stderr,
    )
    return estimator


def _ingest_round(ingest: UpdateIngest, db, rng, round_no: int) -> None:
    """One demo update round: a zipf-skewed ratings insert + a delete."""
    n = 2000
    start = db.table("ratings").num_rows + 1_000_000 * (round_no + 1)
    ingest.insert("ratings", {
        "id": np.arange(start, start + n),
        "movie_id": (rng.zipf(1.4, n) - 1) % db.table("movies").num_rows,
        "stars": rng.integers(1, 6, n),
    })
    ingest.delete("ratings", rng.choice(db.table("ratings").num_rows, 500, replace=False))


def serve(argv: list[str]) -> int:
    """``serve``: the demo stack behind the network tier, until killed."""
    from .net import NetServer

    parser = argparse.ArgumentParser(
        prog="python -m repro.service serve",
        description="Serve demo-database bounds over a socket "
        "(length-prefixed JSON protocol; drive with the 'client' subcommand)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="0 picks a free port")
    parser.add_argument("--batch", type=_positive_int, default=64, help="max micro-batch size")
    parser.add_argument("--queue", type=_positive_int, default=1024, help="admission queue size")
    parser.add_argument("--catalog", default=None, help="catalog root (default: temp dir)")
    parser.add_argument(
        "--updates", type=int, default=0,
        help="ingest rounds streamed while serving (each pads the live "
        "statistics; the background worker republishes and the server "
        "hot-swaps to the new version)",
    )
    parser.add_argument(
        "--update-interval", type=float, default=1.0,
        help="seconds between ingest rounds",
    )
    parser.add_argument(
        "--duration", type=float, default=0.0,
        help="exit after this many seconds (0: serve until SIGTERM/SIGINT)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write {host, port, pid} JSON here once listening (clients "
        "and CI scripts poll it instead of racing the bind)",
    )
    parser.add_argument("--metrics-json", default=None, metavar="PATH")
    parser.add_argument("--log-json", action="store_true")
    args = parser.parse_args(argv)

    db = build_demo_database()
    tmp = None
    root = args.catalog
    if root is None:
        tmp = tempfile.TemporaryDirectory(prefix="safebound-catalog-")
        root = tmp.name

    # A SIGTERM (how CI stops the server) unwinds like Ctrl-C so the
    # server and catalog tempdir clean up.
    signal.signal(signal.SIGTERM, lambda *_: (_ for _ in ()).throw(KeyboardInterrupt()))
    try:
        catalog = StatsCatalog(root)
        estimator = _build_demo_estimator(catalog, db)
        ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
        worker = RepublishWorker(ingest, poll_seconds=0.05) if args.updates else None
        server = EstimationServer(
            estimator,
            max_queue=args.queue,
            max_batch=args.batch,
            refresh_db=db,
            metrics_json_path=args.metrics_json,
            json_log=sys.stderr if args.log_json else None,
        )
        rng = np.random.default_rng(1)
        with server, NetServer(server, args.host, args.port) as net:
            # pid + started_at let clients and fsck detect a stale ready
            # file left behind by a crash or SIGKILL (neither runs the
            # unlink below): a dead pid means the address is not trusted.
            ready = {
                "host": net.host,
                "port": net.port,
                "pid": os.getpid(),
                "started_at": time.time(),
            }
            if args.ready_file:
                ready_tmp = f"{args.ready_file}.incoming"
                with open(ready_tmp, "w") as fh:
                    json.dump(ready, fh)
                os.replace(ready_tmp, args.ready_file)
            print(json.dumps({"serving": ready}), flush=True)
            if worker is not None:
                worker.start()
            try:
                started = time.monotonic()
                rounds = 0
                while True:
                    time.sleep(min(args.update_interval, 0.25))
                    if rounds < args.updates and (
                        time.monotonic() - started >= (rounds + 1) * args.update_interval
                    ):
                        _ingest_round(ingest, db, rng, rounds)
                        rounds += 1
                    if args.duration and time.monotonic() - started >= args.duration:
                        break
            except KeyboardInterrupt:
                pass
            finally:
                if worker is not None:
                    worker.stop()
                if args.ready_file:
                    try:
                        os.unlink(args.ready_file)
                    except OSError:
                        pass
        summary = {
            "served_version": estimator.version,
            "generation": estimator.generation(),
            "republishes": ingest.republishes,
            "metrics": server.metrics_snapshot(),
        }
        print(json.dumps(summary, indent=2, default=repr))
    finally:
        if tmp is not None:
            tmp.cleanup()
    return 0


def client(argv: list[str]) -> int:
    """``client``: load generation against a ``serve`` over sockets."""
    from .net import NetClient, RetryPolicy, connect_clients

    parser = argparse.ArgumentParser(
        prog="python -m repro.service client",
        description="Drive a 'serve' instance from client threads, one "
        "connection each",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="read host/port from a serve --ready-file (polls until it appears)",
    )
    parser.add_argument("--requests", type=int, default=500)
    parser.add_argument("--concurrency", type=int, default=8, help="client threads")
    parser.add_argument("--timeout", type=float, default=60.0)
    parser.add_argument(
        "--retry-deadline", type=float, default=None, metavar="SECONDS",
        help="give every request a retry budget: reconnect on resets and "
        "back off (honoring the server's retry_after_ms) for up to this "
        "many seconds before failing with a typed deadline error",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless every request completed with zero errors and "
        "the server reports zero failed batches",
    )
    parser.add_argument(
        "--expect-min-generation", type=int, default=None,
        help="with --check, also require the served catalog generation to "
        "have reached this value (i.e. a republish propagated)",
    )
    args = parser.parse_args(argv)
    host, port = args.host, args.port
    if args.ready_file:
        deadline = time.monotonic() + args.timeout
        stale_seen = False
        while True:
            try:
                ready = _read_ready_file(args.ready_file)
                if ready is None:
                    # The file names a dead PID: a crashed server left it
                    # behind.  Keep polling — a restart rewrites it — but
                    # never trust the stale address.
                    stale_seen = True
                    raise ValueError("stale ready file (dead pid)")
                host, port = ready["host"], ready["port"]
                break
            except (OSError, ValueError, KeyError):
                if time.monotonic() > deadline:
                    what = (
                        "names a dead server (stale after a crash?)"
                        if stale_seen
                        else "never appeared"
                    )
                    print(f"ready file {args.ready_file} {what}", file=sys.stderr)
                    return 1
                time.sleep(0.1)
    if port is None:
        parser.error("--port or --ready-file is required")

    retry = None
    if args.retry_deadline is not None:
        retry = RetryPolicy(deadline_seconds=args.retry_deadline, seed=0)
    with connect_clients(
        host, port, args.concurrency, timeout=args.timeout, retry=retry
    ) as clients:
        report = generate_load(
            [c.bound for c in clients], demo_queries(), args.requests
        )
    report.pop("results")
    with NetClient(host, port, timeout=args.timeout) as probe:
        report["health"] = probe.health()
        if args.expect_min_generation is not None:
            # The republish runs on the server's own schedule; give it until
            # the deadline to land, then confirm post-swap serving works.
            deadline = time.monotonic() + args.timeout
            while (
                report["health"].get("generation", 0) < args.expect_min_generation
                and time.monotonic() < deadline
            ):
                time.sleep(0.25)
                report["health"] = probe.health()
            report["post_swap_bound"] = probe.bound(demo_queries()[0])
        report["server_metrics"] = probe.metrics()
    print(json.dumps(report, indent=2, default=repr))

    if args.check:
        failures = []
        if report["errors"]:
            failures.append(f"{len(report['errors'])} client-side errors")
        if report["completed"] != report["requests"]:
            failures.append(
                f"completed {report['completed']}/{report['requests']} requests"
            )
        failed = report["server_metrics"].get("server.failed")
        if failed:
            failures.append(f"server failed {failed} requests")
        generation = report["health"].get("generation")
        if args.expect_min_generation is not None and (
            generation is None or generation < args.expect_min_generation
        ):
            failures.append(
                f"generation {generation} < expected {args.expect_min_generation}"
            )
        if failures:
            print("CHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("check ok: zero failed requests", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stats-info":
        return stats_info(argv[1:])
    if argv and argv[0] == "fsck":
        return fsck(argv[1:])
    if argv and argv[0] == "serve":
        return serve(argv[1:])
    if argv and argv[0] == "client":
        return client(argv[1:])
    if argv and argv[0] == "explain":
        from ..obs.cli import main_explain

        return main_explain(argv[1:])
    if argv and argv[0] == "trace":
        from ..obs.cli import main_trace

        return main_trace(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description="SafeBound bound-serving demo"
    )
    parser.add_argument("--requests", type=int, default=500, help="load-generator requests")
    parser.add_argument("--concurrency", type=int, default=8, help="client threads")
    parser.add_argument("--batch", type=_positive_int, default=64, help="max micro-batch size")
    parser.add_argument("--queue", type=_positive_int, default=1024, help="admission-control queue size")
    parser.add_argument(
        "--updates", type=int, default=0,
        help="insert/delete rounds streamed through live ingest during the run",
    )
    parser.add_argument("--catalog", default=None, help="catalog root (default: temp dir)")
    parser.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="periodically rewrite a metrics-snapshot JSON file at this "
        "path while the server runs",
    )
    parser.add_argument(
        "--metrics-interval", type=float, default=5.0,
        help="seconds between --metrics-json rewrites",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one structured JSON line on stderr per rejected "
        "request / failed batch",
    )
    args = parser.parse_args(argv)

    db = build_demo_database()
    tmp = None
    if args.catalog is None:
        tmp = tempfile.TemporaryDirectory(prefix="safebound-catalog-")
        root = tmp.name
    else:
        root = args.catalog

    try:
        catalog = StatsCatalog(root)
        estimator = _build_demo_estimator(catalog, db)
        ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
        worker = RepublishWorker(ingest, poll_seconds=0.05) if args.updates else None
        server = EstimationServer(
            estimator,
            max_queue=args.queue,
            max_batch=args.batch,
            refresh_db=db,
            metrics_json_path=args.metrics_json,
            metrics_json_interval=args.metrics_interval,
            json_log=sys.stderr if args.log_json else None,
        )
        queries = demo_queries()
        rng = np.random.default_rng(1)
        with server:
            if worker is not None:
                worker.start()
            for round_no in range(args.updates):
                _ingest_round(ingest, db, rng, round_no)
            report = generate_load(
                [server.bound] * args.concurrency, queries, args.requests
            )
            if worker is not None:
                worker.stop()
        report.pop("results")
        report["metrics"] = server.metrics_snapshot()
        report["catalog_versions"] = [v.label for v in catalog.versions("demo")]
        report["served_version"] = estimator.version
        report["staleness"] = round(estimator.staleness(), 4)
        # The served version's conditioning-cache counters (the per-batch
        # snapshot also appears under metrics.conditioning_cache).
        report["conditioning_cache"] = estimator.conditioning_cache_stats()
        if args.updates:
            report["ingest"] = {
                "inserted_rows": ingest.inserted_rows,
                "deleted_rows": ingest.deleted_rows,
                "republishes": ingest.republishes,
            }
        print(json.dumps(report, indent=2))
    finally:
        if tmp is not None:
            tmp.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
