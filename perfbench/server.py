"""The server process of the ``point`` and ``ingest`` workloads.

Builds the workload's statistics from its rows, serves them with
``EstimationServer`` (constructor defaults, ``num_workers=0``) behind a
``NetServer``, and talks to ``run.py`` over stdin/stdout, one JSON
object per line:

* out ``{"event": "ready", ...}`` once serving, with the port and the
  wire form of the query pool (``point``);
* in ``{"op": "go", "t_open": t}`` — the timed window opens at ``t``
  (a ``time.perf_counter`` reading; the clock is shared across
  processes).  ``ingest`` starts its writer thread here;
* out ``{"event": "writer_done", ...}`` after the last insert and its
  republish (``ingest``);
* in ``{"op": "stop"}`` (or end of input) — stop serving; out
  ``{"event": "final", ...}`` with peak RSS, server counters, writer
  timings, in traced runs the server-side spans and, for ``point``, the
  in-process reference bound of every pool query.  The references are
  computed after serving, on a fresh engine over the served statistics,
  so they cost nothing before ``ready``.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

_OUT = threading.Lock()


def send(payload: dict) -> None:
    with _OUT:
        common.emit(payload)


class ServerTracer:
    """Server-side spans, keyed by the request id a traced frame carries.

    Wraps, in this process only: ``read_frame``/``encode_frame``/
    ``query_from_wire`` as the network tier binds them, the server's
    ``submit``, the estimator's ``estimate_batch`` and the library layers
    under it, and the catalog's ``publish``/``load``.
    """

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry, install_metrics
        from repro.service import catalog, net, server

        self.rec = common.Recorder()
        self.registry = install_metrics(MetricsRegistry())
        self.baseline: dict | None = None
        self._submitted: dict[int, tuple[str, float]] = {}
        self._submitted_lock = threading.Lock()
        rec = self.rec
        local = rec.local

        read_frame = net.read_frame
        encode_frame = net.encode_frame
        query_from_wire = net.query_from_wire

        def traced_read_frame(sock, *args, **kwargs):
            request = read_frame(sock, *args, **kwargs)
            rid = request.get("rid") if isinstance(request, dict) else None
            local.rid = rid
            local.traced = rid is not None
            local.read_at = time.perf_counter()
            if rid is not None and self.baseline is None:
                self.baseline = common.counter_values(self.registry)
            return request

        def traced_encode_frame(payload):
            start = time.perf_counter()
            blob = encode_frame(payload)
            end = time.perf_counter()
            if getattr(local, "traced", False):
                rec.add("wire.encode", start, end, size=len(blob))
                rec.add("net.server", local.read_at, end)
                local.traced = False
            return blob

        def traced_query_from_wire(payload):
            start = time.perf_counter()
            query = query_from_wire(payload)
            if getattr(local, "traced", False):
                rec.add("wire.decode", start, time.perf_counter())
            return query

        net.read_frame = traced_read_frame
        net.encode_frame = traced_encode_frame
        net.query_from_wire = traced_query_from_wire

        submit = server.EstimationServer.submit

        def traced_submit(srv, query):
            if getattr(local, "traced", False):
                with self._submitted_lock:
                    self._submitted[id(query)] = (local.rid, time.perf_counter())
            return submit(srv, query)

        server.EstimationServer.submit = traced_submit
        common.wrap_engine_layers(rec)
        common.wrap_build(rec)

        publish = catalog.StatsCatalog.publish

        def traced_publish(cat, *args, **kwargs):
            start = time.perf_counter()
            version = publish(cat, *args, **kwargs)
            rec.add("catalog.publish", start, time.perf_counter(), size=version.file_bytes)
            return version

        catalog.StatsCatalog.publish = traced_publish
        load = catalog.StatsCatalog.load

        def traced_load(cat, *args, **kwargs):
            start = time.perf_counter()
            stats = load(cat, *args, **kwargs)
            rec.add("catalog.load", start, time.perf_counter())
            return stats

        catalog.StatsCatalog.load = traced_load
        refresh = catalog.CatalogBackedSafeBound.refresh

        def traced_refresh(est, *args, **kwargs):
            swapped = refresh(est, *args, **kwargs)
            if swapped:
                now = time.perf_counter()
                rec.add("catalog.refresh", now, now)
            return swapped

        catalog.CatalogBackedSafeBound.refresh = traced_refresh

    def wrap_estimator(self, estimator) -> None:
        """Span each micro-batch: the waits of its traced requests end
        where the batch starts."""
        original = estimator.estimate_batch
        rec = self.rec
        local = rec.local

        def estimate_batch(queries):
            start = time.perf_counter()
            with self._submitted_lock:
                entries = [self._submitted.pop(id(q), None) for q in queries]
            rids = sorted({e[0] for e in entries if e is not None})
            local.traced = bool(rids)
            try:
                result = original(queries)
            finally:
                local.traced = False
            end = time.perf_counter()
            if rids:
                for entry in entries:
                    if entry is not None:
                        rec.add("server.wait", entry[1], start, rid=entry[0])
                rec.add("server.batch", start, end, size=len(queries), rids=rids)
            return result

        estimator.estimate_batch = estimate_batch

    def report(self) -> dict:
        after = common.counter_values(self.registry)
        return {
            "spans": self.rec.export(),
            "counters": common.counter_delta(self.baseline or after, after),
        }


class Writer(threading.Thread):
    """Seeded inserts on a fixed schedule, each followed by
    ``maybe_republish`` — the write half of the ``ingest`` workload."""

    def __init__(self, ingest, batches, due: list[float]) -> None:
        super().__init__(name="bench-writer", daemon=True)
        self.ingest = ingest
        self.batches = batches
        self.due = due
        self.inserts: list[dict] = []
        self.republish_s: list[float] = []
        self.error: str | None = None

    def run(self) -> None:
        try:
            for (table, rows), due in zip(self.batches, self.due):
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                started = time.perf_counter()
                self.ingest.insert(table, rows)
                inserted = time.perf_counter()
                staleness = self.ingest.staleness
                version = self.ingest.maybe_republish()
                finished = time.perf_counter()
                if version is not None:
                    self.republish_s.append(finished - inserted)
                self.inserts.append({
                    "table": table,
                    "rows": int(len(rows["id"])),
                    "lag_ms": (started - due) * 1e3,
                    "latency_ms": (inserted - due) * 1e3,
                    "insert_ms": (inserted - started) * 1e3,
                    "staleness": staleness,
                })
        except Exception as exc:  # reported to run.py, which fails the run
            self.error = repr(exc)
        send({"event": "writer_done", "t": time.perf_counter(), "error": self.error})

    def report(self) -> dict:
        return {
            "inserts": self.inserts,
            "republish_s": self.republish_s,
            "republishes": self.ingest.republishes,
            "error": self.error,
        }


def stop_net(net) -> None:
    """``NetServer.stop``, with its accept thread woken by connecting:
    closing the listener does not interrupt a blocked ``accept``, so
    ``stop`` would otherwise wait out its 5 s join on every teardown."""
    port = net.port
    stopper = threading.Thread(target=net.stop, daemon=True)
    stopper.start()
    while stopper.is_alive():
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()
        except OSError:
            pass
        stopper.join(0.05)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("point", "ingest"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--write-seconds", type=float, default=10.0)
    args = parser.parse_args()

    common.use_repo_sources()
    import inputs
    from repro.core.safebound import SafeBound, SafeBoundConfig
    from repro.service.catalog import CatalogBackedSafeBound, StatsCatalog
    from repro.service.ingest import UpdateIngest
    from repro.service.net import NetServer
    from repro.service.server import EstimationServer
    from repro.service.wire import query_to_wire

    tracer = ServerTracer() if args.trace else None
    workdir = None
    ready: dict = {"event": "ready"}
    started = time.perf_counter()
    queries = []
    if args.workload == "point":
        db = inputs.imdb_db(args.scale)
        queries = inputs.point_queries(db, args.seed)
        estimator = SafeBound()
        estimator.build(db)
        ready["build_s"] = time.perf_counter() - started
        ready["queries"] = [query_to_wire(q) for q in queries]
    else:
        db = inputs.stats_db(args.scale)
        common.TMP.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="catalog-", dir=common.TMP)
        estimator = CatalogBackedSafeBound(
            StatsCatalog(workdir), "stats", SafeBoundConfig(track_updates=True)
        )
        estimator.build(db)
        ready["build_s"] = time.perf_counter() - started
    ready["stats_bytes"] = estimator.memory_bytes()
    if tracer is not None:
        tracer.wrap_estimator(estimator)

    server = EstimationServer(estimator).start()
    net = NetServer(server).start()
    writer = None
    try:
        ready["port"] = net.port
        send(ready)
        for line in sys.stdin:
            command = json.loads(line)
            if command["op"] == "go" and args.workload == "ingest":
                t_open = command["t_open"]
                # Six inserts over the first 70% of the window.
                due = [t_open + args.write_seconds * (0.05 + 0.125 * k) for k in range(6)]
                ingest = UpdateIngest(db, estimator)
                writer = Writer(ingest, inputs.insert_schedule(db, args.seed), due)
                writer.start()
            elif command["op"] == "stop":
                break
        if writer is not None:
            writer.join(120.0)
    finally:
        stop_net(net)
        server.stop()
        final = {
            "event": "final",
            "rss_mb": common.peak_rss_mb(),
            "stats_bytes": estimator.memory_bytes(),
            "rejected": server.metrics.rejected,
            "writer": writer.report() if writer is not None else None,
            "trace": tracer.report() if tracer is not None else None,
        }
        if queries:
            # The reference the served bounds must match bit for bit.
            reference = SafeBound(estimator.config)
            reference.stats = estimator.stats
            final["reference"] = [reference.bound(q) for q in queries]
        send(final)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
