"""The three workloads: ``point``, ``plan`` and ``ingest``.

Each ``run_*`` function sets up ``setup_reps`` times (the last set-up is
the one measured), runs one closed-loop timed window of ``seconds``, then
checks every answer and computes the quality metrics outside the window.
A traced run instead runs two windows on equal footing — one with span
recording off, one with it on — and derives the per-layer metrics from
the second (``layers.py``).  On ``point`` and ``ingest`` the untraced
window runs against its own server process, started without tracing,
so the overhead base carries none of the server-side instrumentation.

A workload returns a dict::

    {"metrics": {name: (value, unit, samples)}, "attempted": int,
     "failed": int, "checks": int, "check_failures": [str, ...],
     "sizes": {...}, "layers": {name: value} (traced runs only)}
"""

from __future__ import annotations

import json
import queue
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import common
import inputs
import layers
from common import clock, median, quantile

from repro.core.safebound import SafeBound
from repro.estimators.truth import TrueCardinalityEstimator
from repro.obs.metrics import MetricsRegistry, install_metrics, uninstall_metrics
from repro.optimizer.join_order import Planner
from repro.optimizer.simulator import PlanSimulator
from repro.service import wire
from repro.service.ingest import append_rows
from repro.service.net import NetClient
from repro.service.wire import query_from_wire, query_to_wire, wire_to_float

HERE = Path(__file__).resolve().parent

# Default scales (the ``--scale`` option of run.py overrides them for
# the smoke test).
POINT_SCALE = 0.2
PLAN_SCALE = 0.2
INGEST_SCALE = 0.05
CLIENTS = 2  # connections of the point workload (= nproc of the reference box)
SETUP_REPS = 3  # set-ups of an untraced run at the default scale; setup_s is their median
MEASURED_TEMPLATES = 40  # plan
INGEST_TEMPLATES = 20  # fewer: an ingest window plans fewer queries
WARMUP_TEMPLATES = 16
QUALITY_QUERIES = 40  # plan: first round of the stream, the plan-quality set
FINAL_READS = 20  # ingest: reads checked against the final database


@dataclass
class Options:
    seed: int
    seconds: float
    trace: bool
    scale: float | None
    setup_reps: int
    start: float  # process start, so that imports land in the first set-up


@dataclass
class Window:
    """Closed-loop operations of one timed window."""

    opened: float = 0.0
    closed: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        elapsed = self.closed - self.opened
        return (self.attempted - self.failed) / elapsed if elapsed > 0 else 0.0


def _ms(values) -> list[float]:
    return [v * 1e3 for v in values]


def _pct_metrics(prefix: str, latencies: list[float], percentiles) -> dict:
    samples = len(latencies)
    values = _ms(latencies)
    return {
        f"{prefix}_p{int(q * 100)}_ms": (quantile(values, q), "ms", samples)
        for q in percentiles
    }


# ----------------------------------------------------------------------
# Server process handle
# ----------------------------------------------------------------------
class ServerProcess:
    """A ``server.py`` child and its line-oriented JSON event stream.

    The child starts at construction; ``wait_ready`` blocks until it
    serves, so the caller can do its own work while the server builds."""

    def __init__(self, workload: str, opts: Options, scale: float, traced: bool) -> None:
        command = [
            sys.executable, str(HERE / "server.py"),
            "--workload", workload,
            "--seed", str(opts.seed),
            "--scale", repr(scale),
            "--trace", "1" if traced else "0",
            "--write-seconds", repr(opts.seconds),
        ]
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self._events: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ready: dict = {}

    def wait_ready(self) -> "ServerProcess":
        self.ready = self.wait("ready", 300.0)
        return self

    def _read(self) -> None:
        for line in self.proc.stdout:
            try:
                self._events.put(json.loads(line))
            except ValueError:
                sys.stderr.write(line)
        self._events.put(None)

    def wait(self, event: str, timeout: float) -> dict:
        deadline = clock() + timeout
        while True:
            try:
                message = self._events.get(timeout=max(0.0, deadline - clock()))
            except queue.Empty:
                raise TimeoutError(f"server process sent no {event!r} event") from None
            if message is None:
                raise RuntimeError(f"server process exited before {event!r}")
            if message.get("event") == event:
                return message

    def send(self, payload: dict) -> None:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.ready["port"])

    def stop(self) -> dict:
        self.send({"op": "stop"})
        final = self.wait("final", 120.0)
        self.close()
        return final

    def close(self) -> None:
        """Stop the child (if still running) and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(5.0)


# ----------------------------------------------------------------------
# point
# ----------------------------------------------------------------------
def _point_loop(clients, wires, seconds: float, rec: common.Recorder | None) -> tuple[Window, list]:
    """Each connection sends single ``bound`` requests round-robin over
    the pool and waits for every reply; ``rec`` traces every request."""
    window = Window()
    answers: list[tuple[int, float]] = []
    lock = threading.Lock()
    start_gate = threading.Barrier(len(clients) + 1)

    def loop(index: int, client: NetClient) -> None:
        latencies, mine, errors = [], [], []
        attempted = failed = 0
        k = index
        start_gate.wait()
        deadline = window.opened + seconds
        while clock() < deadline:
            qi = k % len(wires)
            k += len(clients)
            attempted += 1
            try:
                if rec is None:
                    started = clock()
                    value = client.bound(wires[qi])
                    ended = clock()
                else:
                    rid = f"{index}.{k}"
                    with rec.request(rid):
                        started = clock()
                        response = client.request({"op": "bound", "query": wires[qi], "rid": rid})
                        ended = clock()
                    if not response.get("ok"):
                        raise RuntimeError(response.get("error"))
                    value = wire_to_float(response["bound"])
                    rec.add("request", started, ended, rid=rid)
                    rec.add("net.rtt", started, ended, rid=rid, n=1)
            except Exception as exc:
                failed += 1
                errors.append(repr(exc))
                continue
            latencies.append(ended - started)
            mine.append((qi, value))
        with lock:
            window.latencies.extend(latencies)
            window.attempted += attempted
            window.failed += failed
            window.errors.extend(errors[:5])
            answers.extend(mine)

    threads = [threading.Thread(target=loop, args=(i, c), daemon=True) for i, c in enumerate(clients)]
    for t in threads:
        t.start()
    window.opened = clock()
    start_gate.wait()
    for t in threads:
        t.join()
    window.closed = clock()
    return window, answers


def _point_session(opts: Options, scale: float, traced: bool, reps: int, rec):
    """Set up ``reps`` times, then run one window against the last
    server.  The server generates the query pool and sends it with
    ``ready``; the client only connects and warms up."""
    setups = []
    server = None
    clients: list[NetClient] = []
    try:
        for rep in range(reps):
            started = opts.start if rep == 0 and not traced else clock()
            server = ServerProcess("point", opts, scale, traced=traced)
            wires = server.wait_ready().ready["queries"]
            clients = [NetClient(*server.address) for _ in range(CLIENTS)]
            warm_start = clock()
            for i, w in enumerate(wires):  # one untimed pass over the pool
                clients[i % CLIENTS].bound(w)
            warmup_s = clock() - warm_start
            setups.append(clock() - started)
            if rep < reps - 1:
                for c in clients:
                    c.close()
                server.stop()
        if rec is not None:
            rec.enabled = traced
        window, answers = _point_loop(clients, wires, opts.seconds, rec if traced else None)
        if rec is not None:
            rec.enabled = False
        for c in clients:
            c.close()
        final = server.stop()
    finally:
        for c in clients:
            c.close()
        if server is not None:
            server.close()
    return {
        "setups": setups,
        "warmup_s": warmup_s,
        "window": window,
        "answers": answers,
        "wires": wires,
        "final": final,
    }


def run_point(opts: Options) -> dict:
    scale = opts.scale or POINT_SCALE
    rec = None
    if opts.trace:
        rec = common.Recorder()
        rec.wrap(wire, "encode_frame", "wire.client_encode", count=lambda args, blob: len(blob))
    session = _point_session(opts, scale, False, opts.setup_reps, rec)
    traced = None
    if rec is not None:
        traced = _point_session(opts, scale, True, 1, rec)

    # Correctness: bit-identical to the in-process bound, and sound.
    db = inputs.imdb_db(scale)
    queries = [query_from_wire(w) for w in session["wires"]]
    truth = TrueCardinalityEstimator()
    truth.build(db)
    true_card = [truth.estimate(q) for q in queries]
    sound = common.Soundness()
    mismatches = []
    for s in (session, traced):
        if s is None:
            continue
        if s["wires"] != session["wires"]:
            mismatches.append("the traced server served another query pool")
            continue
        reference = s["final"]["reference"]
        for qi, value in s["answers"]:
            if value != reference[qi]:
                mismatches.append(f"query {qi}: served {value!r} != in-process {reference[qi]!r}")
            sound.check(f"query {qi}", value, true_card[qi])
    reference = session["final"]["reference"]
    ratios = [reference[i] / max(true_card[i], 1.0) for i in range(len(queries))]

    window = session["window"]
    final = session["final"]
    metrics = {"setup_s": (median(session["setups"]), "s", len(session["setups"]))}
    metrics.update(_pct_metrics("bound", window.latencies, (0.5, 0.9, 0.99)))
    metrics["bound_qps"] = (window.throughput, "1/s", window.attempted)
    metrics["bound_ratio_p50"] = (median(ratios), "ratio", len(ratios))
    metrics["stats_mb"] = (final["stats_bytes"] / 2**20, "MB", 1)
    metrics["rss_mb"] = (final["rss_mb"], "MB", 1)
    windows = [window] + ([traced["window"]] if traced else [])
    result = _result(metrics, windows, sound, mismatches)
    result["sizes"] = {
        "queries": len(queries),
        "rows": sum(db.table(t).num_rows for t in db.tables),
        "stats_bytes": final["stats_bytes"],
        "scale": scale,
        "connections": CLIENTS,
    }
    result["generic"] = {
        "latency_p50_ms": "bound_p50_ms",
        "latency_p90_ms": "bound_p90_ms",
        "throughput_per_s": "bound_qps",
    }
    if traced is not None:
        result["layers"] = layers.per_layer(
            rec.export(), traced["window"], untraced=window,
            warmup_s=traced["warmup_s"], server_final=traced["final"],
        )
    return result


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
def _plan_loop(planner: Planner, stream, seconds: float, rec, keep: int) -> tuple[Window, list]:
    """Plan fresh queries back to back until the window closes; returns
    the window and ``(query, plan)`` of every op (plans kept for the
    first ``keep``)."""
    window = Window()
    done = []
    window.opened = clock()
    deadline = window.opened + seconds
    k = 0
    while clock() < deadline:
        query = next(stream)
        window.attempted += 1
        try:
            if rec is None:
                started = clock()
                planned = planner.plan(query)
                ended = clock()
            else:
                rid = f"p{k}"
                with rec.request(rid):
                    started = clock()
                    planned = planner.plan(query)
                    ended = clock()
                rec.add("request", started, ended, rid=rid)
        except Exception as exc:
            window.failed += 1
            window.errors.append(repr(exc))
            continue
        finally:
            k += 1
        window.latencies.append(ended - started)
        done.append((query, planned.plan if len(done) < keep else None))
    window.closed = clock()
    return window, done


def _fresh_engine(sb: SafeBound) -> SafeBound:
    """A second engine over the same statistics, with cold caches."""
    fresh = SafeBound(sb.config)
    fresh.stats = sb.stats
    return fresh


def run_plan(opts: Options) -> dict:
    scale = opts.scale or PLAN_SCALE
    rec = common.Recorder() if opts.trace else None
    if rec is not None:
        common.wrap_engine_layers(rec)
        common.wrap_build(rec)
        rec.wrap(Planner, "plan", "optimizer.plan")
    setups: list[float] = []
    for rep in range(opts.setup_reps):
        started = opts.start if rep == 0 else clock()
        db = inputs.stats_db(scale)
        measured_t, warm_t = inputs.stats_templates(db, MEASURED_TEMPLATES, WARMUP_TEMPLATES)
        sb = SafeBound()
        sb.build(db)
        planner = Planner(db, sb)
        warm = inputs.warmup_queries(warm_t, db, opts.seed)
        warm_start = clock()
        for query in warm:
            planner.plan(query)
        warmup_s = clock() - warm_start
        setups.append(clock() - started)

    window, done = _plan_loop(
        planner, inputs.query_stream(measured_t, db, opts.seed), opts.seconds, None, QUALITY_QUERIES
    )
    # Before the truth computations below inflate this process's peak.
    rss_mb = common.peak_rss_mb()
    traced_window = None
    registry_delta = None
    if rec is not None:
        # Same queries on a second engine warmed the same way.
        sb_traced = _fresh_engine(sb)
        planner_traced = Planner(db, sb_traced)
        for query in warm:
            planner_traced.plan(query)
        registry = install_metrics(MetricsRegistry())
        before = common.counter_values(registry)
        rec.enabled = True
        traced_window, _ = _plan_loop(
            planner_traced, inputs.query_stream(measured_t, db, opts.seed), opts.seconds, rec, 0
        )
        rec.enabled = False
        registry_delta = common.counter_delta(before, common.counter_values(registry))
        uninstall_metrics()

    # Plan quality and soundness, outside the window.
    quality_stream = inputs.query_stream(measured_t, db, opts.seed)
    quality = list(done[:QUALITY_QUERIES])
    for i in range(QUALITY_QUERIES):
        query = next(quality_stream)
        if i >= len(quality):
            quality.append((query, planner.plan(query).plan))
    truth = TrueCardinalityEstimator()
    truth.build(db)
    simulator = PlanSimulator(db, truth)
    plan_cost = sum(simulator.execute(q, plan) for q, plan in quality)
    sound = common.Soundness()
    ratios = []
    for i, (query, _) in enumerate(done + quality[len(done):]):
        bound = sb.bound(query)
        true = truth.estimate(query)
        if i < QUALITY_QUERIES:
            ratios.append(bound / max(true, 1.0))
        sound.check(query.name, bound, true)

    metrics = {"setup_s": (median(setups), "s", len(setups))}
    metrics.update(_pct_metrics("plan", window.latencies, (0.5, 0.9)))
    metrics["plan_throughput"] = (window.throughput, "1/s", window.attempted)
    metrics["bound_ratio_p50"] = (median(ratios), "ratio", len(ratios))
    metrics["plan_cost"] = (plan_cost, "cost", len(quality))
    metrics["stats_mb"] = (sb.memory_bytes() / 2**20, "MB", 1)
    metrics["rss_mb"] = (rss_mb, "MB", 1)
    result = _result(metrics, [window, traced_window], sound)
    result["sizes"] = {
        "measured_templates": len(measured_t),
        "warmup_queries": len(warm),
        "planned": window.attempted,
        "rows": sum(db.table(t).num_rows for t in db.tables),
        "stats_bytes": sb.memory_bytes(),
        "scale": scale,
    }
    result["generic"] = {
        "latency_p50_ms": "plan_p50_ms",
        "latency_p90_ms": "plan_p90_ms",
        "throughput_per_s": "plan_throughput",
    }
    if rec is not None:
        result["layers"] = layers.per_layer(
            rec.export(), traced_window, untraced=window, warmup_s=warmup_s, counters=registry_delta
        )
    return result


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
class NetEstimator:
    """The optimizer's estimator in the ``ingest`` client: every
    ``estimate_batch`` is one ``bound_batch`` frame to the server.  It
    also keeps the bound of the query being planned, for the check."""

    def __init__(self, client: NetClient, rec: common.Recorder | None) -> None:
        self.client = client
        self.rec = rec
        self.full_shape: tuple[int, int] | None = None
        self.full_bound: float | None = None
        self.frames = 0

    def watch(self, query) -> None:
        self.full_shape = (len(query.relations), len(query.predicates))
        self.full_bound = None

    def estimate_batch(self, queries):
        rec = self.rec
        if rec is None or not rec.enabled:
            bounds = self.client.bound_batch(queries)
        else:
            rid = f"{rec.rid}/{self.frames}"
            self.frames += 1
            with rec.request(rid):
                started = clock()
                wires = [query_to_wire(q) for q in queries]
                response = self.client.request({"op": "bound_batch", "queries": wires, "rid": rid})
                if not response.get("ok"):
                    raise RuntimeError(response.get("error"))
                bounds = []
                for slot in response["results"]:
                    if not slot.get("ok"):
                        raise RuntimeError(slot.get("error"))
                    bounds.append(wire_to_float(slot["bound"]))
                ended = clock()
            rec.add("net.rtt", started, ended, rid=rid, n=len(queries))
        for query, bound in zip(queries, bounds):
            if (len(query.relations), len(query.predicates)) == self.full_shape:
                self.full_bound = bound
        return bounds


def _ingest_session(opts: Options, scale: float, db, templates, traced: bool, reps: int, rec):
    """Set up ``reps`` times, then run one window against the last
    server: planning reads beside the server's scheduled writes.  ``db``
    is the client's copy of the pre-insert data, made once per run."""
    measured_t, warm_t = templates
    setups = []
    server = client = None
    try:
        for rep in range(reps):
            started = opts.start if rep == 0 and not traced else clock()
            server = ServerProcess("ingest", opts, scale, traced=traced)
            server.wait_ready()
            client = NetClient(*server.address)
            adapter = NetEstimator(client, rec)
            planner = Planner(db, adapter)
            warm_start = clock()
            for query in inputs.warmup_queries(warm_t, db, opts.seed):
                planner.plan(query)
            warmup_s = clock() - warm_start
            setups.append(clock() - started)
            if rep < reps - 1:
                client.close()
                server.stop()

        stream = inputs.query_stream(measured_t, db, opts.seed)
        window = Window()
        done = []
        if rec is not None:
            rec.enabled = traced
        window.opened = clock()
        server.send({"op": "go", "t_open": window.opened})
        deadline = window.opened + opts.seconds
        k = 0
        while clock() < deadline:
            query = next(stream)
            adapter.watch(query)
            window.attempted += 1
            rid = f"p{k}"
            k += 1
            try:
                if rec is not None and traced:
                    with rec.request(rid):
                        t0 = clock()
                        planner.plan(query)
                        t1 = clock()
                    rec.add("request", t0, t1, rid=rid)
                else:
                    t0 = clock()
                    planner.plan(query)
                    t1 = clock()
            except Exception as exc:
                window.failed += 1
                window.errors.append(repr(exc))
                continue
            window.latencies.append(t1 - t0)
            done.append((query, adapter.full_bound))
        window.closed = clock()
        if rec is not None:
            rec.enabled = False
        writer_done = server.wait("writer_done", 180.0)
        # Reads issued after the last insert returned.
        final_queries = [q for q, _ in done[:FINAL_READS]]
        read_at = clock()
        final_bounds = client.bound_batch(final_queries) if final_queries else []
        client.close()
        final = server.stop()
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()
    return {
        "setups": setups,
        "warmup_s": warmup_s,
        "window": window,
        "done": done,
        "writer_done": writer_done,
        "final_queries": final_queries,
        "final_bounds": final_bounds,
        "read_after_writes": read_at > writer_done["t"],
        "final": final,
    }


def run_ingest(opts: Options) -> dict:
    scale = opts.scale or INGEST_SCALE
    # Counted in the first set-up only, with the imports: the client's
    # copy is benchmark-side work, not the program's.
    db = inputs.stats_db(scale)
    templates = inputs.stats_templates(db, INGEST_TEMPLATES, WARMUP_TEMPLATES)
    rec = None
    if opts.trace:
        rec = common.Recorder()
        rec.wrap(wire, "encode_frame", "wire.client_encode", count=lambda args, blob: len(blob))
        rec.wrap(Planner, "plan", "optimizer.plan")
    session = _ingest_session(opts, scale, db, templates, False, opts.setup_reps, rec)
    traced = None
    if rec is not None:
        traced = _ingest_session(opts, scale, db, templates, True, 1, rec)

    # Soundness: reads during the window against the pre-insert data
    # (inserts only add rows), final reads against the final data.
    final_db = inputs.stats_db(scale)
    for table, rows in inputs.insert_schedule(final_db, opts.seed):
        append_rows(final_db, table, rows)
    post = TrueCardinalityEstimator()
    post.build(final_db)
    pre = TrueCardinalityEstimator()
    pre.build(db)
    sound = common.Soundness()
    failures = []
    for s in (session, traced):
        if s is None:
            continue
        writer = s["final"]["writer"]
        if writer["error"]:
            failures.append(f"writer failed: {writer['error']}")
        if writer["republishes"] != 2:
            failures.append(f"{writer['republishes']} republishes, expected 2")
        if not s["read_after_writes"]:
            failures.append("final reads were not issued after the last insert")
        for query, bound in s["done"]:
            if bound is None:
                failures.append(f"{query.name}: no full-query bound seen")
            else:
                sound.check(f"{query.name} (pre-insert data)", bound, pre.estimate(query))
        for query, bound in zip(s["final_queries"], s["final_bounds"]):
            sound.check(f"{query.name} (final data)", bound, post.estimate(query))
    ratios = [
        bound / max(post.estimate(query), 1.0)
        for query, bound in zip(session["final_queries"], session["final_bounds"])
    ]

    window = session["window"]
    writer = session["final"]["writer"]
    metrics = {"setup_s": (median(session["setups"]), "s", len(session["setups"]))}
    metrics.update(_pct_metrics("plan", window.latencies, (0.5, 0.9)))
    metrics["plan_throughput"] = (window.throughput, "1/s", window.attempted)
    insert_latency = [i["latency_ms"] / 1e3 for i in writer["inserts"]]
    metrics.update(_pct_metrics("insert", insert_latency, (0.5, 0.9)))
    metrics["republish_s"] = (median(writer["republish_s"]), "s", len(writer["republish_s"]))
    metrics["bound_ratio_p50"] = (median(ratios), "ratio", len(ratios))
    metrics["stats_mb"] = (session["final"]["stats_bytes"] / 2**20, "MB", 1)
    metrics["rss_mb"] = (session["final"]["rss_mb"], "MB", 1)
    attempted_inserts = len(inputs.INSERT_TABLES)
    windows = [window] + ([traced["window"]] if traced else [])
    result = _result(metrics, windows, sound, failures)
    result["attempted"] += attempted_inserts
    result["failed"] += attempted_inserts - len(writer["inserts"])
    result["sizes"] = {
        "measured_templates": len(templates[0]),
        "planned": window.attempted,
        "rows": sum(db.table(t).num_rows for t in db.tables),
        "inserted_rows": sum(i["rows"] for i in writer["inserts"]),
        "stats_bytes": session["final"]["stats_bytes"],
        "scale": scale,
    }
    result["generic"] = {
        "latency_p50_ms": "plan_p50_ms",
        "latency_p90_ms": "plan_p90_ms",
        "throughput_per_s": "plan_throughput",
    }
    if traced is not None:
        result["layers"] = layers.per_layer(
            rec.export(), traced["window"], untraced=window,
            warmup_s=traced["warmup_s"], server_final=traced["final"],
        )
    return result


def _result(metrics: dict, windows, sound: common.Soundness, failures=()) -> dict:
    windows = [w for w in windows if w is not None]
    failures = list(failures) + sound.failures
    errors = [e for w in windows for e in w.errors]
    metrics["checks_float_slack"] = (float(sound.slack), "count", sound.checked)
    return {
        "metrics": metrics,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows) + len(failures),
        "checks": sound.checked,
        "check_failures": failures[:20] + errors[:20],
    }


WORKLOADS = {"point": run_point, "plan": run_plan, "ingest": run_ingest}
