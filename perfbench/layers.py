"""Per-layer metrics of a traced window, from benchmark-side spans.

Spans are ``(name, rid, start, end, attrs)``.  Request ids tie them
together: ``request`` is the root of one end-to-end operation (one
``bound`` call, or one ``Planner.plan`` call); ``net.rtt`` marks one
frame's round trip as the client saw it (for ``point`` the frame is the
request; for ``ingest`` a plan sends several frames, ids ``<root>/<i>``);
server-side spans carry the frame id.  ``request`` and ``net.rtt`` are
markers, not layers: the time inside them that no layer span covers is
what ``trace.unattributed_frac`` reports.

Every workload emits every metric; a layer the workload never reaches
reads 0 (the "should not move" side of the prediction table in
``predictions.json``).
"""

from __future__ import annotations

from collections import defaultdict

from common import mean, median, quantile

# name -> unit, in the order they are printed.
PER_LAYER = {
    "net.rtt_ms_p50": "ms",
    "net.server_ms_p50": "ms",
    "net.transport_ms_p50": "ms",
    "wire.decode_us_mean": "us",
    "wire.encode_us_mean": "us",
    "wire.frame_bytes_mean": "bytes",
    "server.wait_ms_p50": "ms",
    "server.wait_ms_p99": "ms",
    "server.batch_size_mean": "count",
    "server.batches": "count",
    "server.batch_ms_p50": "ms",
    "server.busy_frac": "ratio",
    "server.rejected": "count",
    "safebound.batch_calls": "count",
    "safebound.queries": "count",
    "safebound.ms_per_query": "ms",
    "conditioning.ms_total": "ms",
    "conditioning.computed": "count",
    "conditioning.lru_hit_ratio": "ratio",
    "bound.compile_ms_total": "ms",
    "bound.compiles": "count",
    "bound.skeleton_hit_ratio": "ratio",
    "bound.eval_ms_total": "ms",
    "bound.array_frac": "ratio",
    "optimizer.self_ms_p50": "ms",
    "optimizer.calls_per_plan": "count",
    "optimizer.subqueries_per_plan": "count",
    "catalog.publish_ms": "ms",
    "catalog.load_ms": "ms",
    "catalog.refreshes": "count",
    "catalog.archive_kb": "KB",
    "ingest.insert_ms_p50": "ms",
    "ingest.republishes": "count",
    "ingest.staleness_max": "ratio",
    "ingest.writer_lag_ms": "ms",
    "stats_builder.build_s": "s",
    "setup.warmup_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def covered(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(client_spans, window, *, untraced, warmup_s, server_final=None, counters=None) -> dict:
    """Every ``PER_LAYER`` metric of a traced ``window``.  ``untraced`` is
    a window of the same run with span recording off (the overhead
    base).  ``server_final`` is the server process's final event, whose
    ``trace`` holds its spans and engine counters; an in-process
    workload passes its ``counters`` instead."""
    trace = (server_final or {}).get("trace") or {}
    server_spans = trace.get("spans", [])
    if counters is None:
        counters = trace.get("counters") or {}
    lo, hi = window.opened, window.closed
    by_name: dict[str, list] = defaultdict(list)
    for span in list(client_spans) + list(server_spans):
        by_name[span[0]].append(span)

    def in_window(name):
        return [s for s in by_name[name] if lo <= s[2] <= hi]

    def dur(span):
        return span[3] - span[2]

    def by_rid(name):
        out = defaultdict(list)
        for span in in_window(name):
            out[span[1]].append(span)
        return out

    out = dict.fromkeys(PER_LAYER, 0.0)

    # net / wire: one entry per frame.
    rtt = {s[1]: s for s in in_window("net.rtt")}
    server = {s[1]: s for s in in_window("net.server")}
    client_encode = by_rid("wire.client_encode")
    out["net.rtt_ms_p50"] = median([dur(s) * 1e3 for s in rtt.values()])
    out["net.server_ms_p50"] = median([dur(s) * 1e3 for s in server.values()])
    out["net.transport_ms_p50"] = median(
        [(dur(rtt[f]) - dur(server[f])) * 1e3 for f in rtt if f in server]
    )
    out["wire.decode_us_mean"] = mean([dur(s) * 1e6 for s in in_window("wire.decode")])
    out["wire.encode_us_mean"] = mean([dur(s) * 1e6 for s in in_window("wire.encode")])
    out["wire.frame_bytes_mean"] = mean(
        [s[4]["n"] for spans in client_encode.values() for s in spans]
    )

    # server: queue wait and micro-batches.
    waits = [dur(s) * 1e3 for s in in_window("server.wait")]
    batches = in_window("server.batch")
    out["server.wait_ms_p50"] = quantile(waits, 0.5)
    out["server.wait_ms_p99"] = quantile(waits, 0.99)
    out["server.batch_size_mean"] = mean([s[4]["size"] for s in batches])
    out["server.batches"] = float(len(batches))
    out["server.batch_ms_p50"] = median([dur(s) * 1e3 for s in batches])
    out["server.busy_frac"] = _ratio(sum(dur(s) for s in batches), hi - lo)
    if server_final is not None:
        out["server.rejected"] = float(server_final["rejected"])

    # safebound / conditioning / bound.
    sb_calls = in_window("safebound.bound_batch")
    sb_queries = sum(s[4]["n"] for s in sb_calls)
    out["safebound.batch_calls"] = float(len(sb_calls))
    out["safebound.queries"] = float(sb_queries)
    out["safebound.ms_per_query"] = _ratio(sum(dur(s) for s in sb_calls) * 1e3, sb_queries)
    out["conditioning.ms_total"] = 1e3 * sum(
        dur(s) for s in in_window("conditioning.condition") + in_window("conditioning.truncate")
    )
    computed = counters.get("conditioning.computed", 0.0)
    lookups = counters.get("conditioning.lookups", 0.0)
    out["conditioning.computed"] = computed
    out["conditioning.lru_hit_ratio"] = max(0.0, 1.0 - _ratio(computed, lookups)) if lookups else 0.0
    compiles = counters.get("skeleton.compiles", 0.0)
    hits = counters.get("skeleton.cache_hits", 0.0)
    out["bound.compile_ms_total"] = 1e3 * sum(dur(s) for s in in_window("bound.compile"))
    out["bound.compiles"] = compiles
    out["bound.skeleton_hit_ratio"] = _ratio(hits, hits + compiles)
    out["bound.eval_ms_total"] = 1e3 * sum(dur(s) for s in in_window("bound.eval"))
    array = counters.get("bound.array_queries", 0.0)
    out["bound.array_frac"] = _ratio(array, array + counters.get("bound.object_queries", 0.0))

    # optimizer: plan time minus the estimate calls it made.
    roots = {s[1]: s for s in in_window("request")}
    plans = by_rid("optimizer.plan")
    estimates = defaultdict(list)
    for span in sb_calls:
        estimates[span[1]].append(span)
    for frame, span in rtt.items():
        if "/" in str(frame):
            estimates[frame.split("/")[0]].append(span)
    self_ms, calls, subqueries = [], [], []
    for rid, spans in plans.items():
        children = estimates.get(rid, [])
        self_ms.append((dur(spans[0]) - sum(dur(c) for c in children)) * 1e3)
        calls.append(len(children))
        subqueries.append(sum(c[4].get("n", 0) for c in children))
    out["optimizer.self_ms_p50"] = median(self_ms)
    out["optimizer.calls_per_plan"] = mean(calls)
    out["optimizer.subqueries_per_plan"] = mean(subqueries)

    # catalog / ingest (server-side, whole window).
    publishes = in_window("catalog.publish")
    out["catalog.publish_ms"] = mean([dur(s) * 1e3 for s in publishes])
    out["catalog.load_ms"] = mean([dur(s) * 1e3 for s in in_window("catalog.load")])
    out["catalog.refreshes"] = float(len(in_window("catalog.refresh")))
    all_publishes = by_name["catalog.publish"]
    if all_publishes:
        out["catalog.archive_kb"] = all_publishes[-1][4]["size"] / 1024.0
    writer = (server_final or {}).get("writer")
    if writer:
        inserts = writer["inserts"]
        out["ingest.insert_ms_p50"] = median([i["insert_ms"] for i in inserts])
        out["ingest.republishes"] = float(writer["republishes"])
        out["ingest.staleness_max"] = max((i["staleness"] for i in inserts), default=0.0)
        out["ingest.writer_lag_ms"] = max((i["lag_ms"] for i in inserts), default=0.0)
    out["stats_builder.build_s"] = median([dur(s) for s in by_name["stats_builder.build"]])
    out["setup.warmup_s"] = warmup_s

    # Reconciliation: time inside the markers that no layer span covers.
    frame_layers = defaultdict(list)
    for frame, spans in client_encode.items():
        frame_layers[frame] += [(s[2], s[3]) for s in spans]
    for frame, span in server.items():
        frame_layers[frame].append((span[2], span[3]))
    unattributed = 0.0
    total = 0.0
    for rid, root in roots.items():
        total += dur(root)
        frames = [f for f in rtt if f == rid or str(f).startswith(f"{rid}/")]
        top = [(s[2], s[3]) for s in plans.get(rid, [])]
        top += [(rtt[f][2], rtt[f][3]) for f in frames]
        unattributed += dur(root) - covered(root[2], root[3], top)
        for f in frames:
            unattributed += dur(rtt[f]) - covered(rtt[f][2], rtt[f][3], frame_layers[f])
    out["trace.unattributed_frac"] = _ratio(unattributed, total)
    base = median(untraced.latencies)
    out["trace.overhead_frac"] = _ratio(median(window.latencies) - base, base)
    return out
