"""Tests for the network serving tier (service/net.py + service/wire.py).

Covers the wire codec (bit-identical bounds through a JSON round trip),
the socket front end (concurrent clients, typed overload responses,
malformed-frame resilience, health/metrics verbs, prompt stop), the
load generator over sockets, and the hot-swap acceptance path: a
catalog publish under load from socket clients is served from the new
version with zero failed or dropped requests, and an insert is padded
into the served statistics before any republish.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.predicates import And, Eq, InList, Like, Or, Range
from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.db.database import Database
from repro.db.executor import Executor
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.service.catalog import CatalogBackedSafeBound, StatsCatalog
from repro.service.ingest import UpdateIngest
from repro.service.net import NetClient, NetRequestError, NetServer, connect_clients
from repro.service.server import EstimationServer, ServerOverloadedError, generate_load
from repro.service.wire import (
    FrameError,
    query_from_wire,
    query_to_wire,
    read_frame,
    wire_to_float,
    write_frame,
)


@pytest.fixture(scope="module")
def built(tiny_db):
    sb = SafeBound()
    sb.build(tiny_db)
    return sb


def _queries() -> list[Query]:
    out = []
    for year in range(1950, 2010, 20):
        out.append(
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
            .add_predicate("d", Range("year", low=year, high=year + 19))
        )
    out.append(
        Query()
        .add_relation("f", "fact")
        .add_relation("d", "dim")
        .add_relation("g", "fact2")
        .add_join("f", "dim_id", "d", "id")
        .add_join("g", "dim_id", "d", "id")
        .add_predicate("f", Eq("score", 3))
    )
    return out


def _wire_key(query: Query) -> str:
    return json.dumps(query_to_wire(query), sort_keys=True)


class TestWireCodec:
    def test_round_trip_is_bit_identical(self, built):
        for query in _queries():
            wire = json.loads(json.dumps(query_to_wire(query)))
            back = query_from_wire(wire)
            assert built.bound(back) == built.bound(query)

    def test_every_predicate_kind_round_trips(self):
        query = (
            Query(name="kitchen-sink")
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
            .add_predicate(
                "d",
                And([
                    Range("year", low=1960, high=1999, high_inclusive=False),
                    Or([Like("name", "al%"), InList("kind", [0, 2, 4])]),
                ]),
            )
            .add_predicate("f", Eq("score", 3))
        )
        wire = json.loads(json.dumps(query_to_wire(query)))
        back = query_from_wire(wire)
        assert back.name == "kitchen-sink"
        assert back.relations == {"f": "fact", "d": "dim"}
        assert len(back.joins) == 1
        outer = back.predicates["d"]
        assert isinstance(outer, And)
        rng, disj = outer.children
        assert isinstance(rng, Range) and rng.high_inclusive is False
        assert isinstance(disj, Or)
        assert isinstance(disj.children[0], Like)
        assert isinstance(disj.children[1], InList)

    def test_numpy_scalars_normalised(self):
        query = (
            Query()
            .add_relation("f", "fact")
            .add_predicate("f", Eq("score", np.int64(3)))
            .add_predicate(
                "f2",
                Range("score", low=np.float64(1.5), high=np.int32(9)),
            )
        )
        wire = query_to_wire(query)
        text = json.dumps(wire)  # must not choke on numpy scalars
        back = query_from_wire(json.loads(text))
        assert back.predicates["f"].value == 3
        assert type(back.predicates["f"].value) is int
        assert back.predicates["f2"].low == 1.5

    def test_frame_round_trip_and_clean_eof(self):
        a, b = socket.socketpair()
        with a, b:
            write_frame(a, {"op": "health"})
            write_frame(a, {"op": "metrics", "n": 2})
            assert read_frame(b) == {"op": "health"}
            assert read_frame(b) == {"op": "metrics", "n": 2}
            a.close()
            assert read_frame(b) is None  # clean EOF at a frame boundary

    def test_oversized_frame_rejected_without_allocation(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 1 << 30))
            with pytest.raises(FrameError, match="exceeds"):
                read_frame(b, max_bytes=1024)

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 100) + b"only-a-few-bytes")
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                read_frame(b)

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(FrameError, match="JSON object"):
                read_frame(b)

    def test_invalid_join_shape_rejected(self):
        with pytest.raises(ValueError, match="join"):
            query_from_wire({"relations": {"f": "fact"}, "joins": [["f", "x"]]})

    def test_nonfinite_floats_cross_as_sentinels(self):
        """Frames are strict JSON: an infinite bound or the NaN summaries
        of an idle latency reservoir must travel as string sentinels, not
        as Python's bare ``Infinity``/``NaN`` tokens (which non-Python
        JSON parsers reject)."""
        payload = {
            "inf": float("inf"),
            "ninf": float("-inf"),
            "nan": float("nan"),
            "np_inf": np.float32("inf"),
            "nested": [{"p99": float("nan")}],
            "finite": 1.5,
        }
        a, b = socket.socketpair()
        with a, b:
            write_frame(a, payload)
            (length,) = struct.unpack(">I", b.recv(4))
            body = b.recv(length)

        def bare_token(token):  # json.loads only calls this for them
            raise AssertionError(f"non-standard {token} token on the wire")

        frame = json.loads(body, parse_constant=bare_token)
        assert frame["inf"] == "Infinity"
        assert frame["ninf"] == "-Infinity"
        assert frame["nan"] == "NaN"
        assert frame["np_inf"] == "Infinity"
        assert frame["nested"] == [{"p99": "NaN"}]
        assert frame["finite"] == 1.5
        assert wire_to_float(frame["inf"]) == float("inf")
        assert wire_to_float(frame["ninf"]) == float("-inf")
        assert math.isnan(wire_to_float(frame["nan"]))

    def test_unknown_payload_type_raises_frame_error(self):
        """An object with no wire form must fail loudly at send time —
        never degrade into a lossy ``repr`` string the peer cannot
        interpret — and must leave the stream unpolluted."""
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(FrameError, match="wire-serialisable"):
                write_frame(a, {"oops": object()})
            write_frame(a, {"op": "health"})  # nothing was half-sent
            assert read_frame(b) == {"op": "health"}


class _SlowEstimator:
    def __init__(self, inner, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def estimate_batch(self, queries):
        time.sleep(self.delay)
        return self.inner.estimate_batch(queries)


@pytest.fixture(scope="module")
def net(built):
    """A running socket front end over an in-thread estimation server."""
    with EstimationServer(built, max_batch=16) as server:
        with NetServer(server) as net:
            yield net


class TestNetServer:
    def test_single_bound_over_socket(self, built, net):
        query = _queries()[0]
        with NetClient(*net.address) as client:
            assert client.bound(query) == built.bound(query)

    def test_bound_batch_over_socket(self, built, net):
        queries = _queries()
        with NetClient(*net.address) as client:
            assert client.bound_batch(queries) == [built.bound(q) for q in queries]

    def test_health_and_metrics_verbs(self, built, net):
        with NetClient(*net.address) as client:
            # Send a request first: the module-scoped server may not have
            # served one yet when this test runs alone or shuffled.
            query = _queries()[0]
            assert client.bound(query) == built.bound(query)
            health = client.health()
            assert health["status"] == "ok"
            assert isinstance(health["pid"], int)
            metrics = client.metrics()
            assert metrics["server.accepted"] >= 1
            assert metrics["server.request_seconds"]["count"] >= 1
            assert metrics["health"]["status"] == "ok"

    def test_unknown_op_answered_without_closing(self, built, net):
        with NetClient(*net.address) as client:
            response = client.request({"op": "frobnicate"})
            assert response == {
                "ok": False,
                "error": "bad_request",
                "detail": "unknown op 'frobnicate'",
            }
            # Same connection still serves.
            assert client.bound(_queries()[0]) == built.bound(_queries()[0])

    def test_bad_query_payload_is_bad_request(self, net):
        with NetClient(*net.address) as client:
            with pytest.raises(NetRequestError) as info:
                client.bound({"relations": "not-an-object"})
            assert info.value.error == "bad_request"

    def test_malformed_frame_gets_error_and_close(self, built, net):
        before = net.frame_errors
        raw = socket.create_connection(net.address, timeout=5.0)
        with raw:
            raw.sendall(struct.pack(">I", 50) + b'this is not json at all.' * 2 + b"xx")
            response = read_frame(raw)
            assert response is not None and response["error"] == "bad_request"
            assert read_frame(raw) is None  # server closed the connection
        assert net.frame_errors == before + 1
        # The listener and fresh connections are unaffected.
        with NetClient(*net.address) as client:
            assert client.bound(_queries()[0]) == built.bound(_queries()[0])

    def test_abrupt_disconnect_mid_frame_tolerated(self, built, net):
        raw = socket.create_connection(net.address, timeout=5.0)
        raw.sendall(struct.pack(">I", 1000) + b"partial")
        raw.close()
        with NetClient(*net.address) as client:
            assert client.bound(_queries()[0]) == built.bound(_queries()[0])

    def test_concurrent_clients_bit_identical(self, built, net):
        queries = _queries()
        direct = [built.bound(q) for q in queries]
        with connect_clients(*net.address, 6) as clients:
            report = generate_load([c.bound for c in clients], queries, 60)
        assert report["errors"] == {}
        assert report["completed"] == 60
        assert report["concurrency"] == 6
        for i, result in enumerate(report["results"]):
            assert result == direct[i % len(queries)]

    def test_overload_surfaces_as_typed_response(self, built):
        slow = _SlowEstimator(built, delay=0.5)
        query = _queries()[0]
        with EstimationServer(slow, max_queue=1, max_batch=1) as server:
            with NetServer(server) as net:
                occupant = NetClient(*net.address)
                filler = NetClient(*net.address)
                threads = [
                    threading.Thread(target=c.bound, args=(query,), daemon=True)
                    for c in (occupant, filler)
                ]
                threads[0].start()
                time.sleep(0.15)  # first request dispatched into the sleep
                threads[1].start()
                time.sleep(0.15)  # second request fills the queue
                try:
                    with NetClient(*net.address) as client:
                        response = client.request(
                            {"op": "bound", "query": query_to_wire(query)}
                        )
                        assert response["ok"] is False
                        assert response["error"] == "overloaded"
                        assert response["max_queue"] == 1
                        assert isinstance(response["queue_depth"], int)
                        assert "pending" in response["detail"]
                        assert response["retry_after_ms"] > 0
                        # ... and the client class maps it onto the same
                        # exception the in-process API raises.
                        with pytest.raises(ServerOverloadedError) as info:
                            client.bound(query)
                        assert info.value.max_queue == 1
                finally:
                    for t in threads:
                        t.join(10.0)
                    occupant.close()
                    filler.close()

    def test_bound_batch_frame_is_one_estimate_batch_call(self):
        """NetServer submits a frame through one submit_many call, so a
        frame of N <= max_batch queries reaches estimate_batch as a single
        call while other connections keep sending single bounds."""

        class _Recording:
            def __init__(self) -> None:
                self.batches: list[set[str]] = []

            def estimate_batch(self, queries):
                self.batches.append({_wire_key(q) for q in queries})
                return [1.0] * len(queries)

        stub = _Recording()
        single = _queries()[0]
        frame = [
            _queries()[3].add_predicate("g", Eq("score", 100 + i)) for i in range(8)
        ]
        keys = {_wire_key(q) for q in frame}
        stop = threading.Event()
        with EstimationServer(stub, max_batch=len(frame)) as server:
            with NetServer(server) as net:

                def hammer() -> None:
                    with NetClient(*net.address) as client:
                        while not stop.is_set():
                            client.bound(single)

                threads = [threading.Thread(target=hammer, daemon=True) for _ in range(2)]
                for thread in threads:
                    thread.start()
                try:
                    with NetClient(*net.address) as client:
                        for _ in range(30):
                            assert client.bound_batch(frame) == [1.0] * len(frame)
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(10.0)
        assert any(_wire_key(single) in batch for batch in stub.batches)
        hits = [batch for batch in stub.batches if keys & batch]
        assert len(hits) == 30
        assert all(keys <= batch for batch in hits)

    def test_frame_longer_than_max_batch(self, built):
        """A frame of 2 * max_batch + 1 queries (the planner sends its
        whole subquery lattice as one frame, over 64 queries on
        6-relation shapes) comes back index-aligned and bit-equal to an
        in-process estimate_batch, served in ceil(N / max_batch) calls."""

        class _Counting:
            def __init__(self) -> None:
                self.sizes: list[int] = []

            def estimate_batch(self, queries):
                self.sizes.append(len(queries))
                return built.estimate_batch(queries)

        max_batch = 16
        base = _queries()
        frame = [
            base[i % len(base)]
            .induced_subquery(base[i % len(base)].relations)
            .add_predicate("f", Range("score", low=i % 7, high=i % 7 + 3 + i))
            for i in range(2 * max_batch + 1)
        ]
        stub = _Counting()
        with EstimationServer(stub, max_batch=max_batch) as server:
            with NetServer(server) as net:
                with NetClient(*net.address) as client:
                    served = client.bound_batch(frame)
        expected = built.estimate_batch(frame)
        assert len(set(expected)) > len(base)  # the frame's queries differ
        assert [x.hex() for x in served] == [x.hex() for x in expected]
        assert stub.sizes == [max_batch, max_batch, 1]
        assert len(stub.sizes) == math.ceil(len(frame) / max_batch)

    def test_idle_stop_returns_promptly(self, built):
        """Regression: stop() only closed the listener, which does not
        wake a blocked accept() on Linux, so every stop waited out the
        accept thread's 5 s join."""
        with EstimationServer(built) as server:
            net = NetServer(server).start()
            started = time.monotonic()
            net.stop()
            assert time.monotonic() - started < 1.0

    def test_stop_closes_live_connections(self, built):
        """Asserting that a *new* connection is refused after stop would
        be flaky — on loopback the freed ephemeral port can be picked as
        the client's own source port (TCP self-connect) — so assert the
        deterministic half: open connections observe the shutdown."""
        server = EstimationServer(built)
        server.start()
        net = NetServer(server).start()
        client = NetClient(*net.address)
        try:
            assert client.health()["status"] == "ok"
            net.stop()
            server.stop()
            with pytest.raises((ConnectionError, OSError, FrameError)):
                client.health()
        finally:
            client.close()


class TestResponsePath:
    """Failures on the *response* side of a connection must be answered
    with a typed error frame, never a silent connection close."""

    def test_handler_exception_answered_as_server_error(self, built, monkeypatch):
        with EstimationServer(built) as server, NetServer(server) as net:
            def boom():
                raise RuntimeError("snapshot exploded")

            monkeypatch.setattr(server, "metrics_snapshot", boom)
            with NetClient(*net.address) as client:
                with pytest.raises(NetRequestError) as info:
                    client.metrics()
                assert info.value.error == "server_error"
                assert "snapshot exploded" in info.value.detail
                # Same connection still serves.
                assert client.bound(_queries()[0]) == built.bound(_queries()[0])

    def test_oversized_response_answered_then_closed(self, built, monkeypatch):
        """A response over the frame cap used to escape ``write_frame``
        as an uncaught FrameError and kill the connection thread with no
        frame at all.  The size check runs before any byte is sent, so
        the server can still answer with a small error frame — then it
        drops the connection, mirroring the read-side handling."""
        import repro.service.wire as wire_module

        with EstimationServer(built) as server, NetServer(server) as net:
            before = net.frame_errors
            with NetClient(*net.address) as client:
                # A metrics response blows a 256-byte cap; the request
                # frames (and the error frame) stay well under it.
                monkeypatch.setattr(wire_module, "MAX_FRAME_BYTES", 256)
                with pytest.raises(NetRequestError) as info:
                    client.metrics()
                assert info.value.error == "server_error"
                assert "exceeds" in info.value.detail
                with pytest.raises((ConnectionError, FrameError, OSError)):
                    client.health()  # connection was closed
            assert net.frame_errors == before + 1
            monkeypatch.undo()
            # The listener and fresh connections are unaffected.
            with NetClient(*net.address) as client:
                assert "server.accepted" in client.metrics()


class _InfiniteEstimator:
    def estimate_batch(self, queries):
        return [float("inf")] * len(queries)


class TestNonFiniteOverTheWire:
    def test_infinite_bound_served_over_socket(self):
        with EstimationServer(_InfiniteEstimator()) as server:
            with NetServer(server) as net:
                with NetClient(*net.address) as client:
                    assert client.bound(_queries()[0]) == float("inf")
                    assert client.bound_batch(_queries()[:2]) == [float("inf")] * 2

    def test_idle_metrics_cross_the_wire(self, built):
        """An idle server's snapshot — zero counters, no histogram yet —
        still crosses the wire as a strict-JSON frame the client reads
        back unchanged."""
        with EstimationServer(built) as server:
            with NetServer(server) as net:
                with NetClient(*net.address) as client:
                    metrics = client.metrics()
                    expected = server.metrics_snapshot()
        assert metrics["server.accepted"] == metrics["server.completed"] == 0
        assert "server.request_seconds" not in metrics
        assert metrics["health"]["status"] == "ok"
        assert json.loads(json.dumps(metrics, allow_nan=False)) == metrics
        assert set(metrics) == set(expected)


class _FailOnceEstimator:
    """Answers every query with 1.0, except the first batch after
    ``fail_next`` is set, which raises."""

    def __init__(self) -> None:
        self.fail_next = False

    def estimate_batch(self, queries):
        if self.fail_next:
            self.fail_next = False
            raise RuntimeError("injected estimator failure")
        return [1.0] * len(queries)


class TestClientCheck:
    """``python -m repro.service client --check`` exits 1 when the server
    reports a failed request, even if every request of its own load
    succeeded: ``server.failed`` in the metrics verb is then the only
    signal."""

    def _check(self, net) -> int:
        from repro.service.__main__ import client

        host, port = net.address
        return client([
            "--host", host, "--port", str(port), "--requests", "12",
            "--concurrency", "2", "--timeout", "30",
            "--check",
        ])

    def test_check_passes_on_a_healthy_server(self, capsys):
        with EstimationServer(_FailOnceEstimator()) as server:
            with NetServer(server) as net:
                assert self._check(net) == 0
        assert "check ok" in capsys.readouterr().err

    def test_check_fails_when_the_server_failed_a_request(self, capsys):
        estimator = _FailOnceEstimator()
        with EstimationServer(estimator) as server:
            with NetServer(server) as net:
                estimator.fail_next = True
                with pytest.raises(RuntimeError, match="injected"):
                    server.bound(_queries()[0], timeout=10.0)
                assert self._check(net) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["errors"] == {}
        assert "server failed 1 requests" in captured.err


def _make_mutable_db(seed: int = 11, n_dim: int = 120, n_fact: int = 1500) -> Database:
    rng = np.random.default_rng(seed)
    schema = Schema()
    schema.add_table("dim", primary_key="id", filter_columns=["year"])
    schema.add_table("fact", join_columns=["dim_id"], filter_columns=["score"])
    schema.add_foreign_key("fact", "dim_id", "dim", "id")
    db = Database(schema)
    db.add_table(Table("dim", {
        "id": np.arange(n_dim),
        "year": rng.integers(1950, 2020, n_dim),
    }))
    db.add_table(Table("fact", {
        "id": np.arange(n_fact),
        "dim_id": (rng.zipf(1.5, n_fact) - 1) % n_dim,
        "score": rng.integers(0, 30, n_fact),
    }))
    return db


def _star_queries() -> list[Query]:
    def star() -> Query:
        return (
            Query()
            .add_relation("f", "fact")
            .add_relation("d", "dim")
            .add_join("f", "dim_id", "d", "id")
        )

    return [
        star(),
        star().add_predicate("d", Range("year", low=1980, high=1999)),
        star().add_predicate("f", Eq("score", 3)),
    ]


class TestCrossProcessHotSwap:
    """The acceptance path: catalog publish under load from socket
    clients."""

    def test_publish_under_load_propagates_with_zero_failures(self, tmp_path):
        db = _make_mutable_db()
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(
            catalog, "live", SafeBoundConfig(track_updates=True)
        )
        estimator.build(db)
        queries = _star_queries()
        v1 = [estimator.bound(q) for q in queries]

        server = EstimationServer(estimator, max_batch=4)
        with server, NetServer(server) as net:
            ingest = UpdateIngest(db, estimator)
            # Load from six socket clients, long enough to still be in
            # flight when the republish below lands.
            load_report: dict = {}

            def run_load() -> None:
                with connect_clients(*net.address, 6) as clients:
                    load_report.update(
                        generate_load([c.bound for c in clients], queries, 600)
                    )

            loader = threading.Thread(target=run_load, daemon=True)
            loader.start()
            rng = np.random.default_rng(5)
            n = 400
            ingest.insert("fact", {
                "id": np.arange(700000, 700000 + n),
                "dim_id": rng.integers(0, 120, n),
                "score": rng.integers(0, 30, n),
            })
            version = ingest.republish()
            assert version.version == 2
            assert catalog.generation("live") == 2

            # Any request submitted after republish() returned must be
            # served on the new version: republish swaps the served
            # estimator before it returns.  Drive the post-swap requests
            # through fresh socket clients so the codec is covered.
            with connect_clients(*net.address, 4) as clients:
                post = generate_load([c.bound for c in clients], queries, 60)
            loader.join(120.0)
            assert not loader.is_alive()

            v2_direct = CatalogBackedSafeBound(catalog, "live")
            v2_direct.refresh()
            assert v2_direct.version == 2
            expected = [v2_direct.bound(q) for q in queries]
            assert expected != v1  # the republish actually changed bounds

            assert post["errors"] == {}
            assert post["completed"] == 60
            for i, result in enumerate(post["results"]):
                assert result == expected[i % len(queries)]

            # The concurrent load saw zero failed or dropped requests —
            # every request resolved to a finite bound on one version or
            # the other.
            assert load_report["errors"] == {}
            assert load_report["completed"] == 600
            assert server.metrics.value("server.failed") == 0

    def test_insert_is_padded_before_republish(self, tmp_path):
        """An insert pads the served statistics in place before its rows
        become visible, so every bound served after it dominates the
        enlarged database — no republish (and no new catalog version)
        required."""
        db = _make_mutable_db()
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(
            catalog, "live", SafeBoundConfig(track_updates=True)
        )
        estimator.build(db)
        full_join = _star_queries()[0]
        with EstimationServer(estimator, max_batch=4) as server:
            # A threshold no insert reaches: the republish path must not
            # be what repairs the served bounds.
            ingest = UpdateIngest(db, estimator, republish_overhead=1e9)
            rng = np.random.default_rng(23)
            n = 3000  # triples the fact table
            ingest.insert("fact", {
                "id": np.arange(600000, 600000 + n),
                "dim_id": rng.integers(0, 120, n),
                "score": rng.integers(0, 30, n),
            })
            assert ingest.republishes == 0
            assert catalog.generation("live") == 1  # nothing published
            true = Executor(db).cardinality(full_join)
            # The pre-insert version genuinely underestimates the
            # enlarged database — the closed window is real.
            stale = SafeBound()
            stale.stats = catalog.load("live", version=1)
            assert stale.bound(full_join) < true
            for _ in range(6):
                assert server.bound(full_join) >= true * (1 - 1e-9)

    def test_health_reports_version_and_generation(self, tmp_path):
        db = _make_mutable_db()
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "live")
        estimator.build(db)
        with EstimationServer(estimator) as server:
            with NetServer(server) as net:
                with NetClient(*net.address) as client:
                    health = client.health()
                    assert health["version"] == 1
                    assert health["generation"] == 1
                    assert health["generation"] == catalog.latest("live").version

    def test_idle_server_picks_up_a_publish(self, tmp_path):
        """The batching thread polls refresh() while idle: health reports
        the newly published version with no request sent."""
        db = _make_mutable_db()
        catalog = StatsCatalog(tmp_path)
        estimator = CatalogBackedSafeBound(catalog, "live")
        estimator.build(db)
        with EstimationServer(estimator, refresh_seconds=0.02) as server:
            with NetServer(server) as net:
                with NetClient(*net.address) as client:
                    assert client.health()["version"] == 1
                    catalog.publish("live", catalog.load("live", version=1))
                    deadline = time.monotonic() + 5.0
                    while (
                        client.health()["version"] != 2
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.01)
                    assert client.health()["version"] == 2
        assert server.metrics.value("server.accepted") == 0
        assert server.metrics.value("server.swaps") == 1
