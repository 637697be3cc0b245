"""Chaos suite: the serving stack under deterministic injected faults.

Covers the fault-injection layer itself (seeded determinism, trigger
schedules, zero-op when uninstalled), crash-safe catalog recovery (torn
manifest/archive/generation writes, fsck quarantine, the fsck CLI and
stale ready-file detection), degraded-mode serving (refresh-failure
degrade/recover), the client retry budget (typed connect/deadline
errors, reconnect on reset, torn-frame and stalled-read retries), and
the acceptance path: the full net + server + live-ingest stack running
a seeded fault schedule end to end while every invariant holds — no hung client, only typed errors, every
returned bound >= the truth it was computed against, the generation
converges and health returns to ``ok`` once the faults stop, and no
leaked processes or file descriptors.

Seeds come from ``REPRO_CHAOS_SEEDS`` (comma-separated; the CI chaos
smoke job sets a single seed to stay inside its time budget).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.predicates import Eq, Range
from repro.core.safebound import SafeBoundConfig
from repro.db.database import Database
from repro.db.executor import Executor
from repro.db.query import Query
from repro.db.schema import Schema
from repro.db.table import Table
from repro.service import faults
from repro.service.catalog import CatalogBackedSafeBound, StatsCatalog
from repro.service.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    faults_installed,
    install_faults,
    uninstall_faults,
)
from repro.service.ingest import RepublishWorker, UpdateIngest
from repro.service.net import (
    ConnectTimeoutError,
    DeadlineExceededError,
    NetClient,
    NetRequestError,
    NetServer,
    RetryPolicy,
)
from repro.service.server import EstimationServer, ServerOverloadedError

CHAOS_SEEDS = [
    int(s)
    for s in os.environ.get("REPRO_CHAOS_SEEDS", "101,202,303").split(",")
    if s.strip()
]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process with no installed fault plan."""
    yield
    uninstall_faults()


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


def _catalog_estimator(root) -> tuple[Database, StatsCatalog, CatalogBackedSafeBound]:
    db = _make_mutable_db()
    catalog = StatsCatalog(root)
    estimator = CatalogBackedSafeBound(
        catalog, "live", SafeBoundConfig(track_updates=True)
    )
    estimator.build(db)
    return db, catalog, estimator


# ======================================================================
# The fault plan itself
# ======================================================================
class TestFaultPlan:
    def test_uninstalled_sites_are_noops(self):
        assert faults.get_faults() is None
        faults.fire("nowhere")  # must not raise
        value = [1, 2, 3]
        assert faults.corrupt("nowhere", value, lambda v: v[:1]) is value

    def test_unlisted_site_is_noop_under_a_plan(self):
        with faults_installed(FaultPlan([FaultSpec("a.site")])):
            faults.fire("another.site")
            value = "x"
            assert faults.corrupt("another.site", value, lambda v: "") is value

    def test_after_and_times_schedule(self):
        plan = FaultPlan([FaultSpec("s", times=2, after=1)])
        with faults_installed(plan):
            faults.fire("s")  # arrival 1: skipped by after
            with pytest.raises(InjectedFault):
                faults.fire("s")  # arrival 2: fires
            with pytest.raises(InjectedFault):
                faults.fire("s")  # arrival 3: fires (2nd of 2)
            faults.fire("s")  # arrival 4: budget spent
        assert plan.counts()["s"] == {"arrivals": 4, "fired": 2}

    def test_probability_stream_is_deterministic(self):
        def pattern(seed: int) -> list[bool]:
            plan = FaultPlan([FaultSpec("p", times=0, probability=0.4)], seed=seed)
            out = []
            with faults_installed(plan):
                for _ in range(64):
                    try:
                        faults.fire("p")
                        out.append(False)
                    except InjectedFault:
                        out.append(True)
            return out

        first = pattern(7)
        assert pattern(7) == first  # same seed, same schedule
        assert any(first) and not all(first)
        assert pattern(8) != first  # different seed, different schedule

    def test_kind_partition_keeps_corrupt_specs_inert_at_fire_sites(self):
        plan = FaultPlan([
            FaultSpec("c", action="corrupt", times=0),
            FaultSpec("f", action="raise", times=0),
        ])
        with faults_installed(plan):
            faults.fire("c")  # corrupt spec never raises
            value = 5
            assert faults.corrupt("f", value, lambda v: -v) is value
            assert faults.corrupt("c", value, lambda v: -v) == -5
            with pytest.raises(InjectedFault):
                faults.fire("f")

    def test_sleep_action_and_detail(self):
        plan = FaultPlan([
            FaultSpec("slow", action="sleep", delay=0.05),
            FaultSpec("named", detail="manifest torn"),
        ])
        with faults_installed(plan):
            t0 = time.monotonic()
            faults.fire("slow")
            assert time.monotonic() - t0 >= 0.04
            with pytest.raises(InjectedFault, match="manifest torn") as info:
                faults.fire("named")
            assert info.value.site == "named"
            assert isinstance(info.value, OSError)

    def test_install_is_nestable_and_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec("o")])
        inner = FaultPlan([FaultSpec("i")])
        with faults_installed(outer):
            with faults_installed(inner):
                assert faults.get_faults() is inner
            assert faults.get_faults() is outer
        assert faults.get_faults() is None

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("s", action="explode")
        with pytest.raises(ValueError):
            FaultSpec("s", probability=1.5)


# ======================================================================
# Crash-safe catalog
# ======================================================================
class TestCrashSafeCatalog:
    def test_torn_manifest_write_self_heals_on_next_read(self, tmp_path):
        db, catalog, estimator = _catalog_estimator(tmp_path)
        plan = FaultPlan([FaultSpec("catalog.manifest.torn", action="corrupt")])
        with faults_installed(plan), pytest.raises(InjectedFault):
            catalog.publish("live", estimator._current().stats, note="second")
        assert plan.fired("catalog.manifest.torn") == 1

        # The archive committed before the manifest tore, so recovery
        # rebuilds the manifest from disk and adopts both versions.
        versions = catalog.versions("live")
        assert [v.version for v in versions] == [1, 2]
        assert any(v.note == "fsck-recovered" for v in versions)
        assert catalog.generation("live") == 2

        fresh = CatalogBackedSafeBound(StatsCatalog(tmp_path), "live")
        fresh.refresh()
        assert fresh.version == 2
        assert fresh.bound(_star_queries()[0]) >= Executor(db).cardinality(
            _star_queries()[0]
        )

    def test_torn_archive_is_quarantined_and_manifest_stays_intact(self, tmp_path):
        _, catalog, estimator = _catalog_estimator(tmp_path)
        plan = FaultPlan([FaultSpec("catalog.archive.torn", action="corrupt")])
        with faults_installed(plan), pytest.raises(InjectedFault):
            catalog.publish("live", estimator._current().stats, note="second")

        # The tear hit before the manifest commit point: v2 is an
        # unreadable orphan, so fsck quarantines it and v1 keeps serving.
        report = catalog.fsck("live")
        assert report.quarantined and not report.clean
        assert [v.version for v in catalog.versions("live")] == [1]
        assert catalog.generation("live") == 1
        qdir = tmp_path / "live" / "quarantine"
        assert qdir.is_dir() and any(qdir.iterdir())
        assert catalog.fsck("live").clean  # second pass finds nothing

    def test_publish_io_error_leaves_catalog_unchanged(self, tmp_path):
        _, catalog, estimator = _catalog_estimator(tmp_path)
        plan = FaultPlan([FaultSpec("catalog.archive.write", detail="disk full")])
        with faults_installed(plan), pytest.raises(InjectedFault, match="disk full"):
            catalog.publish("live", estimator._current().stats, note="second")
        assert [v.version for v in catalog.versions("live")] == [1]
        assert catalog.generation("live") == 1
        assert catalog.fsck("live").clean

    def test_fsck_temp_removal_respects_age_guard(self, tmp_path):
        _, catalog, _ = _catalog_estimator(tmp_path)
        leftover = tmp_path / "live" / "v000009.sba.incoming"
        leftover.write_bytes(b"half a publish")

        # A fresh temp file might be a publish in flight: the open-time
        # sweep (age-guarded) must leave it alone.
        report = catalog.fsck("live", stale_tmp_seconds=3600.0)
        assert leftover.exists() and not report.removed_temp

        # The explicit CLI-style sweep (age 0) removes it.
        report = catalog.fsck("live")
        assert not leftover.exists()
        assert any("v000009.sba.incoming" in p for p in report.removed_temp)

    def test_open_time_fsck_recovers_a_crashed_catalog(self, tmp_path):
        _, catalog, estimator = _catalog_estimator(tmp_path)
        plan = FaultPlan([FaultSpec("catalog.manifest.torn", action="corrupt")])
        with faults_installed(plan), pytest.raises(InjectedFault):
            catalog.publish("live", estimator._current().stats, note="second")

        # A cold open (the restart-after-crash path) must land on a
        # consistent catalog without any explicit fsck call.
        reopened = StatsCatalog(tmp_path)
        assert [v.version for v in reopened.versions("live")] == [1, 2]
        assert reopened.generation("live") == 2

    def test_fsck_cli_reports_and_removes_stale_ready_file(self, tmp_path):
        _, catalog, estimator = _catalog_estimator(tmp_path)
        catalog.publish("live", estimator._current().stats, note="second")

        # A ready file naming a dead PID is what a crashed serve leaves
        # behind (satellite: --ready-file staleness detection).
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        ready = tmp_path / "server.ready"
        ready.write_text(json.dumps({
            "host": "127.0.0.1", "port": 1, "pid": dead.pid,
            "started_at": time.time(),
        }))

        repo_root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.service", "fsck",
             "--catalog", str(tmp_path), "--ready-file", str(ready)],
            capture_output=True, text=True, env=env, cwd=repo_root, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["clean"] is True
        assert out["ready_file"]["status"] == "stale"
        assert out["ready_file"]["removed"] is True
        assert not ready.exists()


# ======================================================================
# Degraded-mode serving
# ======================================================================
class TestDegradedMode:
    def test_persistent_refresh_failure_degrades_then_auto_recovers(self, tmp_path):
        db, catalog, estimator = _catalog_estimator(tmp_path)
        query = _star_queries()[0]
        truth = Executor(db).cardinality(query)
        server = EstimationServer(
            estimator, refresh_seconds=0.0, degraded_after_failures=2
        )
        plan = FaultPlan([FaultSpec("catalog.manifest.read", times=0)])
        with server:
            install_faults(plan)
            deadline = time.monotonic() + 20.0
            while server.health_status()["status"] != "degraded":
                assert server.bound(query) >= truth  # pinned stats stay sound
                assert time.monotonic() < deadline, server.health_status()
            health = server.health_status()
            assert "refresh failing" in health["reason"]
            assert health["last_refresh_error"] is not None
            assert health["live"] and health["ready"]

            # The faults stop; the next successful refresh heals it.
            uninstall_faults()
            deadline = time.monotonic() + 20.0
            while server.health_status()["status"] != "ok":
                assert server.bound(query) >= truth
                assert time.monotonic() < deadline, server.health_status()
            assert server.health_status()["last_refresh_error"] is None
        assert server.health_status()["status"] == "stopped"


# ======================================================================
# Client retry budgets and typed timeout errors
# ======================================================================
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture(scope="class")
def net_stack(tmp_path_factory):
    root = tmp_path_factory.mktemp("chaos-net")
    db, catalog, estimator = _catalog_estimator(root)
    server = EstimationServer(estimator, max_batch=8)
    with server, NetServer(server) as net:
        yield db, net


class TestRetryClient:
    def test_connect_timeout_is_typed_and_bounded(self):
        port = _free_port()
        t0 = time.monotonic()
        with pytest.raises(ConnectTimeoutError):
            NetClient(
                "127.0.0.1", port,
                connect_timeout=0.4, connect_retry_seconds=0.05,
            )
        assert time.monotonic() - t0 < 5.0

    def test_injected_connection_reset_reconnects_and_succeeds(self, net_stack):
        db, net = net_stack
        query = _star_queries()[0]
        truth = Executor(db).cardinality(query)
        plan = FaultPlan([FaultSpec("net.connection.reset", times=1)])
        with faults_installed(plan):
            client = NetClient(
                *net.address, retry=RetryPolicy(seed=1, deadline_seconds=10.0)
            )
            with client:
                assert client.bound(query) >= truth
            assert client.reconnects >= 1
        assert plan.fired("net.connection.reset") == 1

    def test_partial_frame_write_is_retried(self, net_stack):
        db, net = net_stack
        query = _star_queries()[0]
        truth = Executor(db).cardinality(query)
        plan = FaultPlan([FaultSpec("net.response.partial", action="corrupt", times=1)])
        with faults_installed(plan):
            with NetClient(
                *net.address, timeout=2.0,
                retry=RetryPolicy(seed=2, deadline_seconds=10.0),
            ) as client:
                assert client.bound(query) >= truth
                assert client.reconnects >= 1
        assert plan.fired("net.response.partial") == 1

    def test_stalled_read_times_out_one_attempt_not_the_budget(self, net_stack):
        db, net = net_stack
        query = _star_queries()[0]
        truth = Executor(db).cardinality(query)
        plan = FaultPlan([
            FaultSpec("net.response.stall", action="sleep", delay=1.0, times=1)
        ])
        with faults_installed(plan):
            with NetClient(
                *net.address, timeout=0.3,
                retry=RetryPolicy(seed=3, deadline_seconds=15.0),
            ) as client:
                t0 = time.monotonic()
                assert client.bound(query) >= truth
                assert time.monotonic() - t0 < 10.0
        assert plan.fired("net.response.stall") == 1

    def test_bad_request_is_never_retried(self, net_stack):
        _, net = net_stack
        with NetClient(
            *net.address, retry=RetryPolicy(seed=4, deadline_seconds=10.0)
        ) as client:
            with pytest.raises(NetRequestError):
                client._call({"op": "no-such-op"})
            assert client.retries == 0

    def test_exhausted_budget_raises_deadline_exceeded(self, net_stack):
        _, net = net_stack
        query = _star_queries()[0]
        # Every response path resets the connection: the client can only
        # burn its budget, and must fail with the typed deadline error.
        plan = FaultPlan([FaultSpec("net.connection.reset", times=0)])
        with faults_installed(plan):
            with NetClient(
                *net.address, timeout=1.0,
                retry=RetryPolicy(
                    seed=5, deadline_seconds=2.0, max_attempts=4,
                ),
            ) as client:
                t0 = time.monotonic()
                with pytest.raises(DeadlineExceededError) as info:
                    client.bound(query)
                assert time.monotonic() - t0 < 10.0
                assert info.value.last_error is not None

    def test_retry_after_hint_raises_the_backoff_floor(self):
        policy = RetryPolicy(seed=0)
        rng = random.Random(0)
        assert policy.backoff_seconds(0, rng, retry_after_ms=250.0) >= 0.25
        # Without a hint the first backoff starts at the initial step.
        assert policy.backoff_seconds(0, rng) < 0.25


# ======================================================================
# The acceptance path: full stack under a seeded fault schedule
# ======================================================================
_TYPED_ERRORS = (
    ServerOverloadedError,
    NetRequestError,
    DeadlineExceededError,
    ConnectionError,
    TimeoutError,
)


class TestChaosFullStack:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_stack_survives_seeded_fault_schedule(self, tmp_path, seed):
        children_before = {p.pid for p in multiprocessing.active_children()}
        fds_before = len(os.listdir("/proc/self/fd"))

        db, catalog, estimator = _catalog_estimator(tmp_path)
        queries = _star_queries()
        truth0 = [Executor(db).cardinality(q) for q in queries]

        # Every spec has a bounded budget, so the schedule drains and the
        # stack must converge back to healthy.  The manifest-read faults
        # land on the server's refresh poll and the republish cycle.
        plan = install_faults(FaultPlan(seed=seed, specs=[
            FaultSpec("catalog.manifest.torn", action="corrupt", times=1),
            FaultSpec("catalog.manifest.read", times=2, probability=0.5),
            FaultSpec("server.batch.slow", action="sleep", delay=0.05, times=2),
            FaultSpec("net.connection.reset", times=2),
            FaultSpec("net.response.partial", action="corrupt", times=2),
            FaultSpec("net.response.stall", action="sleep", delay=0.3, times=1),
            FaultSpec("ingest.republish", times=1),
        ]))

        server = EstimationServer(estimator, max_batch=8, refresh_db=db)
        n_threads, per_thread = 4, 40
        outcomes: list[list[tuple[int, float, float]]] = [
            [] for _ in range(n_threads)
        ]
        typed_errors: list[Exception] = []
        unexpected: list[BaseException] = []
        worker = None
        try:
            with server, NetServer(server) as net:
                ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
                worker = RepublishWorker(
                    ingest, poll_seconds=0.05, failure_backoff_seconds=0.1
                )
                worker.start()

                def run_client(tid: int) -> None:
                    policy = RetryPolicy(
                        deadline_seconds=15.0, max_attempts=10,
                        seed=seed * 1000 + tid,
                    )
                    try:
                        with NetClient(
                            *net.address, timeout=2.0, retry=policy
                        ) as client:
                            for i in range(per_thread):
                                idx = (tid + i) % len(queries)
                                t0 = time.monotonic()
                                try:
                                    value = client.bound(queries[idx])
                                except _TYPED_ERRORS as exc:
                                    typed_errors.append(exc)
                                    value = None
                                elapsed = time.monotonic() - t0
                                if value is not None:
                                    outcomes[tid].append((idx, value, elapsed))
                    except BaseException as exc:  # anything untyped fails the test
                        unexpected.append(exc)

                threads = [
                    threading.Thread(target=run_client, args=(tid,), daemon=True)
                    for tid in range(n_threads)
                ]
                for t in threads:
                    t.start()

                # Live ingest while the faults play out: inserts only, so
                # the pre-insert truth stays a valid floor for every
                # bound returned during the run.  Inserts pad in place and
                # never touch the catalog; the republish worker does.
                rng = np.random.default_rng(seed)
                for batch_no in range(2):
                    time.sleep(0.3)
                    n = 300
                    ingest.insert("fact", {
                        "id": np.arange(900000 + batch_no * n,
                                        900000 + (batch_no + 1) * n),
                        "dim_id": rng.integers(0, 120, n),
                        "score": rng.integers(0, 30, n),
                    })

                for t in threads:
                    t.join(90.0)
                assert not any(t.is_alive() for t in threads), "hung client"
                assert not unexpected, unexpected

                # Deterministic parent-side fault budget was spent.
                assert plan.fired("net.connection.reset") == 2
                assert plan.fired("net.response.partial") == 2
                assert plan.fired("net.response.stall") == 1

                # Every error was typed, every call finished inside the
                # retry deadline plus scheduling slack.
                completed = sum(len(o) for o in outcomes)
                assert completed + len(typed_errors) == n_threads * per_thread
                assert completed > 0
                for per in outcomes:
                    for idx, value, elapsed in per:
                        assert value >= truth0[idx], (idx, value, truth0[idx])
                        assert elapsed < 30.0

                # Faults are exhausted: keep a trickle of traffic flowing
                # (refresh runs on the serving loop) until health is ok
                # and the estimator converges onto the latest generation.
                with NetClient(
                    *net.address, timeout=5.0,
                    retry=RetryPolicy(deadline_seconds=20.0, seed=seed),
                ) as final:
                    deadline = time.monotonic() + 60.0
                    while True:
                        health = final.health()
                        try:
                            generation = catalog.generation("live")
                        except OSError:
                            # The probabilistic generation-read budget may
                            # not be spent yet; that is part of the chaos.
                            generation = -1
                        if (
                            health.get("status") == "ok"
                            and health.get("ready")
                            and estimator.version == generation
                            and not ingest.needs_republish()
                        ):
                            break
                        assert time.monotonic() < deadline, (
                            health, estimator.version, generation,
                            ingest.staleness,
                        )
                        final.bound(queries[0])
                        time.sleep(0.05)
                    assert generation > 1  # ingest really republished

                    # Post-recovery bounds hold against the *current*
                    # truth, inserts included.
                    for i, query in enumerate(queries):
                        truth_now = Executor(db).cardinality(query)
                        assert final.bound(query) >= truth_now

                assert catalog.fsck("live").clean
        finally:
            uninstall_faults()
            if worker is not None:
                worker.stop()

        # Zero leaked processes or file descriptors.
        deadline = time.monotonic() + 10.0
        while True:
            leaked = {
                p.pid for p in multiprocessing.active_children()
            } - children_before
            if not leaked or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        assert not leaked, f"leaked child processes: {leaked}"
        gc.collect()
        fds_after = len(os.listdir("/proc/self/fd"))
        assert fds_after <= fds_before + 8, (fds_before, fds_after)
