"""The service subsystem's acceptance test (ISSUE 2):

build stats -> publish to catalog -> serve >= 100 concurrent requests
through the micro-batching server with bounds bit-identical to direct
``SafeBound.bound`` calls -> apply an insert/delete stream with bounds
never dropping below true cardinalities -> background recompression
publishes a new catalog version that the server hot-swaps without
rejecting requests.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.safebound import SafeBound, SafeBoundConfig
from repro.db.executor import Executor
from repro.service import (
    CatalogBackedSafeBound,
    EstimationServer,
    RepublishWorker,
    StatsCatalog,
    UpdateIngest,
    generate_load,
)

from test_ingest import make_db, make_queries


def test_full_service_lifecycle(tmp_path):
    db = make_db(seed=21, n_dim=200, n_fact=4000)
    queries = make_queries()

    # --- build + publish -------------------------------------------------
    catalog = StatsCatalog(tmp_path)
    estimator = CatalogBackedSafeBound(
        catalog, "e2e", SafeBoundConfig(track_updates=True)
    )
    estimator.build(db)
    assert catalog.latest("e2e").version == 1

    # Reference bounds from a plain in-process SafeBound over the same
    # published archive — the serving path must match them bit for bit.
    reference = SafeBound(estimator.config)
    reference.stats = catalog.load("e2e", 1)
    direct = [reference.bound(q) for q in queries]

    ingest = UpdateIngest(db, estimator, republish_overhead=0.05)
    worker = RepublishWorker(ingest, poll_seconds=0.01)
    server = EstimationServer(
        estimator, max_batch=32, refresh_seconds=0.0, refresh_db=db
    )

    with server:
        # --- serve >= 100 concurrent requests, bit-identical -------------
        report = generate_load([server.bound] * 12, queries, num_requests=120)
        metrics = server.metrics_snapshot()
        assert report["rejections"] == 0
        assert metrics["server.rejected"] == 0
        for i, result in enumerate(report["results"]):
            assert result == direct[i % len(queries)]
        assert metrics["server.batch_size"]["mean"] > 1.0  # batching happened

        # --- live insert/delete stream, bounds stay valid -----------------
        worker.start()
        rng = np.random.default_rng(2)
        next_id = 5_000_000
        try:
            for step in range(6):
                n = int(rng.integers(100, 300))
                ingest.insert("fact", {
                    "id": np.arange(next_id, next_id + n),
                    "dim_id": (rng.zipf(1.5, n) - 1) % 260,
                    "score": rng.integers(0, 40, n),
                })
                next_id += n
                ingest.delete(
                    "fact",
                    rng.choice(db.table("fact").num_rows, int(rng.integers(20, 80)), replace=False),
                )
                executor = Executor(db)
                for query in queries:
                    served = server.bound(query)
                    true = executor.cardinality(query)
                    assert served >= true * (1 - 1e-9), (
                        f"step {step}: served bound {served} < true {true}"
                    )

            # --- background republish + hot swap without rejections -------
            deadline = time.monotonic() + 15.0
            while not worker.published and time.monotonic() < deadline:
                time.sleep(0.01)
            assert worker.published, "staleness must trigger a background republish"
        finally:
            worker.stop()

        new_version = worker.published[-1].version
        assert new_version >= 2
        assert estimator.version == new_version
        assert estimator.staleness() == 0.0

        # The server keeps serving valid bounds from the fresh version.
        report2 = generate_load([server.bound] * 6, queries, num_requests=60)
        assert report2["rejections"] == 0
        assert server.metrics.rejected == 0
        executor = Executor(db)
        truths = [executor.cardinality(q) for q in queries]
        for i, result in enumerate(report2["results"]):
            assert result >= truths[i % len(queries)] * (1 - 1e-9)

    assert server.metrics.value("server.failed") == 0
    assert [v.version for v in catalog.versions("e2e")] == list(
        range(1, new_version + 1)
    )
