"""Fig 5b: median planning time per method.

Paper shape: Postgres fastest; SafeBound well below the ML methods and
below PessEst (whose base-table scans dominate as data grows — at this
laptop scale the gap is smaller than the paper's 12-420x; README.md,
"Benchmarks", states the scales).
"""

from repro.harness import fig5b_planning_time, format_table


def test_fig5b_planning_time(benchmark, suite, show, planning_snapshot):
    rows = benchmark(fig5b_planning_time, suite)
    planning_snapshot(rows, suite)
    show(format_table(
        ["workload", "method", "median planning ms"],
        rows,
        title="Fig 5b — median planning time (ms)",
    ))
    by_key = {(r[0], r[1]): r[2] for r in rows}
    for workload in {r[0] for r in rows}:
        pg = by_key[(workload, "Postgres")]
        sb = by_key[(workload, "SafeBound")]
        assert pg <= sb  # Postgres' C-style estimator is always fastest
        # Compare against NeuroCard only where it supports the full
        # workload; on STATS-CEB it plans only the small acyclic queries,
        # so its median covers a much easier query subset.
        if workload.startswith("JOB"):
            nc = by_key.get((workload, "NeuroCard"))
            if nc is not None and nc == nc:  # NaN check
                assert sb < nc  # SafeBound beats the ML method
