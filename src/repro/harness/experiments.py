"""One function per paper figure (see DESIGN.md's experiment index).

``run_end_to_end`` performs the shared heavy lifting (build + plan +
execute for every estimator on every workload); the ``fig5a`` ... ``fig8b``
functions reduce its output to the series each figure reports.  The
micro-benchmarks (``fig9b``, ``fig9c``) and the scalability study
(``fig10``) are self-contained.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core.clustering import cluster_cds, group_maxima, self_join_distance
from ..core.compression import (
    dominate_ds_compress,
    equi_depth_compress,
    exponential_compress,
    relative_self_join_error,
    self_join_bound,
    valid_compress,
)
from ..core.conditioning import pair_group_sequences
from ..core.degree_sequence import DegreeSequence
from ..core.safebound import SafeBound, SafeBoundConfig
from ..estimators import (
    BayesCardEstimator,
    NeuroCardEstimator,
    PessEstEstimator,
    Postgres2DEstimator,
    PostgresEstimator,
    PostgresPKEstimator,
    SimplicityEstimator,
    TrueCardinalityEstimator,
)
from ..workloads import (
    make_imdb,
    make_job_light,
    make_job_light_ranges,
    make_job_m,
    make_stats_ceb,
    make_tpch_db,
)
from ..core.stats_builder import build_statistics
from .metrics import quantiles, regression_stats, speedup_quantiles
from .runner import MethodResult, run_suite

__all__ = [
    "SuiteConfig",
    "default_estimators",
    "build_workloads",
    "run_end_to_end",
    "fig5a_runtimes",
    "fig5b_planning_time",
    "fig5c_relative_error",
    "fig6_longest_queries",
    "fig7_binned_runtime",
    "fig8a_memory",
    "fig8b_build_time",
    "fig9a_regressions",
    "fig9b_compression",
    "fig9c_clustering",
    "fig10_scalability",
]

METHOD_ORDER = [
    "TrueCardinality",
    "Postgres",
    "Postgres2D",
    "PostgresPK",
    "BayesCard",
    "NeuroCard",
    "PessEst",
    "Simplicity",
    "SafeBound",
]


@dataclass
class SuiteConfig:
    """Scale knobs for the end-to-end suite (paper scale is much larger;
    EXPERIMENTS.md documents the mapping)."""

    imdb_scale: float = 0.25
    stats_scale: float = 0.25
    num_job_light: int = 40
    num_job_light_ranges: int = 50
    num_job_m: int = 25
    num_stats: int = 40
    seed: int = 1
    methods: list[str] = field(default_factory=lambda: list(METHOD_ORDER))
    # SafeBound offline-build parallelism (0 = serial reference build; the
    # parallel build is bit-identical, so results never depend on these).
    build_workers: int = 0
    build_shard_rows: int | None = None


def default_estimators(
    methods: list[str] | None = None,
    safebound_factory=None,
    build_workers: int = 0,
    build_shard_rows: int | None = None,
) -> dict:
    """Factories for every compared system.

    ``safebound_factory`` substitutes the plain in-process ``SafeBound``
    with any protocol-compatible variant — e.g. a
    ``repro.service.CatalogBackedSafeBound`` so the whole measurement
    pipeline runs against catalog-published statistics.  The build worker
    knobs configure SafeBound's sharded parallel offline phase (see
    ``core.stats_builder.ParallelBuildPlan``); they only change build
    wall-clock, never the statistics, which stay bit-identical to a
    serial build.
    """

    def make_safebound():
        return SafeBound(
            SafeBoundConfig(
                build_workers=build_workers,
                build_shard_rows=build_shard_rows,
            )
        )

    factories = {
        "TrueCardinality": TrueCardinalityEstimator,
        "Postgres": PostgresEstimator,
        "Postgres2D": Postgres2DEstimator,
        "PostgresPK": PostgresPKEstimator,
        "BayesCard": BayesCardEstimator,
        "NeuroCard": lambda: NeuroCardEstimator(num_walks=50),
        "PessEst": PessEstEstimator,
        "Simplicity": SimplicityEstimator,
        "SafeBound": safebound_factory or make_safebound,
    }
    if methods is None:
        return factories
    return {m: factories[m] for m in methods}


def build_workloads(config: SuiteConfig) -> list:
    imdb = make_imdb(scale=config.imdb_scale, seed=config.seed)
    return [
        make_job_light(db=imdb, num_queries=config.num_job_light, seed=config.seed),
        make_job_light_ranges(
            db=imdb, num_queries=config.num_job_light_ranges, seed=config.seed
        ),
        make_job_m(db=imdb, num_queries=config.num_job_m, seed=config.seed),
        make_stats_ceb(
            scale=config.stats_scale, num_queries=config.num_stats, seed=config.seed + 4
        ),
    ]


def run_end_to_end(
    config: SuiteConfig | None = None, indexes_enabled: bool = True
) -> dict[str, dict[str, MethodResult]]:
    """The shared measurement pass behind Figs 5-8."""
    config = config or SuiteConfig()
    workloads = build_workloads(config)
    factories = default_estimators(
        config.methods,
        build_workers=config.build_workers,
        build_shard_rows=config.build_shard_rows,
    )
    return run_suite(workloads, factories, indexes_enabled=indexes_enabled)


# ----------------------------------------------------------------------
# Figure reductions
# ----------------------------------------------------------------------
def fig5a_runtimes(suite) -> list[list]:
    """Workload runtime relative to true-cardinality plans (Fig 5a)."""
    rows = []
    for workload, per_method in suite.items():
        baseline = {
            r.query_name: r.runtime
            for r in per_method["TrueCardinality"].records
            if r.runtime is not None
        }
        for method in METHOD_ORDER:
            if method not in per_method:
                continue
            result = per_method[method]
            supported = [r for r in result.supported_records() if r.runtime is not None]
            if not supported:
                rows.append([workload, method, None, 0])
                continue
            names = [r.query_name for r in supported]
            method_total = sum(r.runtime for r in supported)
            base_total = sum(baseline[n] for n in names if n in baseline)
            rows.append(
                [workload, method, method_total / max(base_total, 1e-9), len(supported)]
            )
    return rows


def fig5b_planning_time(suite) -> list[list]:
    """Median planning time per method and workload (Fig 5b)."""
    rows = []
    for workload, per_method in suite.items():
        for method in METHOD_ORDER:
            if method not in per_method:
                continue
            result = per_method[method]
            rows.append([workload, method, result.median_planning_seconds() * 1000.0])
    return rows


def fig5c_relative_error(suite) -> list[list]:
    """Relative error (Estimate / True) distributions (Fig 5c)."""
    rows = []
    for workload, per_method in suite.items():
        for method in METHOD_ORDER:
            if method == "TrueCardinality" or method not in per_method:
                continue
            records = [
                r
                for r in per_method[method].supported_records()
                if r.estimate is not None
            ]
            if not records:
                continue
            # Error quantiles over non-empty queries (the paper's plots);
            # an underestimate means estimate strictly below the true count
            # (so bound=0 on a truly empty query is NOT an underestimate).
            errors = [r.relative_error for r in records if r.true_cardinality >= 1]
            under = float(
                np.mean(
                    [r.estimate < r.true_cardinality * (1 - 1e-9) for r in records]
                )
            )
            if not errors:
                continue
            qs = quantiles(errors)
            rows.append([workload, method, qs[0.05], qs[0.5], qs[0.95], under])
    return rows


def fig6_longest_queries(suite, top: int = 80) -> dict:
    """Runtime of the longest-running queries across all workloads (Fig 6).

    Returns the top-N per-query runtimes (Postgres vs SafeBound ordering by
    Postgres runtime) and the speedup quantiles from the figure's caption.
    """
    pg_runtimes: dict[tuple[str, str], float] = {}
    sb_runtimes: dict[tuple[str, str], float] = {}
    for workload, per_method in suite.items():
        for r in per_method["Postgres"].records:
            if r.runtime is not None:
                pg_runtimes[(workload, r.query_name)] = r.runtime
        for r in per_method["SafeBound"].records:
            if r.runtime is not None:
                sb_runtimes[(workload, r.query_name)] = r.runtime
    keys = [k for k in pg_runtimes if k in sb_runtimes]
    keys.sort(key=lambda k: -pg_runtimes[k])
    top_keys = keys[:top]
    qs = speedup_quantiles(
        [pg_runtimes[k] for k in top_keys], [sb_runtimes[k] for k in top_keys]
    )
    return {
        "queries": [
            (k[0], k[1], pg_runtimes[k], sb_runtimes[k]) for k in top_keys
        ],
        "speedup_quantiles": qs,
    }


def fig7_binned_runtime(suite) -> list[list]:
    """Average runtime binned by the Postgres-estimate runtime (Fig 7)."""
    pairs = []
    for workload, per_method in suite.items():
        pg = {r.query_name: r.runtime for r in per_method["Postgres"].records if r.runtime is not None}
        sb = {r.query_name: r.runtime for r in per_method["SafeBound"].records if r.runtime is not None}
        for name in pg:
            if name in sb:
                pairs.append((pg[name], sb[name]))
    if not pairs:
        return []
    pg_all = np.array([p[0] for p in pairs])
    sb_all = np.array([p[1] for p in pairs])
    edges = np.quantile(pg_all, np.linspace(0, 1, 7))
    edges = np.unique(edges)
    rows = []
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        mask = (pg_all >= lo) & (pg_all <= hi if i == len(edges) - 2 else pg_all < hi)
        if not mask.any():
            continue
        rows.append(
            [f"[{lo:.0f}, {hi:.0f})", float(pg_all[mask].mean()), float(sb_all[mask].mean()), int(mask.sum())]
        )
    return rows


def fig8a_memory(suite) -> list[list]:
    rows = []
    for workload, per_method in suite.items():
        for method in METHOD_ORDER:
            if method in per_method and method != "TrueCardinality":
                rows.append([workload, method, per_method[method].memory_bytes / 1024.0])
    return rows


def fig8b_build_time(suite) -> list[list]:
    rows = []
    for workload, per_method in suite.items():
        for method in METHOD_ORDER:
            if method in per_method and method != "TrueCardinality":
                rows.append([workload, method, per_method[method].build_seconds])
    return rows


# ----------------------------------------------------------------------
# Fig 9a: index regression study
# ----------------------------------------------------------------------
def fig9a_regressions(config: SuiteConfig | None = None) -> list[list]:
    """FK-index performance regressions, Postgres vs SafeBound (Fig 9a)."""
    config = config or SuiteConfig(methods=["TrueCardinality", "Postgres", "SafeBound"])
    config.methods = ["TrueCardinality", "Postgres", "SafeBound"]
    with_idx = run_end_to_end(config, indexes_enabled=True)
    without_idx = run_end_to_end(config, indexes_enabled=False)
    rows = []
    for method in ("Postgres", "SafeBound"):
        before, after = [], []
        for workload in with_idx:
            runtimes_with = {
                r.query_name: r.runtime
                for r in with_idx[workload][method].records
                if r.runtime is not None
            }
            runtimes_without = {
                r.query_name: r.runtime
                for r in without_idx[workload][method].records
                if r.runtime is not None
            }
            for name in runtimes_with:
                if name in runtimes_without:
                    before.append(runtimes_without[name])
                    after.append(runtimes_with[name])
        count, severity = regression_stats(before, after)
        rows.append([method, count, severity, len(before)])
    return rows


# ----------------------------------------------------------------------
# Fig 9b: CDS-vs-DS modelling and segmentation strategies
# ----------------------------------------------------------------------
def fig9b_compression(db=None, with_predicate: bool = False) -> list[list]:
    """Error vs compression ratio for six approximation methods (Fig 9b).

    Uses ``movie_companies.movie_id`` — the paper's micro-benchmark column —
    optionally conditioned on an equality predicate on the (propagated)
    production year.
    """
    db = db if db is not None else make_imdb(scale=0.25, seed=1)
    mc = db.table("movie_companies")
    movie_id = mc.column("movie_id")
    if with_predicate:
        title = db.table("title")
        years = title.column("production_year")[movie_id]
        most_common = np.bincount(years).argmax()
        movie_id = movie_id[years == most_common]
    ds = DegreeSequence.from_column(movie_id)
    num_runs = ds.num_runs
    rows = []
    # ValidCompress: sweep the accuracy knob.
    for accuracy in (0.3, 0.1, 0.03, 0.01, 0.003, 0.001):
        cds = valid_compress(ds, accuracy)
        rows.append(
            ["ValidCompress/CDS", num_runs / max(cds.num_segments, 1), relative_self_join_error(ds, cds)]
        )
    for segments in (2, 4, 8, 16, 32):
        eq = equi_depth_compress(ds, segments)
        rows.append(["EquiDepth/CDS", num_runs / max(eq.num_segments, 1), relative_self_join_error(ds, eq)])
        ex = exponential_compress(ds, segments)
        rows.append(["Exponential/CDS", num_runs / max(ex.num_segments, 1), relative_self_join_error(ds, ex)])
        # DS-domination variants with the same divider strategies.
        expanded_cum = np.cumsum(ds.expand().astype(float))
        targets = np.linspace(0, expanded_cum[-1], segments + 1)[1:]
        eq_divs = np.searchsorted(expanded_cum, targets, side="left") + 1
        rows.append(
            ["EquiDepth/DS", num_runs / segments, relative_self_join_error(ds, dominate_ds_compress(ds, eq_divs))]
        )
        d = ds.num_distinct
        ratio = max(d, 2) ** (1.0 / segments)
        ex_divs = np.unique(np.ceil(ratio ** np.arange(1, segments + 1)).astype(int))
        rows.append(
            ["Exponential/DS", num_runs / segments, relative_self_join_error(ds, dominate_ds_compress(ds, ex_divs))]
        )
    return rows


# ----------------------------------------------------------------------
# Fig 9c: clustering strategies for group compression
# ----------------------------------------------------------------------
def fig9c_clustering(db=None, cluster_counts=(4, 8, 16, 32, 64)) -> list[list]:
    """Average self-join error of cluster maxima vs compression ratio
    (Fig 9c): complete linkage vs single linkage vs naive grouping."""
    db = db if db is not None else make_imdb(scale=0.25, seed=1)
    mc = db.table("movie_companies")
    title = db.table("title")
    years = title.column("production_year")[mc.column("movie_id")]
    movie_id = mc.column("movie_id")
    codes, uniques = np.unique(years, return_inverse=True)[1], np.unique(years)
    pg, pc, _, _ = pair_group_sequences(codes, movie_id)
    cds_list = []
    for group in np.unique(pg):
        freqs = pc[pg == group]
        cds_list.append(DegreeSequence.from_frequencies(freqs).to_cds())
    n = len(cds_list)
    rows = []
    for method in ("complete", "single", "naive"):
        for k in cluster_counts:
            if k >= n:
                continue
            labels = cluster_cds(cds_list, k, method)
            reps, remap = group_maxima(cds_list, labels)
            errors = []
            for i, cds in enumerate(cds_list):
                sj = self_join_bound(cds)
                sj_rep = self_join_bound(reps[remap[i]])
                errors.append(sj_rep / sj - 1.0 if sj > 0 else 0.0)
            rows.append([method, n / k, float(np.mean(errors))])
    return rows


# ----------------------------------------------------------------------
# Fig 10: scalability on TPC-H
# ----------------------------------------------------------------------
def fig10_scalability(scale_factors=(0.005, 0.01, 0.02, 0.04)) -> list[list]:
    """SafeBound build time vs TPC-H scale factor, with/without trigram
    statistics (Fig 10).  Growth should be linear in the data size."""
    rows = []
    for sf in scale_factors:
        db = make_tpch_db(scale_factor=sf)
        total_rows = db.total_rows()
        for trigrams in (True, False):
            started = time.perf_counter()
            stats = build_statistics(db, build_trigrams=trigrams)
            elapsed = time.perf_counter() - started
            rows.append(
                [sf, total_rows, "with trigrams" if trigrams else "no trigrams", elapsed, stats.memory_bytes() / 1024.0]
            )
    return rows
