"""Seeded inputs of the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same query pool, query stream and insert schedule in every
process that asks (the client and the server process each generate their
own copy rather than shipping data between them).

Each workload's database is a fixed instance — the dataset, like IMDB
or Stats in the paper — so set-up cost and statistics size do not vary
with the seed; the seed draws what arrives at the service:

* ``point`` — a 70-query JOB-Light pool over IMDB.
* ``plan`` / ``ingest`` — STATS-CEB.  Query *shapes* (tables, joins and
  which columns carry predicates) are fixed templates, so every seed
  plans the same mix of 2-6 way, cyclic and acyclic joins; the seed
  draws each instantiation's predicate constants, and the inserted rows.
  Measured templates and warmup templates are disjoint.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.predicates import And, Eq, Range
from repro.db.query import Query
from repro.workloads.imdb import make_imdb
from repro.workloads.job_light import generate_job_light_queries
from repro.workloads.stats_ceb import generate_stats_queries, make_stats_db

# The stock generators' default seeds.
IMDB_SEED = 1
STATS_SEED = 5
_TEMPLATE_QUERY_SEED = 84


def imdb_db(scale: float):
    return make_imdb(scale=scale, seed=IMDB_SEED)


def point_queries(db, seed: int) -> list[Query]:
    """A seeded 70-query JOB-Light pool over ``db``."""
    return generate_job_light_queries(db, 70, seed)


def stats_db(scale: float):
    return make_stats_db(scale=scale, seed=STATS_SEED)


def stats_templates(db, measured: int, warmup: int):
    """``measured`` + ``warmup`` disjoint STATS-CEB query shapes over ``db``."""
    shapes: list[Query] = []
    seen: set = set()
    for query in generate_stats_queries(db, 4 * (measured + warmup), _TEMPLATE_QUERY_SEED):
        key = query.skeleton_key()
        if key in seen:
            continue
        seen.add(key)
        shapes.append(query)
        if len(shapes) == measured + warmup:
            break
    return shapes[:measured], shapes[measured:]


def _leaves(predicate):
    if isinstance(predicate, And):
        for child in predicate.children:
            yield from _leaves(child)
    else:
        yield predicate


def _fresh_leaf(leaf, values: np.ndarray, rng: np.random.Generator):
    if isinstance(leaf, Eq):
        return Eq(leaf.column, int(values[rng.integers(0, len(values))]))
    pivot = int(np.quantile(values.astype(float), float(rng.uniform(0.05, 0.95))))
    roll = rng.random()
    if roll < 0.45:
        return Range(leaf.column, low=pivot)
    if roll < 0.9:
        return Range(leaf.column, high=pivot)
    width = int(rng.integers(1, max(int(values.max()) // 4, 2)))
    return Range(leaf.column, low=pivot, high=pivot + width)


def instantiate(template: Query, db, rng: np.random.Generator, name: str) -> Query:
    """``template``'s shape with fresh predicate constants drawn from ``db``."""
    query = Query(name=name)
    for alias, table in template.relations.items():
        query.add_relation(alias, table)
    for join in template.joins:
        query.add_join(join.left.alias, join.left.column, join.right.alias, join.right.column)
    for alias, predicate in template.predicates.items():
        columns = db.table(template.relations[alias])
        leaves = [_fresh_leaf(leaf, columns.column(leaf.column), rng) for leaf in _leaves(predicate)]
        query.add_predicate(alias, leaves[0] if len(leaves) == 1 else And(leaves))
    return query


def query_stream(templates: list[Query], db, seed: int):
    """An endless stream of fresh instantiations: rounds over every
    template in a seeded shuffled order."""
    rng = np.random.default_rng([seed, 1])
    issued = 0
    while True:
        for index in rng.permutation(len(templates)):
            yield instantiate(templates[index], db, rng, f"q{issued:05d}")
            issued += 1


def warmup_queries(templates: list[Query], db, seed: int) -> list[Query]:
    """One instantiation of every warmup template (a stream disjoint from
    the measured one: other shapes, other random numbers)."""
    rng = np.random.default_rng([seed, 2])
    return [instantiate(t, db, rng, f"warm{i:03d}") for i, t in enumerate(templates)]


# Inserts: each batch adds this share of the table's current rows.  The
# republish threshold is 10% padding overhead, so three batches into one
# table cross it (about 12%) and two do not (about 8%).
INSERT_SHARE = 0.04
INSERT_TABLES = ("votes", "votes", "votes", "comments", "comments", "comments")


def insert_schedule(db, seed: int) -> list[tuple[str, dict]]:
    """Seeded insert batches ``(table, column -> values)``: copies of
    existing rows (so foreign keys stay valid) with fresh ids.  Two
    republishes follow from them: one after the third and one after the
    sixth batch."""
    rng = np.random.default_rng([seed, 3])
    grown: dict[str, int] = {}
    batches = []
    for table in INSERT_TABLES:
        current = db.table(table)
        base = current.num_rows
        rows_now = base + grown.get(table, 0)
        n = math.ceil(INSERT_SHARE * rows_now)
        picks = rng.integers(0, base, n)
        rows = {name: column[picks] for name, column in current.columns.items()}
        rows["id"] = np.arange(rows_now, rows_now + n, dtype=current.column("id").dtype)
        grown[table] = grown.get(table, 0) + n
        batches.append((table, rows))
    return batches
