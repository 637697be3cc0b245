"""Pin a SafeBound to one side of the engine's size-based kernel dispatch.

``FdsbEngine`` sends a batch to the batched array kernels or to the
per-object recursion by its size (``array_min_work`` for bound
evaluation, ``array_min_condition`` for conditioning and truncation).
Thresholds of 0 send every batch to the array kernels; thresholds no
batch can reach keep every batch on the object path, which is the
differential oracle.
"""

from __future__ import annotations

import contextlib
import math

from repro.obs.metrics import metrics_installed

# Counters that only the batched kernels increment.
BATCHED_KERNEL_COUNTERS = (
    "bound.array_queries",
    "conditioning.batched_pairs",
    "conditioning.truncations",
)


def array_side(sb):
    """Send every batch of ``sb`` to the batched array kernels."""
    sb._engine.array_min_work = 0
    sb._engine.array_min_condition = 0
    return sb


def object_side(sb):
    """Keep every batch of ``sb`` on the per-object path (the oracle)."""
    sb._engine.array_min_work = math.inf
    sb._engine.array_min_condition = math.inf
    return sb


@contextlib.contextmanager
def object_path_only():
    """Assert that the block evaluates bounds and never runs a batched
    kernel, so an oracle built by :func:`object_side` stays pure."""
    with metrics_installed() as registry:
        yield registry
    snap = registry.snapshot()
    assert snap.get("bound.object_queries", 0) > 0
    for name in BATCHED_KERNEL_COUNTERS:
        assert snap.get(name, 0) == 0, f"oracle ran a batched kernel: {name}"
