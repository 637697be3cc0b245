"""Deterministic fault injection for the serving stack.

The paper's guarantee — bounds never underestimate, even under updates —
is delivered by a pipeline of files, sockets and threads (catalog
publishes, socket frames, micro-batches, republish cycles), and every
link can fail: a torn manifest write, a stalled batch, a reset
connection, a persistent republish error.  The resilience machinery that survives
those faults is only trustworthy if CI can *provoke* them on demand, the
same way every time.  This module is that provocation layer.

A :class:`FaultPlan` is a set of named **sites** (strings like
``"catalog.manifest.torn"``) with per-site triggers: fire on the k-th
arrival, fire n times, or fire with a seeded per-site probability — all
deterministic, so a failing chaos seed replays exactly.  Installing a
plan (:func:`install_faults` / the :func:`faults_installed` context
manager) makes it the process-global plan.

Production code threads **site checks** through its fault points:

* :func:`fire` — raise :class:`InjectedFault` (an ``OSError``) or sleep
  (``action="sleep"``) when the site triggers;
* :func:`corrupt` — return ``transform(value)`` when the site triggers,
  ``value`` itself (same object, so callers can test identity)
  otherwise.  The *call site* defines what corruption means — a torn
  manifest is truncated text, a partial response is a cut-off frame.

With no plan installed both helpers are one module-global load plus a
``None`` check — the same zero-overhead discipline as ``obs.tracing``:
``bench_obs_overhead.py`` measures the disabled per-call cost and
``bench_resilience.py`` asserts its floor, so leaving sites compiled
into the serving path costs nothing in production.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "get_faults",
    "install_faults",
    "uninstall_faults",
    "faults_installed",
    "fire",
    "corrupt",
]


class InjectedFault(OSError):
    """The error an injected ``raise`` site throws.

    An ``OSError`` subclass on purpose: most serving fault points are IO
    boundaries whose handlers catch ``OSError``, and injection must flow
    through exactly the handlers a real torn write or reset would."""

    def __init__(self, site: str, detail: str = "") -> None:
        message = f"injected fault at {site!r}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """One site's trigger schedule.

    Arrivals at the site are counted; the spec skips the first ``after``
    of them, then triggers up to ``times`` of the rest (``times <= 0``
    means unlimited).  With ``probability`` set, each eligible arrival
    triggers with that probability from a per-site stream seeded by the
    plan — deterministic per (seed, site, arrival index).

    ``action`` is what a trigger does: ``"raise"`` throws
    :class:`InjectedFault`, ``"sleep"`` blocks for ``delay`` seconds, and
    ``"corrupt"`` makes :func:`corrupt` apply its caller-supplied
    transform.  A ``"corrupt"`` spec is inert at :func:`fire` sites and
    vice versa — the site kind is part of the contract.
    """

    site: str
    times: int = 1
    after: int = 0
    probability: float | None = None
    action: str = "raise"
    delay: float = 0.0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.action not in ("raise", "sleep", "corrupt"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")


@dataclass
class _SiteState:
    spec: FaultSpec
    rng: random.Random | None
    arrivals: int = 0
    fired: int = 0


class FaultPlan:
    """A seeded, installable schedule of fault sites.

    Thread-safe: arrival counting and trigger decisions happen under one
    lock, so concurrent connection/batching threads see a consistent
    per-site sequence.  ``counts()`` reports arrivals and fires per site
    — what chaos tests assert to prove their faults actually happened.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0) -> None:
        self.seed = seed
        self._lock = threading.Lock()
        self._sites: dict[str, _SiteState] = {}
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        with self._lock:
            rng = (
                random.Random(f"{self.seed}:{spec.site}")
                if spec.probability is not None
                else None
            )
            self._sites[spec.site] = _SiteState(spec, rng)
        return self

    def counts(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                site: {"arrivals": s.arrivals, "fired": s.fired}
                for site, s in self._sites.items()
            }

    def fired(self, site: str) -> int:
        with self._lock:
            state = self._sites.get(site)
            return state.fired if state else 0

    # ------------------------------------------------------------------
    def _trigger(self, site: str, kind: str) -> FaultSpec | None:
        """Count one arrival at ``site``; the spec if it triggers now.

        ``kind`` partitions sites into ``fire`` (raise/sleep) and
        ``corrupt`` ones so a spec only ever triggers at the site shape
        it was written for.
        """
        with self._lock:
            state = self._sites.get(site)
            if state is None:
                return None
            spec = state.spec
            wanted = "corrupt" if spec.action == "corrupt" else "fire"
            if wanted != kind:
                return None
            state.arrivals += 1
            if state.arrivals <= spec.after:
                return None
            if spec.times > 0 and state.fired >= spec.times:
                return None
            if state.rng is not None and state.rng.random() >= spec.probability:
                return None
            state.fired += 1
            return spec

    def fire(self, site: str) -> None:
        spec = self._trigger(site, "fire")
        if spec is None:
            return
        if spec.action == "sleep":
            time.sleep(spec.delay)
            return
        raise InjectedFault(site, spec.detail)

    def corrupt(self, site: str, value, transform):
        spec = self._trigger(site, "corrupt")
        if spec is None:
            return value
        return transform(value)


# ----------------------------------------------------------------------
# Process-global installation.  The serving hot paths check this global
# on every site — keep the uninstalled path to one load + None check.
# ----------------------------------------------------------------------
_plan: FaultPlan | None = None


def get_faults() -> FaultPlan | None:
    return _plan


def install_faults(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide."""
    global _plan
    _plan = plan
    return plan


def uninstall_faults() -> None:
    global _plan
    _plan = None


@contextlib.contextmanager
def faults_installed(plan: FaultPlan):
    """Install ``plan`` for the block, restoring the previous plan."""
    global _plan
    previous = _plan
    _plan = plan
    try:
        yield plan
    finally:
        _plan = previous


def fire(site: str) -> None:
    """The raise/sleep site check (no-op without an installed plan)."""
    plan = _plan
    if plan is not None:
        plan.fire(site)


def corrupt(site: str, value, transform):
    """The value-corruption site check: ``transform(value)`` when the
    site triggers, ``value`` itself (identical object) otherwise."""
    plan = _plan
    if plan is None:
        return value
    return plan.corrupt(site, value, transform)
