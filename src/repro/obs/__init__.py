"""Observability substrate for the estimation pipeline.

Two always-importable primitives with near-zero cost when disabled:

* :mod:`repro.obs.tracing` — a :class:`Tracer` of nested spans with
  thread-local context, instrumenting the full online path (skeleton
  compile, conditioning and its cache, segmented kernel execution,
  optimizer DP levels, server batch lifecycle).  When no tracer is
  installed, every instrumentation point is a module-global ``None``
  check returning a shared no-op span.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms, snapshotted as one JSON-friendly dict.

``repro.obs.explain`` (the ``explain_bound`` per-query breakdown) and
``repro.obs.cli`` (the ``python -m repro.service explain``/``trace``
subcommands) build on these; they import the core estimation modules,
so they are *not* imported here — the core modules import this package.
"""

from .metrics import (
    MetricsRegistry,
    get_metrics,
    inc,
    install_metrics,
    metrics_installed,
    observe,
    set_gauge,
    uninstall_metrics,
)
from .tracing import (
    Tracer,
    get_tracer,
    install_tracer,
    span,
    tracing_installed,
    uninstall_tracer,
)

__all__ = [
    "Tracer",
    "get_tracer",
    "install_tracer",
    "uninstall_tracer",
    "tracing_installed",
    "span",
    "MetricsRegistry",
    "get_metrics",
    "install_metrics",
    "uninstall_metrics",
    "metrics_installed",
    "inc",
    "observe",
    "set_gauge",
]
