"""The bound-serving subsystem: catalog, server, live ingest, network tier.

Composes the library pieces into a long-running service:

* :mod:`repro.service.catalog` — versioned on-disk statistics catalog
  with atomic publish and hot version swap;
* :mod:`repro.service.server` — micro-batching estimation server with
  admission control and latency metrics, and the load generator that
  drives it in process or over the network tier;
* :mod:`repro.service.ingest` — live insert/delete ingest with
  background recompress-and-republish cycles;
* :mod:`repro.service.net` / :mod:`repro.service.wire` — the network
  serving tier: a length-prefixed JSON socket facade and typed client;
* ``python -m repro.service`` — the runnable demo plus ``serve`` /
  ``client`` subcommands for serving over a socket.
"""

from .catalog import CatalogBackedSafeBound, StatsCatalog, StatsVersion
from .ingest import RepublishWorker, UpdateIngest, append_rows, remove_rows
from .net import NetClient, NetRequestError, NetServer, connect_clients
from .server import EstimationServer, ServerOverloadedError, generate_load

__all__ = [
    "StatsCatalog",
    "StatsVersion",
    "CatalogBackedSafeBound",
    "EstimationServer",
    "ServerOverloadedError",
    "generate_load",
    "NetServer",
    "NetClient",
    "NetRequestError",
    "connect_clients",
    "UpdateIngest",
    "RepublishWorker",
    "append_rows",
    "remove_rows",
]
