"""High-throughput federated query serving.

The paper's end product is a *database selection service*: something
that fields live queries against many text databases, fast.  This
package is that serving layer, wrapped around the library's
:class:`~repro.federation.service.FederatedSearchService`:

* :class:`FederationFrontend` — the service's own selection behind an
  LRU cache over rankings (keyed by query and model epoch, emptied on
  model installs), and concurrent backend fan-out with
  per-backend deadlines that degrade — a slow or failing backend is
  dropped and reported, never fatal.
* :func:`frontend_from_servers` — a frontend over a set of database
  servers with their ground-truth models (or the models given), as
  ``repro serve`` and ``bench/`` build it.
* :class:`LatencyInjected` — a backend whose every search pays a fixed
  latency, the slow remote database of ``repro serve --slow-backend``.
* :class:`LruCache` — the bounded cache primitive, instrumented through
  :mod:`repro.obs`.

The federations it serves are built in :mod:`repro.federation.testbed`
(:func:`~repro.federation.testbed.build_synthetic_federation`);
:mod:`repro.serving.bench` only re-exports that function for
``bench/``, where serving speed is measured end to end
(``python3 bench/run.py --workload serve_light|serve_heavy``).

Requests and responses are the service's own
:class:`~repro.federation.service.SearchRequest` /
:class:`~repro.federation.service.FederatedResponse` types, re-exported
here so serving callers import one package.
"""

from repro.federation.service import FederatedResponse, SearchRequest
from repro.serving.cache import LruCache
from repro.serving.frontend import (
    FederationFrontend,
    LatencyInjected,
    PartialUpdate,
    frontend_from_servers,
)

__all__ = [
    "FederatedResponse",
    "FederationFrontend",
    "LatencyInjected",
    "LruCache",
    "PartialUpdate",
    "SearchRequest",
    "frontend_from_servers",
]
