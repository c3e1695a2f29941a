"""High-throughput federated query serving.

The paper's end product is a *database selection service*: something
that fields live queries against many text databases, fast.  This
package is that serving layer, wrapped around the library's
:class:`~repro.federation.service.FederatedSearchService`:

* :class:`FederationFrontend` — vectorized CORI selection (a
  :class:`~repro.dbselect.vectorized.CoriScorer` compiled once per
  model epoch), an LRU cache over selection rankings (emptied on
  model installs), and concurrent backend fan-out with
  per-backend deadlines that degrade — a slow or failing backend is
  dropped and reported, never fatal.
* :class:`LruCache` — the bounded cache primitive, instrumented through
  :mod:`repro.obs`.
* :mod:`repro.serving.bench` — synthetic-federation fixtures (a skewed
  federation, a slow-backend wrapper, queries from the models' own
  vocabulary); it also says where serving speed is measured.

Requests and responses are the service's own
:class:`~repro.federation.service.SearchRequest` /
:class:`~repro.federation.service.FederatedResponse` types, re-exported
here so serving callers import one package.
"""

from repro.federation.service import FederatedResponse, SearchRequest
from repro.serving.bench import (
    LatencyInjected,
    build_synthetic_federation,
    queries_from_models,
)
from repro.serving.cache import LruCache
from repro.serving.frontend import FederationFrontend, PartialUpdate

__all__ = [
    "FederatedResponse",
    "FederationFrontend",
    "LatencyInjected",
    "LruCache",
    "PartialUpdate",
    "SearchRequest",
    "build_synthetic_federation",
    "queries_from_models",
]
