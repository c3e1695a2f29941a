"""Federated search, end to end.

The paper's motivating application assembled from the library's parts:
a :class:`FederatedSearchService` owns a set of searchable databases,
*acquires* a language model for each (by sampling, via the STARTS
protocol, or protocol-with-sampling-fallback), *selects* databases per
query (CORI/GlOSS/KL), *searches* the selected few, and *merges* their
results into one ranking.

:mod:`repro.federation.testbed` builds the federations the repo
evaluates on, each a :class:`World`: a topic-labelled corpus, its
databases, their servers and the relevance oracle (per-database
relevant counts and merged-list precision, judged by the generating
topic).  :func:`skewed_world` is the topically *skewed* one (70% of a
topic's documents in its home database — the texture of real
by-source testbeds); :func:`build_synthetic_federation` serves it over
a synthetic profile.
"""

from repro.federation.service import (
    FederatedResponse,
    FederatedSearchService,
    SearchRequest,
)
from repro.federation.testbed import (
    TopicalQuery,
    World,
    build_skewed_partition,
    build_synthetic_federation,
    queries_from_models,
    skewed_world,
    topical_queries,
)

__all__ = [
    "FederatedResponse",
    "FederatedSearchService",
    "SearchRequest",
    "TopicalQuery",
    "World",
    "build_skewed_partition",
    "build_synthetic_federation",
    "queries_from_models",
    "skewed_world",
    "topical_queries",
]
