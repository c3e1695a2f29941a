"""Query-based sampling — the paper's core contribution (Section 3).

The algorithm:

1. select an initial query term;
2. run a one-term query on the database;
3. retrieve the top N documents returned;
4. update the learned language model from the retrieved documents;
5. if the stopping criterion is not met, select a new query term and
   repeat from 2.

The pluggable pieces the paper varies experimentally live here:

* **query-term selection strategies** (Section 5.2):
  :class:`RandomFromLearned` (the baseline), frequency-based selectors
  (:class:`FrequencyFromLearned` over df / ctf / avg-tf), and
  :class:`RandomFromOther` (the "olm" hypothesis);
* **documents per query** N (Section 5.1) — a sampler config knob;
* **stopping criteria** (Section 6): document/query budgets and the
  rdiff-convergence criterion the paper proposes.

:class:`QueryBasedSampler` orchestrates a run against a
:class:`~repro.index.server.DatabaseServer` (or anything with the same
``run_query`` surface) and produces a :class:`SamplingRun` carrying the
learned model, periodic snapshots (for learning curves and rdiff), and
full cost accounting.

Remote databases fail; :mod:`repro.sampling.transport` makes the loop
survive that: a retrying :class:`ResilientDatabase` client (exponential
backoff, circuit breaker, transport metrics), the
:class:`ServerError` exception taxonomy every database surface may
raise, and a deterministic fault injector (:class:`UnreliableServer`)
for experimenting on degraded transports.
"""

from repro.sampling.pool import PoolResult, SamplingPool
from repro.sampling.result import QueryRecord, SamplingRun, Snapshot
from repro.sampling.sampler import QueryBasedSampler, SamplerConfig, SearchableDatabase
from repro.sampling.staleness import RefreshPolicy, StalenessReport, staleness_probe
from repro.sampling.selection import (
    FrequencyFromLearned,
    ListBootstrap,
    QueryTermSelector,
    RandomFromLearned,
    RandomFromOther,
    is_eligible_query_term,
)
from repro.sampling.stopping import (
    AllOf,
    AnyOf,
    MaxDocuments,
    MaxQueries,
    RdiffConvergence,
    StoppingCriterion,
)
from repro.sampling.transport import (
    CircuitBreaker,
    CircuitOpenError,
    PermanentServerError,
    RateLimitedError,
    ResilientDatabase,
    RetryPolicy,
    ServerError,
    ServerTimeout,
    TransientServerError,
    TransportMetrics,
    UnreliableServer,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CircuitBreaker",
    "CircuitOpenError",
    "FrequencyFromLearned",
    "ListBootstrap",
    "MaxDocuments",
    "MaxQueries",
    "PermanentServerError",
    "PoolResult",
    "QueryBasedSampler",
    "QueryRecord",
    "QueryTermSelector",
    "RandomFromLearned",
    "RandomFromOther",
    "RateLimitedError",
    "RdiffConvergence",
    "RefreshPolicy",
    "ResilientDatabase",
    "RetryPolicy",
    "SamplerConfig",
    "SamplingPool",
    "SamplingRun",
    "SearchableDatabase",
    "ServerError",
    "ServerTimeout",
    "Snapshot",
    "StalenessReport",
    "StoppingCriterion",
    "TransientServerError",
    "TransportMetrics",
    "UnreliableServer",
    "is_eligible_query_term",
    "staleness_probe",
]
