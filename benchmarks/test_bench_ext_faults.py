"""Extension Ext-10: sampling convergence over an unreliable transport.

The paper assumes every query against the remote database comes back;
real search interfaces time out and throw transient errors.  This bench
samples a WSJ-like database through the fault-injection wrapper
(:class:`~repro.sampling.transport.UnreliableServer`) at 0% / 10% / 30%
transient-fault rates, with the retrying client
(:class:`~repro.sampling.transport.ResilientDatabase`) in between.

Expected: retries fully absorb the faults — the final ctf ratio matches
the fault-free run (±0.02) because the *sampled document stream* is
unchanged — while transport cost (attempts, retries, simulated backoff
seconds) grows with the fault rate.  A no-retry run at 30% faults must
still finish, reporting its abandoned queries as failed instead of
crashing.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.index import DatabaseServer
from repro.lm.compare import ctf_ratio
from repro.sampling import (
    MaxDocuments,
    QueryBasedSampler,
    RandomFromOther,
    ResilientDatabase,
    RetryPolicy,
    UnreliableServer,
)
from repro.synth import wsj88_like
from repro.utils.table import format_table

FAULT_RATES = (0.0, 0.1, 0.3)
SAMPLE_DOCS = 300


def _sample_through_faults(corpus, budget, fault_rate, policy, seed=5):
    server = DatabaseServer(corpus)
    database = ResilientDatabase(
        UnreliableServer(server, transient_rate=fault_rate, seed=17),
        policy=policy,
        seed=17,
    )
    run = QueryBasedSampler(
        database,
        bootstrap=RandomFromOther(server.actual_language_model()),
        stopping=MaxDocuments(budget),
        seed=seed,
    ).run()
    projected = run.model.project(server.index.analyzer)
    ratio = ctf_ratio(projected, server.actual_language_model())
    return run, database.metrics, ratio


def _experiment(testbed):
    scale = min(testbed.scale, 0.5)
    corpus = wsj88_like().build(seed=71, scale=scale)
    budget = min(SAMPLE_DOCS, len(corpus) // 3)

    retry = RetryPolicy(max_attempts=6)
    rows = []
    ratios = {}
    metrics_by_rate = {}
    for rate in FAULT_RATES:
        run, metrics, ratio = _sample_through_faults(corpus, budget, rate, retry)
        ratios[rate] = ratio
        metrics_by_rate[rate] = metrics
        rows.append(
            {
                "fault_rate": rate,
                "retries": "on",
                "docs": run.documents_examined,
                "queries": run.queries_run,
                "attempts": metrics.attempts,
                "retries_n": metrics.retries,
                "abandoned": metrics.queries_abandoned,
                "backoff_s": round(metrics.total_backoff, 1),
                "ctf_ratio": round(ratio, 4),
            }
        )

    # Retries disabled at the highest fault rate: the run must still
    # finish, with abandoned queries reported as failed.
    no_retry_run, no_retry_metrics, no_retry_ratio = _sample_through_faults(
        corpus, budget, max(FAULT_RATES), RetryPolicy(max_attempts=1)
    )
    rows.append(
        {
            "fault_rate": max(FAULT_RATES),
            "retries": "off",
            "docs": no_retry_run.documents_examined,
            "queries": no_retry_run.queries_run,
            "attempts": no_retry_metrics.attempts,
            "retries_n": 0,
            "abandoned": no_retry_metrics.queries_abandoned,
            "backoff_s": 0.0,
            "ctf_ratio": round(no_retry_ratio, 4),
        }
    )

    # Determinism spot-check: an identical degraded run reproduces both
    # the learned model and the transport metrics exactly.
    repeat_run, repeat_metrics, repeat_ratio = _sample_through_faults(
        corpus, budget, 0.3, retry
    )
    deterministic = (
        repeat_ratio == ratios[0.3]
        and repeat_metrics.attempts == metrics_by_rate[0.3].attempts
        and repeat_metrics.total_backoff == metrics_by_rate[0.3].total_backoff
    )
    return rows, ratios, metrics_by_rate, no_retry_run, deterministic


def test_bench_ext_faults(benchmark, testbed):
    rows, ratios, metrics_by_rate, no_retry_run, deterministic = benchmark.pedantic(
        lambda: _experiment(testbed), rounds=1, iterations=1
    )
    emit(format_table(rows, title="Ext-10: sampling over an unreliable transport"))

    budget = rows[0]["docs"]
    # Convergence preserved: every retried run reaches the full budget
    # and lands on the fault-free ctf ratio within ±0.02.
    for rate in FAULT_RATES:
        row = next(r for r in rows if r["fault_rate"] == rate and r["retries"] == "on")
        assert row["docs"] == budget, rows
        assert abs(ratios[rate] - ratios[0.0]) <= 0.02, rows

    # Query cost grows with the fault rate: retries happen and the
    # database sees more attempts than the sampler issued queries.
    assert metrics_by_rate[0.3].retries > metrics_by_rate[0.1].retries > 0, rows
    assert metrics_by_rate[0.3].attempts > metrics_by_rate[0.3].queries, rows
    assert metrics_by_rate[0.3].total_backoff > 0, rows
    assert metrics_by_rate[0.0].retries == 0, rows

    # Degraded runs are exactly reproducible for a fixed seed.
    assert deterministic, rows

    # Without retries the run still finishes and reports its abandoned
    # queries as failed — the sampler never crashes.
    no_retry_row = rows[-1]
    assert no_retry_row["abandoned"] > 0, rows
    assert no_retry_run.failed_queries >= no_retry_run.abandoned_queries > 0
    assert no_retry_run.documents_examined == budget, rows
