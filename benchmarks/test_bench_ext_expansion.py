"""Extension Ext-2: query expansion from the union of samples (§8).

Co-occurrence-based query expansion needs a representative document
collection to mine expansion terms from.  For *database selection*
queries, expanding from any single database biases selection toward
that database; the paper's insight is that the union of the sampling
service's document samples s₁ ∪ s₂ ∪ … ∪ sₙ "favors no specific
database, but reflects patterns that are common to them all" — it is
the right expansion collection.

This bench quantifies the claim on a topically skewed federation:
expansions mined from a single database's sample skew toward that
database's vocabulary; expansions mined from the union spread across
databases more evenly (smaller max-min bias spread).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.expansion import QueryExpander, SampleCollection, expansion_bias
from repro.federation import skewed_world
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther
from repro.text.stopwords import INQUERY_STOPWORDS
from repro.utils.table import format_table

NUM_DATABASES = 3
SAMPLE_BUDGET = 150


def _experiment(testbed):
    corpus = testbed.server("wsj88").index.corpus
    runs = {}
    for name, server in skewed_world(corpus, NUM_DATABASES, seed=29).servers.items():
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(testbed.actual_model("trec123")),
            stopping=MaxDocuments(min(SAMPLE_BUDGET, server.num_documents // 3)),
            seed=31,
            name=name,
        )
        runs[name] = sampler.run()

    learned_models = {name: run.model for name, run in runs.items()}
    union = SampleCollection()
    singles = {}
    for name, run in runs.items():
        single = SampleCollection()
        single.add_sample(run.documents, source=name)
        singles[name] = single
        union.add_sample(run.documents, source=name)

    # Query terms: topically *neutral* content terms (ctf spread evenly
    # across the databases).  For such a query no database "deserves"
    # the expansion vocabulary, so any skew in the expansion is pure
    # mining bias — exactly what Section 8 warns about.
    rows = []
    spreads = {"single": [], "union": []}
    num_models = len(learned_models)
    for name, run in runs.items():
        def _imbalance(term: str) -> float:
            total = sum(m.ctf(term) for m in learned_models.values())
            if total == 0:
                return float("inf")
            shares = [m.ctf(term) / total for m in learned_models.values()]
            return max(abs(share - 1.0 / num_models) for share in shares)

        candidates = [
            stats.term
            for stats in run.model.top_terms(400, key="ctf")
            if len(stats.term) >= 4
            and not stats.term.isdigit()
            and stats.term not in INQUERY_STOPWORDS
            and all(stats.term in other for other in learned_models.values())
        ]
        term = min(candidates, key=_imbalance)
        for label, collection in (("single", singles[name]), ("union", union)):
            expanded = QueryExpander(collection, min_df=2).expand(term, k=8)
            bias = expansion_bias(expanded, learned_models)
            values = np.array([bias[db] for db in sorted(learned_models)])
            spread = float(values.max() - values.min()) if len(values) else 0.0
            spreads[label].append(spread)
            rows.append(
                {
                    "query_term": term,
                    "mined_from": f"{label}:{name}" if label == "single" else "union",
                    "expansions": len(expanded.expansions),
                    **{f"bias_{db}": round(bias[db], 3) for db in sorted(bias)},
                    "spread": round(spread, 3),
                }
            )
    return rows, spreads


def test_bench_ext_expansion(benchmark, testbed):
    rows, spreads = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    emit(format_table(rows, title="Ext-2: expansion-vocabulary bias, single sample vs union"))

    mean_single = float(np.mean(spreads["single"]))
    mean_union = float(np.mean(spreads["union"]))
    emit(f"Mean bias spread: single-database {mean_single:.3f}, union {mean_union:.3f}")
    # The comparison must be non-trivial: expansions were actually found.
    assert any(row["expansions"] > 0 for row in rows), rows
    # The union's expansions spread across databases more evenly.
    assert mean_union <= mean_single + 1e-9, (mean_single, mean_union)
    # The core of Section 8's warning: an expansion mined from one
    # database's sample favours *that* database — its own bias column is
    # the largest in a majority of rows.
    single_rows = [row for row in rows if row["mined_from"].startswith("single:")]
    self_favoring = 0
    for row in single_rows:
        miner = row["mined_from"].split(":", 1)[1]
        own = row[f"bias_{miner}"]
        others = [
            value
            for key, value in row.items()
            if key.startswith("bias_") and key != f"bias_{miner}"
        ]
        if own >= max(others):
            self_favoring += 1
    assert self_favoring >= (len(single_rows) + 1) // 2, rows
