"""Extension Ext-9: detecting stale language models with cheap probes.

A selection service's learned models age as databases change.  This
bench measures the probe-then-refresh policy
(:mod:`repro.sampling.staleness`) under three scenarios per database:

* **unchanged** — the database is exactly as sampled;
* **grown** — the database doubled with *same-distribution* documents
  (the model is still representative; a refresh would be wasted);
* **replaced** — the database's content was swapped for a different
  collection behind the same endpoint (the model is junk).

Expected: the 50-document probe (a sixth of a full refresh) keeps the
model in the first two scenarios and triggers a refresh in the third.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.corpus import Corpus
from repro.index import DatabaseServer
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther, RefreshPolicy
from repro.synth import cacm_like, wsj88_like
from repro.utils.table import format_table

STORED_SAMPLE = 200
PROBE_DOCS = 50


def _experiment(testbed):
    scale = min(testbed.scale, 0.5)
    base_profile = cacm_like()
    original = base_profile.build(seed=53, scale=scale)
    server = DatabaseServer(original)
    bootstrap = RandomFromOther(server.actual_language_model())
    stored = QueryBasedSampler(
        server,
        bootstrap=bootstrap,
        stopping=MaxDocuments(min(STORED_SAMPLE, server.num_documents // 3)),
        seed=3,
    ).run().model

    # Grown: the same profile generated again with a different seed and
    # merged — same distribution, twice the documents.
    second_half = base_profile.build(seed=54, scale=scale)
    grown_corpus = Corpus(name="cacm")
    for document in original:
        grown_corpus.add(document)
    for index, document in enumerate(second_half):
        grown_corpus.add(
            type(document)(
                doc_id=f"grown-{index:06d}",
                text=document.text,
                title=document.title,
                topic=document.topic,
            )
        )
    # Replaced: different profile behind the same name.
    replaced_corpus = Corpus(wsj88_like().build(seed=55, scale=scale * 0.5), name="cacm")

    scenarios = {
        "unchanged": server,
        "grown": DatabaseServer(grown_corpus),
        "replaced": DatabaseServer(replaced_corpus),
    }
    policy = RefreshPolicy(refresh_documents=STORED_SAMPLE)
    rows = []
    outcomes = {}
    for label, scenario_server in scenarios.items():
        scenario_bootstrap = RandomFromOther(scenario_server.actual_language_model())
        model, report, refreshed = policy.maybe_refresh(
            scenario_server, stored, bootstrap=scenario_bootstrap, seed=13
        )
        outcomes[label] = refreshed
        rows.append(
            {
                "scenario": label,
                "probe_docs": report.probe_documents,
                "rdiff": round(report.rdiff_score, 3),
                "spearman": round(report.spearman, 3),
                "refreshed": refreshed,
            }
        )
    return rows, outcomes


def test_bench_ext_staleness(benchmark, testbed):
    rows, outcomes = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    emit(format_table(rows, title="Ext-9: probe-based staleness detection"))

    assert outcomes["unchanged"] is False, rows
    assert outcomes["grown"] is False, rows
    assert outcomes["replaced"] is True, rows
