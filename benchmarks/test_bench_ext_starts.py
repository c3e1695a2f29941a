"""Extension Ext-4: cooperative acquisition vs. sampling, under failure.

Makes the paper's Section 2.2 critique of the STARTS protocol
executable.  Four databases with identical honest *search* behaviour
but different protocol behaviour — honest, legacy (can't export),
uncooperative (won't), and misrepresenting (exports a forged model
inflated 10x with spam vocabulary injected).  Two acquisition policies:

* **trusting**: use the STARTS export when one is offered, sample
  otherwise;
* **sampling-only**: the paper's recommendation for open environments.

Measured: model quality (Spearman vs the true index) and contamination
(claimed df mass for vocabulary the database does not contain).  The
expected shape: trusting STARTS is perfect for honest servers and
poisoned for liars; sampling is uniformly good and never contaminated —
"language models are learned as a consequence of normal database
behavior" (Section 3).
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.index import DatabaseServer
from repro.lm import spearman_rank_correlation
from repro.sampling import MaxDocuments, RandomFromOther, SamplerConfig
from repro.starts import (
    CooperativeSource,
    HonestServer,
    LegacyServer,
    MisrepresentingServer,
    SamplingSource,
    UncooperativeServer,
    acquire_language_model,
)
from repro.synth import wsj88_like
from repro.utils.table import format_table

SPAM_TERMS = ("jackpot", "lottery", "miracle", "winner", "prize")
SAMPLE_BUDGET = 200


def _experiment(testbed):
    corpus = wsj88_like().build(seed=41, scale=min(testbed.scale, 0.25))
    inner = DatabaseServer(corpus)
    truth = inner.actual_language_model()
    bootstrap_model = testbed.actual_model("trec123")

    wrappers = {
        "honest": HonestServer(inner),
        "legacy": LegacyServer(inner),
        "uncooperative": UncooperativeServer(inner),
        "misrepresenting": MisrepresentingServer(
            inner, inflation=10.0, injected_terms=SPAM_TERMS
        ),
    }

    rows = []
    quality = {}
    for policy_label, trust in (("trusting", True), ("sampling_only", False)):
        for server_label, server in wrappers.items():
            sampling = SamplingSource(
                bootstrap=RandomFromOther(bootstrap_model),
                stopping=MaxDocuments(SAMPLE_BUDGET),
                config=SamplerConfig(keep_documents=False),
                seed=13,
            )
            result = acquire_language_model(
                server, sampling, CooperativeSource(), trust_exports=trust
            )
            model = result.model
            if result.method == "sampling":
                model = model.project(inner.index.analyzer)
            spearman = spearman_rank_correlation(model, truth)
            spam_df = sum(model.df(term) for term in SPAM_TERMS)
            quality[(policy_label, server_label)] = (spearman, spam_df, result.method)
            rows.append(
                {
                    "policy": policy_label,
                    "server": server_label,
                    "acquired_via": result.method,
                    "spearman_vs_truth": round(spearman, 3),
                    "claimed_docs": model.documents_seen,
                    "spam_df": spam_df,
                }
            )
    return rows, quality, truth


def test_bench_ext_starts(benchmark, testbed):
    rows, quality, truth = benchmark.pedantic(
        lambda: _experiment(testbed), rounds=1, iterations=1
    )
    emit(format_table(rows, title="Ext-4: acquisition under protocol failure modes"))

    # Trusting an honest export is exact.
    spearman, spam, method = quality[("trusting", "honest")]
    assert method == "starts" and spearman > 0.999 and spam == 0

    # Trusting a liar imports the forgery (spam vocabulary present,
    # corpus size inflated).
    _, spam, method = quality[("trusting", "misrepresenting")]
    assert method == "starts" and spam > 0

    # Sampling never contains the spam vocabulary, whatever the server.
    for server_label in ("honest", "legacy", "uncooperative", "misrepresenting"):
        spearman, spam, method = quality[("sampling_only", server_label)]
        assert method == "sampling" and spam == 0
        assert spearman > 0.4

    # Can't/won't servers are reachable only by sampling even when trusting.
    for server_label in ("legacy", "uncooperative"):
        _, _, method = quality[("trusting", server_label)]
        assert method == "sampling"
