"""Extension Ext-5: estimating database size from the search surface.

The paper flags size estimation as an open problem (Section 3):
vocabulary growth never saturates, so the sample itself cannot reveal
the corpus size.  Follow-on work solved it; this bench reproduces the
comparison on all three testbed corpora:

* **sample-resample** (Si & Callan 2003) — scale a probe term's sample
  df by the database's observable hit count.  Expected: usable accuracy
  (tens of percent error) at a ~100-document budget.
* **capture-recapture** (Schnabel / Schumacher-Eschmeyer) over repeated
  sampling episodes.  Expected: much larger, unstable error, because
  query-based samples are neither uniform nor independent — the reason
  the literature abandoned this route for uncooperative databases.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.sizeest import capture_recapture_report, estimate_database_size
from repro.utils.table import format_table

SAMPLE_BUDGET = 120


def _experiment(testbed):
    rows = []
    errors: dict[tuple[str, str], float] = {}
    for name in ("cacm", "wsj88", "trec123"):
        server = testbed.server(name)
        true_size = server.num_documents
        bootstrap = testbed.bootstrap()

        resample = estimate_database_size(
            server,
            bootstrap,
            method="sample_resample",
            sample_documents=min(SAMPLE_BUDGET, testbed.document_budget(name)),
            num_probes=15,
            seed=5,
        )
        estimates = {"sample_resample": resample}
        report = capture_recapture_report(
            server,
            bootstrap,
            sample_documents=min(SAMPLE_BUDGET * 2, testbed.document_budget(name) * 2),
            num_capture_samples=4,
            seed=5,
        )
        for method, result in report.items():
            estimates[method] = result.estimate

        for method, estimate in estimates.items():
            finite = estimate != float("inf")
            relative_error = (
                abs(estimate - true_size) / true_size if finite else float("inf")
            )
            errors[(name, method)] = relative_error
            rows.append(
                {
                    "corpus": name,
                    "method": method,
                    "true_size": true_size,
                    "estimate": round(estimate) if finite else "unbounded",
                    "rel_error": round(relative_error, 2) if finite else "inf",
                }
            )
    return rows, errors


def test_bench_ext_sizeest(benchmark, testbed):
    rows, errors = benchmark.pedantic(lambda: _experiment(testbed), rounds=1, iterations=1)
    emit(format_table(rows, title="Ext-5: database size estimation by sampling"))

    for name in ("cacm", "wsj88", "trec123"):
        # Sample-resample lands within a factor of ~2 of the truth...
        assert errors[(name, "sample_resample")] < 1.0, (name, errors)
        # ...and is never beaten decisively by either capture estimator.
        best_capture = min(
            errors[(name, "schnabel")], errors[(name, "schumacher_eschmeyer")]
        )
        assert errors[(name, "sample_resample")] <= best_capture + 0.5, (name, errors)
