"""Table 1: test corpora statistics.

Paper reference (Table 1): CACM 2MB / 3,204 docs, homogeneous;
WSJ88 104MB / 39,904 docs, heterogeneous; TREC-123 3.2GB / 1,078,166
docs, very heterogeneous.  We regenerate the same row structure for the
synthetic analogues (sizes scale with ``REPRO_SCALE``); the invariant
under reproduction is the *ordering and ratios* of the three corpora.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.experiments.tables import table1_corpora
from repro.utils.table import format_table


def test_bench_table1(benchmark, testbed):
    rows = benchmark.pedantic(
        lambda: table1_corpora(testbed), rounds=1, iterations=1
    )
    emit(format_table(rows, title="Table 1: test corpora"))

    by_name = {row["name"]: row for row in rows}
    # Size orderings of the paper's Table 1.
    assert (
        by_name["cacm"]["documents"]
        < by_name["wsj88"]["documents"]
        < by_name["trec123"]["documents"]
    )
    assert (
        by_name["cacm"]["unique_terms"]
        < by_name["wsj88"]["unique_terms"]
        < by_name["trec123"]["unique_terms"]
    )
    assert by_name["cacm"]["variety"] == "homogeneous"
    assert by_name["trec123"]["variety"] == "very heterogeneous"
