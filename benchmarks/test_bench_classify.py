"""Topic classification and routing benchmark → ``BENCH_classify.json``.

The accuracy-vs-probe-budget curve plus the routed-vs-broadcast
comparison (:func:`repro.experiments.classify_bench.run_classify_bench`),
regenerating the committed ``BENCH_classify.json`` baseline.  Routing's
saving is backend *work* — fewer databases searched per query — so it
is pinned as a fan-out count, not as a time.
"""

from __future__ import annotations

import os

from benchmarks.conftest import SEEDS, emit
from repro.experiments.classify_bench import (
    format_classify_bench,
    run_classify_bench,
    write_classify_bench,
)

#: Where the classify baseline lands (override: BENCH_CLASSIFY_PATH).
BENCH_CLASSIFY_PATH = os.environ.get(
    "BENCH_CLASSIFY_PATH",
    os.path.join(os.path.dirname(__file__), "..", "BENCH_classify.json"),
)

#: Federation scale for the classify benches — small enough to run in
#: seconds, large enough that every topic has distinctive vocabulary.
SCALE = 0.05


def test_bench_classify_accuracy_and_routing():
    report = run_classify_bench(scale=SCALE, seeds=SEEDS)
    emit(format_classify_bench(report))
    write_classify_bench(report, BENCH_CLASSIFY_PATH)

    accuracies = [point.accuracy for point in report.accuracy_curve]
    # More probes must not make classification *worse* end to end.
    assert accuracies[-1] >= accuracies[0]
    assert max(accuracies) >= 0.75
    # The routing acceptance pin, at bench scale: measurably fewer
    # databases per query at matched (or better) topical precision.
    routing = report.routing
    assert routing.routed_databases_per_query < routing.broadcast_databases_per_query
    assert routing.routed_precision >= routing.broadcast_precision - 1e-9
