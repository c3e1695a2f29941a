"""Substrate performance benchmarks and the perf-regression baseline.

Unlike the table/figure benches (which regenerate the paper's results
once), these are conventional multi-round pytest benchmarks of the hot
paths a deployment would care about: analysis throughput, index
construction, query latency, sampling throughput, and learning-curve
measurement.  They exist so performance regressions in the substrate
are visible, not to reproduce anything from the paper.

Every benchmark also feeds the session's :class:`~conftest.PerfRecorder`,
which writes the machine-readable ``BENCH_perf.json`` baseline
(seconds/op and ops/sec per hot path, plus derived speedups).  The
curve-measurement benches compare two implementations of the same
computation — the full-reprojection reference and the incremental
engine — and assert they still produce identical curves, so the
recorded speedup is never bought with changed results.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import measure_run, measure_run_full, run_sampling
from repro.index import (
    DatabaseServer,
    InvertedIndex,
    SearchEngine,
    add_documents_scalar,
    build_index_scalar,
    search_scalar,
)
from repro.lm import LanguageModel, ctf_ratio, spearman_rank_correlation
from repro.obs import TraceRecorder
from repro.sampling import MaxDocuments, QueryBasedSampler, RandomFromOther
from repro.sampling.transport import SimulatedClock
from repro.synth import wsj88_like
from repro.text import Analyzer

#: Scale the perf corpus is built at (600 documents) — independent of
#: REPRO_SCALE so baselines are comparable across runs.
PERF_SCALE = 0.05


@pytest.fixture(scope="module")
def corpus():
    return wsj88_like().build(seed=101, scale=PERF_SCALE)  # 600 docs


@pytest.fixture(scope="module")
def server(corpus):
    return DatabaseServer(corpus)


@pytest.fixture(scope="module")
def frequent_terms(server):
    return [s.term for s in server.actual_language_model().top_terms(50, "ctf")]


@pytest.fixture(scope="module")
def curve_run(server):
    """A 300-document sampling run with 50-document snapshots — the
    workload the incremental curve measurer is specified against."""
    actual = server.actual_language_model()
    run = run_sampling(
        server,
        bootstrap=RandomFromOther(actual),
        max_documents=300,
        seed=5,
    )
    # Projection is stem-cache-bound on first touch; measure all three
    # implementations against a warm cache, as in steady-state use.
    measure_run_full(run, actual, server.index.analyzer, "wsj88", "random_olm", 4)
    return run, actual


@pytest.fixture(autouse=True)
def _record_scale(perf_recorder):
    perf_recorder.scale = PERF_SCALE


def test_perf_analyze_documents(benchmark, corpus, perf_recorder):
    analyzer = Analyzer.inquery_style()
    texts = [corpus[i].text for i in range(100)]

    def analyze_all():
        return sum(len(analyzer.analyze(text)) for text in texts)

    total = benchmark(analyze_all)
    assert total > 0
    perf_recorder.record_benchmark("analyze_100_documents", benchmark)


def test_perf_index_build(benchmark, corpus, perf_recorder):
    """A warm index build: analyzer memos filled, tokenisation included.

    The recorded statistic is the best of three rounds over one corpus.
    While the index kept a per-corpus memo of the tokenized stream, that
    round read what the first had filled and so excluded tokenisation
    (about 12 us per document, a third of a warm build); entries of
    ``BENCH_perf.json`` recorded before the memo was deleted (18.3 ms,
    ``index_build_array_vs_scalar`` 4.14x) are that much too fast.
    Regenerate the file by running whole modules (the CI ``perf`` job's
    command), never a ``-k`` subset: the recorder rewrites it with only
    what ran.
    """
    index = benchmark.pedantic(
        lambda: InvertedIndex(corpus), rounds=3, iterations=1
    )
    assert index.num_documents == len(corpus)
    perf_recorder.record_benchmark("index_build", benchmark)


def test_perf_index_build_scalar_reference(benchmark, corpus, perf_recorder):
    """The pre-array scalar build (:func:`build_index_scalar`).

    Benchmarked so the derived ``index_build_array_vs_scalar`` ratio in
    ``BENCH_perf.json`` documents what the CSR refactor bought on this
    machine; the property tests in ``tests/test_array_equivalence.py``
    guarantee the two builds produce bit-identical statistics.
    """
    stats = benchmark.pedantic(
        lambda: build_index_scalar(corpus), rounds=3, iterations=1
    )
    assert len(stats.doc_lengths) == len(corpus)
    perf_recorder.record_benchmark("index_build_scalar_reference", benchmark)
    if "index_build" in perf_recorder.hot_paths:
        perf_recorder.speedup(
            "index_build_array_vs_scalar",
            before="index_build_scalar_reference",
            after="index_build",
        )


def test_perf_single_term_query(benchmark, server, frequent_terms, perf_recorder):
    engine = server.engine

    def query_round():
        hits = 0
        for term in frequent_terms:
            hits += len(engine.search(term, n=10))
        return hits

    hits = benchmark(query_round)
    assert hits > 0
    perf_recorder.record_benchmark("query_50_single_term", benchmark)


def test_perf_multi_term_query(benchmark, server, frequent_terms, perf_recorder):
    engine = server.engine
    queries = [
        " ".join(frequent_terms[i : i + 3]) for i in range(0, 30, 3)
    ]

    def query_round():
        return sum(len(engine.search(query, n=10)) for query in queries)

    hits = benchmark(query_round)
    assert hits > 0
    perf_recorder.record_benchmark("query_10_multi_term", benchmark)


def test_perf_multi_term_query_scalar(benchmark, server, frequent_terms, perf_recorder):
    """The pre-batching per-term search loop (:func:`search_scalar`).

    Paired with ``query_10_multi_term`` to derive the
    ``multi_term_query_batched_vs_scalar`` speedup; the equivalence
    tests pin that both produce identical rankings.
    """
    index = server.index
    scorer = server.engine.scorer
    queries = [
        " ".join(frequent_terms[i : i + 3]) for i in range(0, 30, 3)
    ]

    def query_round():
        return sum(len(search_scalar(index, scorer, query, n=10)) for query in queries)

    hits = benchmark(query_round)
    assert hits > 0
    perf_recorder.record_benchmark("query_10_multi_term_scalar", benchmark)
    if "query_10_multi_term" in perf_recorder.hot_paths:
        perf_recorder.speedup(
            "multi_term_query_batched_vs_scalar",
            before="query_10_multi_term_scalar",
            after="query_10_multi_term",
        )


def test_perf_lm_ingest_batched(benchmark, corpus, perf_recorder):
    analyzer = Analyzer.inquery_style()
    documents = [analyzer.analyze(document.text) for document in corpus]

    def ingest():
        model = LanguageModel("bench")
        model.add_documents(documents)
        return model

    model = benchmark(ingest)
    assert model.documents_seen == len(corpus)
    perf_recorder.record_benchmark("lm_ingest_600_docs_batched", benchmark)


def test_perf_lm_ingest_scalar(benchmark, corpus, perf_recorder):
    """One-document-at-a-time ingestion (:func:`add_documents_scalar`)."""
    analyzer = Analyzer.inquery_style()
    documents = [analyzer.analyze(document.text) for document in corpus]

    def ingest():
        model = LanguageModel("bench")
        add_documents_scalar(model, documents)
        return model

    model = benchmark(ingest)
    assert model.documents_seen == len(corpus)
    perf_recorder.record_benchmark("lm_ingest_600_docs_scalar", benchmark)
    if "lm_ingest_600_docs_batched" in perf_recorder.hot_paths:
        perf_recorder.speedup(
            "lm_ingest_batched_vs_scalar",
            before="lm_ingest_600_docs_scalar",
            after="lm_ingest_600_docs_batched",
        )


def test_perf_sampling_run(benchmark, server, perf_recorder):
    actual = server.actual_language_model()

    def one_run():
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(actual),
            stopping=MaxDocuments(100),
            seed=5,
        )
        return sampler.run()

    run = benchmark.pedantic(one_run, rounds=3, iterations=1)
    assert run.documents_examined == 100
    perf_recorder.record_benchmark("sampling_run_100_docs", benchmark)


def test_perf_sampling_run_traced(benchmark, server, perf_recorder):
    """The same sampling run with a *live* TraceRecorder attached.

    ``sampling_run_100_docs`` above runs on the default no-op recorder,
    so the pair documents what full tracing costs; the derived
    ``sampling_run_noop_vs_traced`` ratio in ``BENCH_perf.json`` is the
    observability layer's overhead budget.
    """
    actual = server.actual_language_model()

    def one_run():
        recorder = TraceRecorder(clock=SimulatedClock())
        sampler = QueryBasedSampler(
            server,
            bootstrap=RandomFromOther(actual),
            stopping=MaxDocuments(100),
            seed=5,
            recorder=recorder,
        )
        return sampler.run(), recorder

    run, recorder = benchmark.pedantic(one_run, rounds=3, iterations=1)
    assert run.documents_examined == 100
    # One span per executed query, exactly.
    assert sum(1 for s in recorder.spans if s.name == "query") == run.queries_run
    perf_recorder.record_benchmark("sampling_run_100_docs_traced", benchmark)
    if "sampling_run_100_docs" in perf_recorder.hot_paths:
        perf_recorder.speedup(
            "sampling_run_noop_vs_traced",
            before="sampling_run_100_docs_traced",
            after="sampling_run_100_docs",
        )


def test_perf_metric_computation(benchmark, server, perf_recorder):
    actual = server.actual_language_model()
    sampler = QueryBasedSampler(
        server,
        bootstrap=RandomFromOther(actual),
        stopping=MaxDocuments(100),
        seed=5,
    )
    learned = sampler.run().model.project(server.index.analyzer)

    def compute_metrics():
        return (
            ctf_ratio(learned, actual),
            spearman_rank_correlation(learned, actual),
        )

    ratio, spearman = benchmark(compute_metrics)
    assert 0 < ratio <= 1
    assert -1 <= spearman <= 1
    perf_recorder.record_benchmark("metric_pair_computation", benchmark)


def test_perf_measure_run_full(benchmark, server, curve_run, perf_recorder):
    run, actual = curve_run
    curve = benchmark.pedantic(
        lambda: measure_run_full(
            run, actual, server.index.analyzer, "wsj88", "random_olm", 4
        ),
        rounds=7,
        iterations=1,
    )
    assert len(curve.points) == 6
    perf_recorder.record_benchmark("measure_run_full_reprojection", benchmark)


def test_perf_measure_run_incremental(benchmark, server, curve_run, perf_recorder):
    run, actual = curve_run
    curve = benchmark.pedantic(
        lambda: measure_run(
            run, actual, server.index.analyzer, "wsj88", "random_olm", 4
        ),
        rounds=7,
        iterations=1,
    )
    # The speedup must not come from changed results: both
    # implementations produce the identical curve.
    args = (run, actual, server.index.analyzer, "wsj88", "random_olm", 4)
    assert curve.points == measure_run_full(*args).points
    perf_recorder.record_benchmark("measure_run_incremental", benchmark)
    if "measure_run_full_reprojection" not in perf_recorder.hot_paths:
        return  # deselected sibling bench (-k): nothing to compare against
    speedup = perf_recorder.speedup(
        "measure_run_incremental_vs_full_reprojection",
        before="measure_run_full_reprojection",
        after="measure_run_incremental",
    )
    # Loose floor so a loaded CI machine cannot flake; the recorded
    # baseline documents the real (~2.5x) margin.
    assert speedup > 1.5, f"incremental curve measurement regressed: {speedup:.2f}x"
