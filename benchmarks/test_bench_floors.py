"""The two speed-up floors ``bench/`` has no per-layer metric for.

Wall-clock questions belong to ``python3 bench/run.py`` (medians and
quartiles over the four workloads).  Two fast paths have no workload
there — no workload selects among a hundred databases, none measures a
learning curve — so each keeps a loose floor against the reference it
replaced, asserted *after* checking both sides still agree: a plain
best-of-N ``perf_counter`` comparison, nothing recorded.
"""

from __future__ import annotations

import random
import time
from typing import Callable

from repro.dbselect import CoriSelector
from repro.experiments.runner import measure_run, run_sampling
from repro.index import DatabaseServer
from repro.lm import LanguageModel
from repro.sampling import RandomFromOther
from repro.synth import wsj88_like
from tests.reference import cori_rank_scalar, measure_run_by_reprojection


def best_seconds(operation: Callable[[], object], rounds: int) -> float:
    """Minimum wall time of ``operation`` over ``rounds`` (after warm-up).

    The minimum is the least noise-contaminated estimate of the code's
    cost, so the floors hold on a loaded machine.
    """
    operation()  # warm-up, uncounted
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - started)
    return best


def test_cori_beats_its_referee_at_100_databases():
    rng = random.Random(100)
    vocabulary = [f"term{i:02d}" for i in range(60)]
    models = {}
    for i in range(100):
        model = models[f"db{i:03d}"] = LanguageModel()
        for term in rng.sample(vocabulary, k=rng.randint(1, len(vocabulary))):
            df = rng.randint(1, 400)
            model.add_term(term, df=df, ctf=df + rng.randint(0, 600))
        model.documents_seen = rng.randint(50, 2000)
        model.tokens_seen = rng.randint(500, 100_000)
    queries = [" ".join(rng.choice(vocabulary) for _ in range(3)) for _ in range(16)]
    selector = CoriSelector()
    # The speedup must not come from changed results: every score
    # equal to the referee's, on every query.
    for query in queries:
        served = selector.rank(query, models)
        assert served.entries == cori_rank_scalar(query, models).entries, query

    reference_total = best_seconds(
        lambda: [cori_rank_scalar(query, models) for query in queries], rounds=5
    )
    served_total = best_seconds(
        lambda: [selector.rank(query, models) for query in queries], rounds=5
    )
    # The referee recounts cf per database, O(databases² · terms) per
    # query; the selector counts it once per term.
    speedup = reference_total / served_total
    assert speedup >= 5.0, f"CORI regressed against its referee: {speedup:.2f}x"


def test_incremental_curve_measurement_beats_full_reprojection():
    server = DatabaseServer(wsj88_like().build(seed=101, scale=0.05))  # 600 docs
    actual = server.actual_language_model()
    run = run_sampling(
        server, bootstrap=RandomFromOther(actual), max_documents=300, seed=5
    )
    args = (run, actual, server.index.analyzer, "wsj88", "random_olm", 4)
    # Projection is stem-cache-bound on first touch; both sides are
    # timed against a warm cache (best_seconds' uncounted first call).
    assert measure_run(*args).points == measure_run_by_reprojection(*args).points

    full = best_seconds(lambda: measure_run_by_reprojection(*args), rounds=7)
    incremental = best_seconds(lambda: measure_run(*args), rounds=7)
    # ~2.5x on an idle machine; loose so a loaded one cannot flake.
    speedup = full / incremental
    assert speedup > 1.5, f"incremental curve measurement regressed: {speedup:.2f}x"
