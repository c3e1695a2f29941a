"""Parallel execution of independent sampling trials.

Every multi-run experiment in the paper's evaluation — Figures 1-4,
Tables 2-3 — is an average over independent (database, strategy, seed)
trials.  Each trial is CPU-bound (sampling, projection, metric curves)
and shares nothing with its siblings beyond the read-only testbed, so
the natural speedup is process-level fan-out.

:class:`TrialSpec` names one trial declaratively; :func:`run_trials`
executes a list of specs either in-process (``workers <= 1``) or in
forked children (:func:`repro.utils.fork.fork_map`) that read the
parent's testbed — its lazily built corpora and indexes included —
copy-on-write.  Both paths call the same :func:`run_trial` on the same
testbed, and every random decision in a trial is derived from
``spec.seed`` alone, so results are **bit-identical regardless of
worker count** — the equivalence ``tests/test_parallel_runner.py`` pins
down.  Result order always matches spec order.  Without ``os.fork``
every trial runs in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.experiments.runner import (
    LearningCurve,
    measure_run,
    rdiff_series,
    run_sampling,
)
from repro.experiments.testbed import Testbed
from repro.lm.compare import METRICS
from repro.sampling.selection import (
    FrequencyFromLearned,
    QueryTermSelector,
    RandomFromLearned,
    RandomFromOther,
)
from repro.utils.fork import fork_map

#: Strategy labels accepted by :class:`TrialSpec` (the figure-3 names):
#: ``random_llm`` / ``df_llm`` / ``ctf_llm`` / ``avg_tf_llm`` select
#: query terms from the learned model; ``random_olm`` selects from the
#: reference ("other") TREC-123 model.
STRATEGY_LABELS = ("random_llm", "random_olm", "df_llm", "ctf_llm", "avg_tf_llm")


@dataclass(frozen=True)
class TrialSpec:
    """One sampling trial, fully determined by its fields.

    ``seed`` is the final per-trial seed (callers derive it with
    :func:`repro.utils.rand.derive_seed` exactly as the serial loops
    always have).  ``max_documents=None`` resolves to the testbed's
    per-corpus document budget inside the worker, so building specs
    never forces corpus construction in the parent process.
    """

    profile: str
    strategy: str
    seed: int
    docs_per_query: int = 4
    max_documents: int | None = None
    #: Score snapshots into a :class:`LearningCurve` (Figures 1-3, Tables 2-3).
    measure_curve: bool = True
    #: Compute the consecutive-snapshot rdiff series (Figure 4).
    measure_rdiff: bool = False


@dataclass(frozen=True)
class TrialResult:
    """What one trial produced (all fields picklable)."""

    spec: TrialSpec
    queries_run: int
    documents_examined: int
    curve: LearningCurve | None
    rdiff: tuple[tuple[int, float], ...]


def make_strategy(testbed: Testbed, label: str) -> QueryTermSelector:
    """Instantiate the query-selection strategy named ``label``."""
    if label == "random_llm":
        return RandomFromLearned()
    if label == "random_olm":
        return RandomFromOther(testbed.actual_model("trec123"))
    if label.endswith("_llm"):
        metric = label[: -len("_llm")]
        if metric in METRICS:
            return FrequencyFromLearned(metric)
    raise ValueError(f"unknown strategy {label!r}; choose from {STRATEGY_LABELS}")


def run_trial(testbed: Testbed, spec: TrialSpec) -> TrialResult:
    """Execute one trial. The single code path shared by serial and
    parallel execution — the bit-identity guarantee hangs on that."""
    server = testbed.server(spec.profile)
    max_documents = (
        spec.max_documents
        if spec.max_documents is not None
        else testbed.document_budget(spec.profile)
    )
    run = run_sampling(
        server,
        bootstrap=testbed.bootstrap(),
        strategy=make_strategy(testbed, spec.strategy),
        max_documents=max_documents,
        docs_per_query=spec.docs_per_query,
        seed=spec.seed,
    )
    curve = None
    if spec.measure_curve:
        curve = measure_run(
            run,
            testbed.actual_model(spec.profile),
            server.index.analyzer,
            database=spec.profile,
            strategy=spec.strategy,
            docs_per_query=spec.docs_per_query,
        )
    rdiff = tuple(rdiff_series(run)) if spec.measure_rdiff else ()
    return TrialResult(
        spec=spec,
        queries_run=run.queries_run,
        documents_examined=run.documents_examined,
        curve=curve,
        rdiff=rdiff,
    )


def _run_group(testbed: Testbed, specs: list[TrialSpec]) -> list[TrialResult]:
    return [run_trial(testbed, spec) for spec in specs]


def run_trials(
    specs: Sequence[TrialSpec],
    testbed: Testbed,
    workers: int = 1,
) -> list[TrialResult]:
    """Run ``specs`` and return their results in the same order.

    ``workers <= 1`` runs everything in-process on ``testbed``; higher
    counts deal the specs into that many interleaved groups, the first
    run here and each other in a forked child.  Either way the results
    are identical, so callers choose purely on resources.
    """
    specs = list(specs)
    count = max(1, min(workers, len(specs)))
    grouped = fork_map(
        partial(_run_group, testbed), [specs[start::count] for start in range(count)]
    )
    return [grouped[index % count][index // count] for index in range(len(specs))]
