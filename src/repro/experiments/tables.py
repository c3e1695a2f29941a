"""Table computations (Tables 1-4 of the paper)."""

from __future__ import annotations

from repro.experiments.figures import FIGURE1_PROFILES, figure3_strategy_curves
from repro.experiments.parallel import TrialSpec, run_trials
from repro.experiments.runner import run_sampling
from repro.experiments.testbed import Testbed
from repro.lm.compare import METRICS
from repro.sampling.selection import RandomFromLearned
from repro.summarize.summary import DatabaseSummary, summarize
from repro.text.analyzer import Analyzer
from repro.utils.rand import derive_seed


def table1_corpora(testbed: Testbed) -> list[dict[str, object]]:
    """Table 1: corpus statistics (raw and as-indexed views).

    The paper's "unique terms" column counts raw (unstemmed,
    unstopped) vocabulary; we report both that and the indexed view.
    """
    rows = []
    for name in FIGURE1_PROFILES:
        server = testbed.server(name)
        raw = server.index.corpus.stats(Analyzer.raw())
        rows.append(
            {
                "name": name,
                "size_mb": round(raw.size_bytes / 1e6, 1),
                "documents": raw.num_documents,
                "unique_terms": raw.unique_terms,
                "total_terms": raw.total_terms,
                "indexed_unique_terms": server.index.vocabulary_size,
                "indexed_total_terms": server.index.total_terms,
                "variety": testbed.profile(name).variety,
            }
        )
    return rows


def table2_docs_per_query(
    testbed: Testbed,
    docs_per_query_values: tuple[int, ...] = (1, 2, 4, 6, 8, 10),
    target_ctf_ratio: float = 0.8,
    seeds: tuple[int, ...] = (0, 1, 2),
    workers: int = 1,
) -> list[dict[str, object]]:
    """Table 2: effect of N (docs examined per query).

    For each corpus and each N: the documents needed to reach the
    target ctf ratio, and the Spearman coefficient there.  Values are
    snapshot-resolution (multiples of 50), like the paper's.
    """
    specs = [
        TrialSpec(
            profile=name,
            strategy="random_llm",
            seed=derive_seed(seed, "table2", name, docs_per_query),
            docs_per_query=docs_per_query,
        )
        for docs_per_query in docs_per_query_values
        for name in FIGURE1_PROFILES
        for seed in seeds
    ]
    results = iter(run_trials(specs, testbed, workers=workers))
    rows = []
    for docs_per_query in docs_per_query_values:
        row: dict[str, object] = {"docs_per_query": docs_per_query}
        for name in FIGURE1_PROFILES:
            docs_needed: list[int | None] = []
            spearman_there: list[float] = []
            for _seed in seeds:
                curve = next(results).curve
                reached = curve.documents_to_reach_ctf(target_ctf_ratio)
                docs_needed.append(reached)
                if reached is not None:
                    spearman_there.append(curve.value_at(reached, "spearman"))
            reached_values = [d for d in docs_needed if d is not None]
            if reached_values:
                row[f"{name}_docs"] = round(sum(reached_values) / len(reached_values))
                row[f"{name}_srcc"] = round(
                    sum(spearman_there) / len(spearman_there), 2
                )
            else:
                row[f"{name}_docs"] = None
                row[f"{name}_srcc"] = None
        rows.append(row)
    return rows


def table3_query_counts(
    testbed: Testbed,
    profile: str = "wsj88",
    seeds: tuple[int, ...] = (0, 1, 2),
    workers: int = 1,
) -> dict[str, float]:
    """Table 3: queries required to retrieve the document budget.

    Shares its runs' structure with Figure 3 (same strategies, same
    corpus); returns strategy → mean query count.
    """
    results = figure3_strategy_curves(
        testbed, profile=profile, seeds=seeds, workers=workers
    )
    return {label: queries for label, (_, queries) in results.items()}


def table4_summary(
    testbed: Testbed,
    k: int = 50,
    docs_per_query: int = 25,
    max_documents: int = 300,
    seed: int = 0,
) -> dict[str, DatabaseSummary]:
    """Table 4: top-k terms of the sampled Microsoft-support database.

    The paper's earliest sampling experiment examined 25 documents per
    query; we keep that setting.  Returns summaries under all three
    frequency rankings (the paper found avg-tf the most informative).
    """
    server = testbed.server("mssupport")
    run = run_sampling(
        server,
        bootstrap=testbed.bootstrap(),
        strategy=RandomFromLearned(),
        max_documents=min(max_documents, testbed.document_budget("mssupport")),
        docs_per_query=docs_per_query,
        seed=derive_seed(seed, "table4"),
    )
    # min_df scales with the sample so hapax-like noise cannot crowd
    # the avg-tf ranking (a term seen twice in one document has a
    # higher avg-tf than a product term seen 1.5x in every document).
    min_df = max(2, run.documents_examined // 60)
    return {
        rank_by: summarize(run.model, k=k, rank_by=rank_by, min_df=min_df)
        for rank_by in METRICS
    }
