"""Reference implementations the equivalence tests compare against.

``src/repro`` holds what runs; this package holds what referees it.
Every loop an array-backed or join-based path replaced is kept here —
readable, obviously correct and *slow* — so each speedup stays
falsifiable: :mod:`tests.reference.cori` has the CORI selector that
recounts each term's ``cf`` per database, :mod:`tests.reference.compare`
the per-term model metrics (percentage learned, ctf ratio, Spearman,
rdiff), :mod:`tests.reference.index` the scalar index build, term
search and model ingestion,
:mod:`tests.reference.merge` the eager CORI merge and the list-fed
mergers, :mod:`tests.reference.curves` the full-reprojection
learning-curve scorer, :mod:`tests.reference.generator` the corpus
generator with its per-token Python.  Nothing under ``src/``
imports this package; ``benchmarks/test_bench_floors.py`` times the
fast paths against it.
"""

from tests.reference.cori import cori_rank_scalar
from tests.reference.curves import measure_run_by_reprojection
from tests.reference.generator import generate_reference
from tests.reference.index import (
    ScalarIndexStatistics,
    add_documents_scalar,
    build_index_scalar,
    search_scalar,
)
from tests.reference.merge import (
    cori_merge_eager,
    raw_score_merge_lists,
    round_robin_merge_lists,
)

__all__ = [
    "ScalarIndexStatistics",
    "add_documents_scalar",
    "build_index_scalar",
    "cori_merge_eager",
    "cori_rank_scalar",
    "generate_reference",
    "measure_run_by_reprojection",
    "raw_score_merge_lists",
    "round_robin_merge_lists",
    "search_scalar",
]
