"""Full-text retrieval substrate (the paper's "Inquery").

The paper assumes each database is a black-box IR system that can "run
queries and return documents" — nothing more.  This package implements
that system from scratch:

* :class:`InvertedIndex` — term → postings with document frequencies,
  collection term frequencies, and document lengths;
* scorers — TF-IDF (INQUERY-style), Okapi BM25, and the INQUERY belief
  function;
* :class:`SearchEngine` — ranked retrieval over the index; and
* :class:`DatabaseServer` — the *uncooperative remote database*
  abstraction the sampler talks to: run a query, get back at most N
  full-text documents, with all traffic metered.  Ground-truth access
  (the actual language model) is available for evaluation but clearly
  segregated.

The index stores its postings in contiguous CSR-style numpy arrays
behind an interned term-id vocabulary; the scalar dict-of-lists
implementations it replaced live on under ``tests/reference/`` as the
equivalence references of the property tests.
"""

from repro.index.inverted import InvertedIndex, PostingList
from repro.index.positions import PositionalIndex, PositionalPostingList
from repro.index.scoring import Bm25Scorer, InqueryScorer, Scorer, TfIdfScorer
from repro.index.search import SearchEngine, SearchResult
from repro.index.server import DatabaseServer, QueryCosts

__all__ = [
    "Bm25Scorer",
    "DatabaseServer",
    "InqueryScorer",
    "InvertedIndex",
    "PositionalIndex",
    "PositionalPostingList",
    "PostingList",
    "QueryCosts",
    "Scorer",
    "SearchEngine",
    "SearchResult",
    "TfIdfScorer",
]
