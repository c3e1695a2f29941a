"""Document-level co-occurrence statistics over sampled documents.

The collection keeps, per document, the multiset of analyzed terms and
the source database name, plus an inverted term → document-index map so
"which documents contain term t" is O(1).  Pairwise co-occurrence
counts are computed lazily per query term (materialising the full
term-pair matrix would be quadratic in vocabulary for no benefit).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.corpus.document import Document
from repro.text.analyzer import Analyzer


@dataclass(frozen=True)
class SampleDocument:
    """One sampled document, analyzed, with provenance."""

    doc_id: str
    source: str
    term_counts: dict[str, int]

    @property
    def length(self) -> int:
        """Token count after analysis."""
        return sum(self.term_counts.values())


@dataclass
class SampleCollection:
    """The union (or any subset) of per-database document samples."""

    analyzer: Analyzer = field(default_factory=Analyzer.stopped)
    _documents: list[SampleDocument] = field(default_factory=list)
    _postings: dict[str, list[int]] = field(default_factory=dict)
    _df: Counter = field(default_factory=Counter)

    def add_document(self, document: Document, source: str) -> None:
        """Analyze and add one sampled document from database ``source``."""
        counts = dict(Counter(self.analyzer.analyze(document.text)))
        index = len(self._documents)
        self._documents.append(
            SampleDocument(doc_id=document.doc_id, source=source, term_counts=counts)
        )
        for term in counts:
            self._postings.setdefault(term, []).append(index)
            self._df[term] += 1

    def add_sample(self, documents: Iterable[Document], source: str) -> None:
        """Add a whole database sample."""
        for document in documents:
            self.add_document(document, source)

    def __len__(self) -> int:
        return len(self._documents)

    @property
    def documents(self) -> list[SampleDocument]:
        """All sample documents (list is the collection's own; don't mutate)."""
        return self._documents

    @property
    def sources(self) -> set[str]:
        """The set of database names represented."""
        return {document.source for document in self._documents}

    def df(self, term: str) -> int:
        """Number of sample documents containing ``term``."""
        return self._df.get(term, 0)

    def cooccurrence_counts(self, term: str) -> Counter:
        """df-style co-occurrence: for each u, #docs containing both."""
        counts: Counter = Counter()
        for index in self._postings.get(term, ()):
            for other in self._documents[index].term_counts:
                counts[other] += 1
        counts.pop(term, None)
        return counts
