"""The :class:`Document` value object."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Document:
    """A full-text document.

    Parameters
    ----------
    doc_id:
        Stable unique identifier within its corpus.
    text:
        The full body text.  This is what a database returns to the
        sampling client, and the only thing the client may analyze.
    title:
        Optional display title.
    topic:
        Optional topic label.  Synthetic generators record the topic a
        document was drawn from; the selection-accuracy extension
        experiment uses it as a relevance oracle.  Real corpora leave it
        ``None``.
    """

    doc_id: str
    text: str
    title: str = ""
    topic: str | None = None
    metadata: dict[str, str] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")

    @property
    def size_bytes(self) -> int:
        """UTF-8 size of the document body (Table 1's byte accounting)."""
        return len(self.text.encode("utf-8"))

    def __len__(self) -> int:
        return len(self.text)
