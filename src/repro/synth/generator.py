"""The corpus generator: topics → documents → a :class:`Corpus`.

Each document draws a length from a lognormal distribution (matching
the long-tailed document lengths of news/abstract corpora), draws most
tokens from its *primary* topic and the remainder from one secondary
topic (controlled by ``purity`` — 1.0 gives perfectly single-topic
documents), and renders tokens into sentence-cased prose so the
downstream tokenizer does real work.

The contract that keeps corpora byte-identical across versions: the
generator draws the same values from the RNG in the same order — one
``choice`` of primary topics and one ``lognormal`` of lengths for the
corpus; then per document a ``binomial`` (and an ``integers`` for the
secondary topic when it draws any tokens), one ``random`` per non-empty
topic sample, one ``shuffle`` of an int64 array as long as the document,
one ``integers(low, high + 1)`` per sentence and the title's
``integers`` and ``random``.  The sentence lengths are drawn a few at a
time — as many as are sure to be used — since ``k`` bounded draws of
``size=1`` and one of ``size=k`` return the same values and leave the
generator in the same state (pinned by a test: it is how numpy draws,
not something its API promises).  The work around the draws is free to
change, and carries no Python per token.  It runs in blocks of
documents: the block's RNG calls, document by document, keep every
uniform in one array (the shuffle permutes slot numbers: it draws the
same whatever the array holds); then each topic's uniforms in the block
become word ids in one :meth:`~repro.synth.topics.TopicModel.ids_at`;
then ids map to words with one C-level ``map`` over ``tolist``, and a
document's text is one ``" ".join`` once each sentence's first word is
capitalised and its last has its ``"."``; and the block's ids, texts,
titles and topics go to :meth:`~repro.corpus.collection.Corpus.extend`,
which writes their bytes to the corpus's document file in one write.
No :class:`~repro.corpus.document.Document` is built.

Documents record the primary topic's name as their topic; the
selection-accuracy extension experiment uses that as a relevance
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.corpus.collection import Corpus
from repro.synth.topics import TopicModel
from repro.utils.rand import ensure_rng


@runtime_checkable
class TopicSpaceLike(Protocol):
    """What the generator needs of a topic space.

    :class:`~repro.synth.topics.TopicSpace` is the standard provider;
    the scenario testbed substitutes hand-built spaces (e.g. the
    disjoint cluster blocks of :mod:`repro.scenarios.cluster`).  The
    generator maps sampled word ids to strings itself, through
    ``words``, with one C-level ``map`` per block of documents.
    """

    @property
    def words(self) -> Sequence[str]:
        """The vocabulary: ``words[i]`` is the string of word id ``i``."""
        ...  # pragma: no cover - protocol

    def __len__(self) -> int:
        """Number of topics."""
        ...  # pragma: no cover - protocol

    def __getitem__(self, index: int) -> TopicModel:
        """The ``index``-th topic model."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class GeneratorConfig:
    """Document-level shape of a generated corpus.

    Parameters
    ----------
    num_documents:
        Corpus size in documents.
    mean_doc_length:
        Mean tokens per document (lognormal mean).
    doc_length_sigma:
        Lognormal sigma of document lengths.
    min_doc_length:
        Hard floor on tokens per document.
    purity:
        Fraction of tokens drawn from the document's primary topic; the
        rest come from one secondary topic.
    topic_skew:
        Zipf exponent of the topic-popularity distribution; 0 gives
        equally likely topics, larger values make a few topics dominate.
    sentence_words:
        (low, high) bounds on words per rendered sentence.
    """

    num_documents: int = 1000
    mean_doc_length: float = 150.0
    doc_length_sigma: float = 0.5
    min_doc_length: int = 10
    purity: float = 0.85
    topic_skew: float = 0.3
    sentence_words: tuple[int, int] = (8, 20)

    def __post_init__(self) -> None:
        if self.num_documents <= 0:
            raise ValueError("num_documents must be positive")
        for name in ("mean_doc_length", "doc_length_sigma", "topic_skew"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mean_doc_length <= 0:
            raise ValueError("mean_doc_length must be positive")
        if self.doc_length_sigma < 0:
            raise ValueError(
                f"doc_length_sigma must be non-negative, got {self.doc_length_sigma}"
            )
        if self.min_doc_length <= 0:
            raise ValueError("min_doc_length must be positive")
        if not 0.0 <= self.purity <= 1.0:
            raise ValueError("purity must be in [0, 1]")
        low, high = self.sentence_words
        if low <= 0 or high < low:
            raise ValueError("sentence_words must satisfy 0 < low <= high")


#: Documents per block: the block's uniforms, slot permutation and word
#: ids (≈ 30 bytes a token) are the generator's only transient.
_BLOCK_DOCS = 128

#: Title slots kept per document: its title draws ``integers(3, 8)`` words.
_TITLE_SLOTS = 7


class _Draws(NamedTuple):
    """A block's RNG draws, in slots: each document's body, then the titles.

    Document ``i`` owns body slots ``[offsets[i], offsets[i + 1])``,
    primary-topic uniforms first, and title slots from
    ``body + _TITLE_SLOTS * i``.  ``owners`` names each slot's topic
    (-1: an unused title slot).  The word at text position ``p`` is
    slot ``order[p]``'s (each document's range shuffled in place);
    ``firsts`` and ``lasts`` are the text positions of every sentence's
    first and last word.
    """

    primaries: list[int]
    offsets: list[int]
    title_lengths: list[int]
    uniforms: np.ndarray
    owners: np.ndarray
    order: np.ndarray
    firsts: list[int]
    lasts: list[int]


class CorpusGenerator:
    """Generates a deterministic corpus from a topic space."""

    def __init__(
        self,
        topic_space: TopicSpaceLike,
        config: GeneratorConfig = GeneratorConfig(),
        seed: int = 0,
    ) -> None:
        self.topic_space = topic_space
        self.config = config
        self.seed = seed

    def generate(self, name: str = "synthetic") -> Corpus:
        """Generate the full corpus."""
        rng = ensure_rng(self.seed)
        config = self.config
        num_topics = len(self.topic_space)

        topic_weights = self._topic_popularity(num_topics, config.topic_skew)
        primary_topics = rng.choice(num_topics, size=config.num_documents, p=topic_weights)
        lengths = self._document_lengths(rng)

        corpus = Corpus(name=name)
        for start in range(0, config.num_documents, _BLOCK_DOCS):
            draws = self._draw(
                primary_topics[start : start + _BLOCK_DOCS].tolist(),
                lengths[start : start + _BLOCK_DOCS].tolist(),
                rng,
            )
            corpus.extend(*self._columns(draws, self._word_ids(draws), name, start))
        return corpus

    @staticmethod
    def _topic_popularity(num_topics: int, skew: float) -> np.ndarray:
        ranks = np.arange(1, num_topics + 1, dtype=np.float64)
        weights = ranks**-skew
        return weights / weights.sum()

    def _document_lengths(self, rng: np.random.Generator) -> np.ndarray:
        config = self.config
        sigma = config.doc_length_sigma
        # Parameterize so the lognormal *mean* equals mean_doc_length.
        mu = np.log(config.mean_doc_length) - sigma**2 / 2.0
        lengths = rng.lognormal(mean=mu, sigma=sigma, size=config.num_documents)
        return np.maximum(np.round(lengths), config.min_doc_length).astype(np.int64)

    def _draw(
        self, primaries: list[int], lengths: list[int], rng: np.random.Generator
    ) -> _Draws:
        """Every RNG draw of a block's documents, in the contract's order."""
        num_topics = len(self.topic_space)
        mixed = num_topics > 1 and self.config.purity < 1.0
        spill = 1.0 - self.config.purity
        low, high = self.config.sentence_words
        integers, random = rng.integers, rng.random
        body = sum(lengths)
        uniforms = np.empty(body + _TITLE_SLOTS * len(lengths))
        # The narrowest type holding -1 .. num_topics - 1: stable argsort
        # is a radix sort on 8- and 16-bit keys.
        owners = np.full(uniforms.size, -1, dtype=np.min_scalar_type(-num_topics))
        order = np.arange(body, dtype=np.int64)
        offsets = [0]
        title_lengths: list[int] = []
        firsts: list[int] = []
        lasts: list[int] = []
        title = body
        for primary, length in zip(primaries, lengths):
            start = offsets[-1]
            end = split = start + length
            if mixed:
                secondary_count = int(rng.binomial(length, spill))
                if secondary_count:
                    secondary = int(integers(num_topics - 1))
                    if secondary >= primary:
                        secondary += 1
                    split = end - secondary_count
            if split > start:
                uniforms[start:split] = random(split - start)
                owners[start:split] = primary
            if split < end:
                uniforms[split:end] = random(end - split)
                owners[split:end] = secondary
            rng.shuffle(order[start:end])
            position = start
            while position < end:
                # As many sentence lengths as are sure to be used: no
                # sentence is longer than ``high``.
                sure = (end - position - 1) // high + 1
                for take in integers(low, high + 1, size=sure).tolist():
                    firsts.append(position)
                    position += take
                    lasts.append((position if position < end else end) - 1)
            title_length = int(integers(3, 8))
            uniforms[title : title + title_length] = random(title_length)
            owners[title : title + title_length] = primary
            title_lengths.append(title_length)
            offsets.append(end)
            title += _TITLE_SLOTS
        return _Draws(primaries, offsets, title_lengths, uniforms, owners, order, firsts, lasts)

    def _word_ids(self, draws: _Draws) -> np.ndarray:
        """Each slot's word id: every topic's uniforms looked up at once."""
        owners = draws.owners
        ids = np.zeros(owners.size, dtype=np.int64)
        by_topic = np.argsort(owners, kind="stable")
        bounds = np.cumsum(np.bincount(owners.astype(np.intp) + 1)).tolist()
        for topic, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            if start < stop:
                slots = by_topic[start:stop]
                ids[slots] = self.topic_space[topic].ids_at(draws.uniforms.take(slots))
        return ids

    def _columns(
        self, draws: _Draws, ids: np.ndarray, name: str, first_index: int
    ) -> tuple[list[str], list[str], list[str], list[str]]:
        """The block's ids, sentence-cased texts, title-cased titles and topics."""
        space = self.topic_space
        word_of = space.words.__getitem__
        body = draws.offsets[-1]
        words = list(map(word_of, ids[:body].take(draws.order).tolist()))
        for first in draws.firsts:
            word = words[first]
            words[first] = word[:1].upper() + word[1:]
        for last in draws.lasts:
            words[last] += "."
        offsets, count = draws.offsets, len(draws.primaries)
        titles = ids[body:].tolist()
        title_starts = range(0, _TITLE_SLOTS * count, _TITLE_SLOTS)
        return (
            [f"{name}-{first_index + index:06d}" for index in range(count)],
            [" ".join(words[start:stop]) for start, stop in zip(offsets, offsets[1:])],
            [
                " ".join(map(word_of, titles[start : start + length])).title()
                for start, length in zip(title_starts, draws.title_lengths)
            ],
            [space[primary].name for primary in draws.primaries],
        )
