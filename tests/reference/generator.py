"""The corpus generator as it was before it lost its per-token Python.

:class:`~repro.synth.generator.CorpusGenerator` draws the same values
from the RNG in the same order as :func:`generate_reference` (it draws a
document's sentence lengths a few per call instead of one); only the
work around the draws changed (blocks of documents whose uniforms
are looked up topic by topic through a guide table, C-level id → word
mapping, one join per document, a sentinel-padded id array instead of
``np.minimum``).  This module is that old loop, kept readable — a
``searchsorted`` per sample, a list comprehension per decode, a slice,
join and ``upper`` per sentence — so the equivalence tests can require
byte-identical corpora from both.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.collection import Corpus
from repro.corpus.document import Document
from repro.synth.generator import GeneratorConfig, TopicSpaceLike
from repro.synth.topics import TopicModel
from repro.utils.rand import ensure_rng


def generate_reference(
    topic_space: TopicSpaceLike,
    config: GeneratorConfig,
    seed: int = 0,
    name: str = "synthetic",
) -> Corpus:
    """The corpus ``CorpusGenerator(topic_space, config, seed).generate(name)`` must equal."""
    rng = ensure_rng(seed)
    num_topics = len(topic_space)
    ranks = np.arange(1, num_topics + 1, dtype=np.float64)
    weights = ranks**-config.topic_skew
    topic_weights = weights / weights.sum()
    primary_topics = rng.choice(num_topics, size=config.num_documents, p=topic_weights)
    sigma = config.doc_length_sigma
    mu = np.log(config.mean_doc_length) - sigma**2 / 2.0
    lengths = rng.lognormal(mean=mu, sigma=sigma, size=config.num_documents)
    lengths = np.maximum(np.round(lengths), config.min_doc_length).astype(np.int64)

    corpus = Corpus(name=name)
    for doc_index in range(config.num_documents):
        primary = int(primary_topics[doc_index])
        tokens = _document_tokens(topic_space, config, primary, int(lengths[doc_index]), rng)
        words = _decode(topic_space, tokens)
        text = _render(words, config.sentence_words, rng)
        title_tokens = _sample(topic_space[primary], int(rng.integers(3, 8)), rng)
        title = " ".join(_decode(topic_space, title_tokens)).title()
        corpus.add(
            Document(
                doc_id=f"{name}-{doc_index:06d}",
                text=text,
                title=title,
                topic=topic_space[primary].name,
            )
        )
    return corpus


def _decode(topic_space: TopicSpaceLike, word_ids: np.ndarray) -> list[str]:
    return [topic_space.words[i] for i in word_ids]


def _sample(topic: TopicModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.empty(0, dtype=np.int64)
    uniforms = rng.random(n)
    positions = np.searchsorted(topic._cdf, uniforms, side="right")
    positions = np.minimum(positions, len(topic.word_ids) - 1)
    return topic.word_ids[positions]


def _document_tokens(
    topic_space: TopicSpaceLike,
    config: GeneratorConfig,
    primary: int,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    num_topics = len(topic_space)
    primary_count = length
    secondary_count = 0
    secondary = primary
    if num_topics > 1 and config.purity < 1.0:
        secondary_count = int(rng.binomial(length, 1.0 - config.purity))
        primary_count = length - secondary_count
        if secondary_count:
            secondary = int(rng.integers(num_topics - 1))
            if secondary >= primary:
                secondary += 1
    tokens = [_sample(topic_space[primary], primary_count, rng)]
    if secondary_count:
        tokens.append(_sample(topic_space[secondary], secondary_count, rng))
    combined = np.concatenate(tokens)
    rng.shuffle(combined)
    return combined


def _render(words: list[str], sentence_words: tuple[int, int], rng: np.random.Generator) -> str:
    low, high = sentence_words
    sentences: list[str] = []
    position = 0
    while position < len(words):
        take = int(rng.integers(low, high + 1))
        chunk = words[position : position + take]
        position += take
        sentence = " ".join(chunk)
        sentences.append(sentence[0].upper() + sentence[1:] + ".")
    return " ".join(sentences)
