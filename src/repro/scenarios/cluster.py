"""Cluster-structured corpora that mislead a sampled unigram model.

Query-based sampling works because retrieved vocabulary leads to more
vocabulary: any reasonable starting term reaches the whole collection
in a few hops (the paper's Section 5 finding that even poor initial
queries recover).  That property fails in a *clustered* corpus — think
of one database holding both case law and genomics papers.  The
clusters share almost no content words, so a random walk started
inside one cluster keeps retrieving that cluster, and the learned
unigram model confidently over-represents it: the model *misleads*
anything ranking databases by vocabulary mass.

:func:`build_clustered_world` makes the smallest reproducible version.
Each cluster owns a **disjoint contiguous slice** of the content
vocabulary (built directly from :class:`TopicModel`, not from
:class:`~repro.synth.topics.TopicSpace`'s random topic membership,
which overlaps between topics and would leak the walk out); all
clusters share only the stoplist, a small head of common content
words, and noise tokens.  Documents mix a primary and one secondary
cluster (``purity``), which is the honest escape route a real mixed
collection offers.  A matched *control* corpus — same vocabulary, same
document shape, but shared-dominated mixtures — differs only in that
its vocabulary is reachable from anywhere; the bench samples both from
the same cluster-0 bootstrap and pins the oversampling gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.collection import Corpus
from repro.sampling.selection import is_eligible_query_term
from repro.synth.generator import CorpusGenerator, GeneratorConfig
from repro.synth.topics import TopicModel
from repro.synth.vocabulary import SyntheticVocabulary, VocabularyConfig
from repro.utils.rand import derive_seed
from repro.utils.zipf import zipf_probabilities

__all__ = [
    "ClusterSpace",
    "ClusteredWorld",
    "build_clustered_world",
    "distinctive_cluster_terms",
]

#: Mixture weights (stopwords, shared, cluster block, noise).
_STOP_WEIGHT = 0.25
_NOISE_WEIGHT = 0.02
#: Clustered variant: the cluster block dominates, the shared head is thin.
_CLUSTERED_SHARED = 0.06
_CLUSTERED_TOPIC = 0.67
#: Control variant: the same mass, redistributed onto the full shared block.
_CONTROL_SHARED = 0.67
_CONTROL_TOPIC = 0.06


class ClusterSpace:
    """Cluster unigram models over one vocabulary, for the generator.

    Satisfies the sampling surface :class:`CorpusGenerator` needs
    (``len``, indexing, ``words``) while guaranteeing the property
    :class:`~repro.synth.topics.TopicSpace` cannot: the per-cluster
    content blocks are *disjoint*.
    """

    def __init__(self, words: list[str], topics: list[TopicModel]) -> None:
        if not topics:
            raise ValueError("a cluster space needs at least one cluster")
        self.words = words
        self.topics = topics

    def __len__(self) -> int:
        return len(self.topics)

    def __getitem__(self, index: int) -> TopicModel:
        return self.topics[index]


def _build_space(
    vocabulary: SyntheticVocabulary,
    num_clusters: int,
    shared_head: int,
    clustered: bool,
) -> ClusterSpace:
    """Build the clustered or control variant over one shared vocabulary."""
    stop_count = len(vocabulary.stopwords)
    content_size = len(vocabulary.content)
    noise_count = len(vocabulary.noise)
    block_size = (content_size - shared_head) // num_clusters
    if block_size < 1:
        raise ValueError(
            f"content vocabulary of {content_size} cannot give {num_clusters} "
            f"clusters a block beyond a shared head of {shared_head}"
        )
    stop_ids = np.arange(stop_count, dtype=np.int64)
    noise_ids = stop_count + content_size + np.arange(noise_count, dtype=np.int64)
    stop_probs = _STOP_WEIGHT * zipf_probabilities(stop_count, 0.85)
    noise_probs = (
        _NOISE_WEIGHT * zipf_probabilities(noise_count, 1.0)
        if noise_count
        else np.empty(0)
    )
    if clustered:
        shared_ids = stop_count + np.arange(shared_head, dtype=np.int64)
        shared_probs = _CLUSTERED_SHARED * zipf_probabilities(shared_head, 1.05)
        topic_weight = _CLUSTERED_TOPIC
    else:
        shared_ids = stop_count + np.arange(content_size, dtype=np.int64)
        shared_probs = _CONTROL_SHARED * zipf_probabilities(content_size, 1.05)
        topic_weight = _CONTROL_TOPIC
    topics: list[TopicModel] = []
    for cluster in range(num_clusters):
        start = shared_head + cluster * block_size
        block_ids = stop_count + np.arange(start, start + block_size, dtype=np.int64)
        block_probs = topic_weight * zipf_probabilities(block_size, 0.95)
        word_ids = np.concatenate([stop_ids, shared_ids, block_ids, noise_ids])
        probabilities = np.concatenate(
            [stop_probs, shared_probs, block_probs, noise_probs]
        )
        topics.append(TopicModel(f"topic{cluster:03d}", word_ids, probabilities))
    return ClusterSpace(vocabulary.all_words(), topics)


@dataclass(frozen=True)
class ClusteredWorld:
    """A clustered corpus, its matched control, and a trapped bootstrap.

    Attributes
    ----------
    corpus:
        The cluster-structured corpus (disjoint content blocks).
    control:
        Same vocabulary and document shape, shared-dominated mixtures.
    bootstrap_terms:
        Cluster 0's most distinctive eligible query terms — a starting
        point *inside* one cluster, valid for both corpora.
    num_clusters:
        How many disjoint clusters the corpus has.
    """

    corpus: Corpus
    control: Corpus
    bootstrap_terms: tuple[str, ...]
    num_clusters: int


def distinctive_cluster_terms(
    space: ClusterSpace, cluster: int, count: int = 8
) -> tuple[str, ...]:
    """``cluster``'s most distinctive eligible query terms.

    Distinctiveness is the margin between the cluster's unigram
    probability and the mean probability under every other cluster —
    the words that pull a sampler *into* the cluster rather than across
    clusters.  Works for any space whose items expose ``dense_pdf``
    (:class:`ClusterSpace` or :class:`~repro.synth.topics.TopicSpace`).
    """
    if not 0 <= cluster < len(space):
        raise ValueError(f"cluster {cluster} out of range for {len(space)} clusters")
    if count <= 0:
        raise ValueError("count must be positive")
    size = len(space.words)
    target = space[cluster].dense_pdf(size)
    others = np.zeros(size, dtype=np.float64)
    for index in range(len(space)):
        if index != cluster:
            others += space[index].dense_pdf(size)
    if len(space) > 1:
        others /= len(space) - 1
    terms: list[str] = []
    for word_id in np.argsort(others - target):
        word = space.words[int(word_id)]
        if is_eligible_query_term(word):
            terms.append(word)
        if len(terms) == count:
            break
    return tuple(terms)


def build_clustered_world(
    num_clusters: int = 8,
    documents: int = 480,
    vocabulary_size: int = 4000,
    shared_head: int = 60,
    purity: float = 0.95,
    seed: int = 0,
) -> ClusteredWorld:
    """Build the clustered corpus and its matched homogeneous control.

    Both corpora share one :class:`SyntheticVocabulary`, one
    :class:`GeneratorConfig` (``purity`` fixes how much each document
    mixes in a secondary cluster) and one generation seed; they differ
    only in the mixture weights, so any sampling gap between them is
    attributable to cluster structure alone.  ``shared_head`` is the
    number of content words every cluster shares — the thin common
    vocabulary (think "method", "result") that keeps the clustered
    corpus connected at all.
    """
    if num_clusters < 2:
        raise ValueError("a clustered world needs at least 2 clusters")
    if shared_head < 0:
        raise ValueError("shared_head must be non-negative")
    vocabulary = SyntheticVocabulary(
        VocabularyConfig(content_size=vocabulary_size),
        seed=derive_seed(seed, "cluster", "vocab"),
    )
    generator_config = GeneratorConfig(
        num_documents=documents, purity=purity, topic_skew=0.0
    )
    clustered_space = _build_space(vocabulary, num_clusters, shared_head, clustered=True)
    control_space = _build_space(vocabulary, num_clusters, shared_head, clustered=False)
    corpus = CorpusGenerator(
        clustered_space, generator_config, seed=derive_seed(seed, "cluster", "docs")
    ).generate(name="clustered")
    control = CorpusGenerator(
        control_space, generator_config, seed=derive_seed(seed, "cluster", "docs")
    ).generate(name="control")
    return ClusteredWorld(
        corpus=corpus,
        control=control,
        bootstrap_terms=distinctive_cluster_terms(clustered_space, cluster=0),
        num_clusters=num_clusters,
    )
