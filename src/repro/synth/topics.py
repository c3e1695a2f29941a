"""Topic-mixture unigram language models for corpus generation.

Each :class:`TopicModel` is a unigram distribution over the shared
synthetic vocabulary, assembled from four weighted word classes:

* the **stopword block** (high total weight, mild internal skew — as in
  English, a handful of function words dominate running text);
* the **shared content block** (one global Zipfian ordering all topics
  agree on — the cross-topic core vocabulary);
* the **topic block** (a per-topic sample of content words given a
  strong boost in its own Zipfian order — what makes topics *about*
  something); and
* the **noise block** (numbers, short tokens).

The number of topics and the weight/size of the topic block are the
homogeneity knobs: CACM-like corpora use few topics with small boosts,
TREC-like corpora use many topics with strong boosts, reproducing the
paper's "very heterogeneous" vs. "homogeneous" contrast (Table 1).

Sampling is vectorised: a topic precomputes a concatenated word-id
array and the CDF of its mixture, so drawing ``n`` tokens is one
inverse-cdf lookup of ``n`` uniforms (:meth:`TopicModel.ids_at`),
answered mostly from a guide table and otherwise by ``searchsorted``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth.vocabulary import SyntheticVocabulary
from repro.utils.rand import ensure_rng
from repro.utils.zipf import zipf_probabilities


@dataclass(frozen=True)
class MixtureWeights:
    """Relative weight of each word class in a topic's unigram model."""

    stopwords: float = 0.44
    shared: float = 0.34
    topic: float = 0.20
    noise: float = 0.02

    def __post_init__(self) -> None:
        values = (self.stopwords, self.shared, self.topic, self.noise)
        if any(v < 0 for v in values):
            raise ValueError("mixture weights must be non-negative")
        if sum(values) <= 0:
            raise ValueError("mixture weights must not all be zero")


#: Buckets of a topic's guide table (see :meth:`TopicModel.ids_at`): a
#: power of two, 32 KB of int32 ids per topic.
_GUIDE_BUCKETS = 1 << 13


class TopicModel:
    """A single topic's unigram distribution, ready for fast sampling."""

    def __init__(self, name: str, word_ids: np.ndarray, probabilities: np.ndarray) -> None:
        if word_ids.shape != probabilities.shape:
            raise ValueError("word_ids and probabilities must be parallel")
        self.name = name
        total = probabilities.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("probabilities must sum to a positive finite value")
        self._cdf = np.cumsum(probabilities / total)
        # A uniform at or past the cdf's last entry (rounding can leave
        # it just under 1.0) searches to len(word_ids): the sentinel
        # repeats the last id there, so no clamp is needed.  One int32
        # array holds both (ids index a vocabulary held in memory).
        self._padded_ids = np.append(word_ids, word_ids[-1]).astype(np.int32)
        self.word_ids = self._padded_ids[:-1]
        self._guide: np.ndarray | None = None

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` word ids from the topic distribution."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n == 0:
            return np.empty(0, dtype=np.int32)
        return self.ids_at(rng.random(n))

    def ids_at(self, uniforms: np.ndarray) -> np.ndarray:
        """The word ids at cumulative probabilities ``uniforms`` in ``[0, 1)``.

        Exactly ``padded_ids[cdf.searchsorted(uniforms, "right")]``, so
        ``ids_at(rng.random(n))`` is :meth:`sample`.  A guide table
        answers most uniforms with one lookup: bucket ``b`` of
        ``[b / B, (b + 1) / B)`` stores its id when no cdf entry falls
        inside it (``B`` a power of two, so ``floor(u * B)`` is exact);
        only uniforms in buckets a cdf entry splits are searched.
        """
        guide = self._guide
        if guide is None:
            guide = self._guide = self._guide_table()
        ids = guide.take((uniforms * _GUIDE_BUCKETS).astype(np.intp))
        split = np.flatnonzero(ids < 0)
        if split.size:
            positions = self._cdf.searchsorted(uniforms.take(split), side="right")
            ids[split] = self._padded_ids.take(positions)
        return ids

    def _guide_table(self) -> np.ndarray:
        """Per bucket, the id every uniform in it maps to, or -1 where that varies."""
        edges = np.arange(_GUIDE_BUCKETS + 1, dtype=np.float64) / _GUIDE_BUCKETS
        low = self._cdf.searchsorted(edges[:-1], side="right")
        high = self._cdf.searchsorted(edges[1:], side="left")
        return np.where(low == high, self._padded_ids.take(low), -1)

    def probability_of(self, word_id: int) -> float:
        """Total probability mass the topic assigns to ``word_id``.

        A word can appear both in the shared block and in the topic
        block; this sums all its slots.  Intended for tests and
        diagnostics, not for inner loops.
        """
        pdf = np.diff(self._cdf, prepend=0.0)
        return float(pdf[self.word_ids == word_id].sum())

    def dense_pdf(self, vocabulary_size: int | None = None) -> np.ndarray:
        """The distribution as a dense vector over word ids.

        Entry ``w`` is the total probability the topic assigns to word
        id ``w`` (slots in different blocks summed, as in
        :meth:`probability_of`, but for every word at once).  The probe
        generator (:mod:`repro.classify.probes`) consumes these to find
        each topic's distinctive vocabulary.
        """
        if vocabulary_size is None:
            vocabulary_size = int(self.word_ids.max()) + 1
        pdf = np.diff(self._cdf, prepend=0.0)
        dense = np.zeros(vocabulary_size, dtype=np.float64)
        np.add.at(dense, self.word_ids, pdf)
        return dense


class TopicSpace:
    """All topics of one synthetic corpus, sharing a vocabulary.

    Parameters
    ----------
    vocabulary:
        The word list (defines the id space: stopwords, then content,
        then noise).
    num_topics:
        How many topics to create.
    topic_vocab_size:
        How many content words each topic boosts.
    weights:
        Class mixture weights (see :class:`MixtureWeights`).
    zipf_stop, zipf_shared, zipf_topic:
        Internal Zipf exponents of the three main blocks.
    shared_jitter:
        Sigma of a per-topic lognormal perturbation applied to the
        shared block's probabilities.  Zero makes frequent words
        perfectly topic-neutral; realistic text has topically
        *correlated* frequent words ("stocks and bonds" in the WSJ —
        the paper's own explanation for why frequency-based query
        selection samples narrowly, Section 5.2), which a positive
        jitter reproduces.
    boost_alignment:
        Strength of the correlation between a topic's *boost block* and
        the globally frequent shared words, decaying with topic index.
        With alignment > 0, early (popular — the generator's topic_skew
        favours low indices) topics preferentially boost words from the
        top of the shared frequency order, as a finance-heavy newspaper
        makes finance words globally frequent.  This is the second half
        of the real-text property behind the paper's Figure 3 result:
        the documents ranked highest for globally frequent terms
        cluster in the popular topics, so frequency-based query
        selection yields a topically narrow sample.
    pinned_front:
        The first ``pinned_front`` content words keep their list position
        at the *top* of the shared frequency order instead of being
        permuted.  Profiles that inject domain terms (the
        Microsoft-support corpus of Table 4) pin them so they are
        genuinely frequent.
    always_boost:
        The first ``always_boost`` content words are included in *every*
        topic's boost block (concentrating them in topical documents and
        raising their average term frequency, which is what Table 4's
        avg-tf ranking surfaces).
    seed:
        Seed for topic-membership draws.
    """

    def __init__(
        self,
        vocabulary: SyntheticVocabulary,
        num_topics: int,
        topic_vocab_size: int = 600,
        weights: MixtureWeights = MixtureWeights(),
        zipf_stop: float = 0.85,
        zipf_shared: float = 1.05,
        zipf_topic: float = 0.95,
        shared_jitter: float = 0.0,
        boost_alignment: float = 0.0,
        pinned_front: int = 0,
        always_boost: int = 0,
        seed: int = 0,
    ) -> None:
        if num_topics <= 0:
            raise ValueError(f"num_topics must be positive, got {num_topics}")
        content_size = len(vocabulary.content)
        if topic_vocab_size > content_size:
            raise ValueError(
                f"topic_vocab_size {topic_vocab_size} exceeds content vocabulary {content_size}"
            )
        if shared_jitter < 0:
            raise ValueError("shared_jitter must be non-negative")
        if boost_alignment < 0:
            raise ValueError("boost_alignment must be non-negative")
        if not 0 <= pinned_front <= content_size:
            raise ValueError("pinned_front out of range")
        if not 0 <= always_boost <= topic_vocab_size:
            raise ValueError("always_boost must fit within topic_vocab_size")
        self.vocabulary = vocabulary
        self.words: list[str] = vocabulary.all_words()
        rng = ensure_rng(seed)

        stop_count = len(vocabulary.stopwords)
        noise_count = len(vocabulary.noise)
        stop_ids = np.arange(stop_count, dtype=np.int64)
        # A single global "importance order" for shared content, common to
        # every topic: this is the corpus-wide core vocabulary.  Pinned
        # words stay at the top; the rest are permuted.
        tail = pinned_front + rng.permutation(content_size - pinned_front)
        shared_order = np.concatenate([np.arange(pinned_front, dtype=np.int64), tail])
        shared_ids = stop_count + shared_order
        noise_ids = stop_count + content_size + np.arange(noise_count, dtype=np.int64)

        stop_probs = zipf_probabilities(stop_count, zipf_stop)
        shared_probs = zipf_probabilities(content_size, zipf_shared)
        topic_probs = zipf_probabilities(topic_vocab_size, zipf_topic)
        noise_probs = (
            zipf_probabilities(noise_count, 1.0) if noise_count else np.empty(0)
        )

        self.topics: list[TopicModel] = []
        boosted = np.arange(always_boost, dtype=np.int64)
        for topic_index in range(num_topics):
            free_slots = topic_vocab_size - always_boost
            if boost_alignment > 0:
                # Draw boost members preferring the top of the shared
                # frequency order, with strength decaying in topic index
                # (popular topics own the globally frequent vocabulary).
                alpha = boost_alignment / (1.0 + topic_index)
                positions = np.arange(1, content_size - always_boost + 1, dtype=np.float64)
                draw_weights = positions**-alpha
                draw_weights /= draw_weights.sum()
                drawn_positions = rng.choice(
                    content_size - always_boost,
                    size=free_slots,
                    replace=False,
                    p=draw_weights,
                )
                # Positions index the shared frequency order; map back to
                # content-list word indices.
                unpinned = shared_order[always_boost:] if always_boost else shared_order
                drawn = unpinned[drawn_positions]
            else:
                drawn = always_boost + rng.choice(
                    content_size - always_boost, size=free_slots, replace=False
                )
            # Boosted words interleave with the topic's own draws so both
            # get high in-topic ranks.
            members_list: list[int] = []
            boost_cursor = 0
            drawn_cursor = 0
            for slot in range(topic_vocab_size):
                boost_turn = boost_cursor < always_boost and (
                    slot % 2 == 0 or drawn_cursor >= free_slots
                )
                if boost_turn:
                    members_list.append(int(boosted[boost_cursor]))
                    boost_cursor += 1
                else:
                    members_list.append(int(drawn[drawn_cursor]))
                    drawn_cursor += 1
            members = np.asarray(members_list, dtype=np.int64)
            topic_ids = stop_count + members
            word_ids = np.concatenate([stop_ids, shared_ids, topic_ids, noise_ids])
            topic_shared_probs = shared_probs
            if shared_jitter > 0:
                factors = rng.lognormal(mean=0.0, sigma=shared_jitter, size=content_size)
                jittered = shared_probs * factors
                topic_shared_probs = jittered * (shared_probs.sum() / jittered.sum())
            probabilities = np.concatenate(
                [
                    weights.stopwords * stop_probs,
                    weights.shared * topic_shared_probs,
                    weights.topic * topic_probs,
                    weights.noise * noise_probs,
                ]
            )
            self.topics.append(
                TopicModel(f"topic{topic_index:03d}", word_ids, probabilities)
            )

    def __len__(self) -> int:
        return len(self.topics)

    def __getitem__(self, index: int) -> TopicModel:
        return self.topics[index]

    def decode(self, word_ids: np.ndarray) -> list[str]:
        """Map an array of word ids back to word strings."""
        return list(map(self.words.__getitem__, np.asarray(word_ids).tolist()))
