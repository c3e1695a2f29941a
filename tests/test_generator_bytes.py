"""The generator's output, pinned byte for byte.

Two referees: the committed digests of :mod:`tests.golden` (profile
builds, including the benchmark's corpora) and the old per-token loop
kept in :mod:`tests.reference.generator`, which must produce the same
documents as :class:`~repro.synth.generator.CorpusGenerator` on every
shape of document mix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scenarios.cluster import _build_space
from repro.synth.generator import CorpusGenerator, GeneratorConfig, TopicSpaceLike
from repro.synth.profiles import PROFILES_BY_NAME
from repro.synth.topics import _GUIDE_BUCKETS, TopicModel, TopicSpace
from repro.synth.vocabulary import SyntheticVocabulary, VocabularyConfig
from tests.golden import CORPUS_DIGESTS, corpus_digest
from tests.reference.generator import generate_reference


def _records(corpus) -> list[tuple]:
    return [(d.doc_id, d.title, d.topic, d.text) for d in corpus]


@pytest.mark.parametrize(("profile", "seed", "scale"), sorted(CORPUS_DIGESTS))
def test_profile_builds_match_the_committed_digests(profile, seed, scale):
    corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
    assert corpus_digest(corpus) == CORPUS_DIGESTS[profile, seed, scale]


@pytest.fixture(scope="module")
def vocabulary() -> SyntheticVocabulary:
    return SyntheticVocabulary(VocabularyConfig(content_size=1500), seed=5)


def _spaces(vocabulary) -> dict[str, TopicSpaceLike]:
    return {
        "topics": TopicSpace(vocabulary, num_topics=4, topic_vocab_size=120, seed=1),
        "one-topic": TopicSpace(vocabulary, num_topics=1, topic_vocab_size=120, seed=2),
        "clusters": _build_space(vocabulary, num_clusters=3, shared_head=20, clustered=True),
    }


@pytest.mark.parametrize("space_name", ["topics", "one-topic", "clusters"])
@pytest.mark.parametrize(
    "config",
    [
        GeneratorConfig(num_documents=60, mean_doc_length=40.0),
        # Single-topic documents: no binomial draw at all.
        GeneratorConfig(num_documents=60, purity=1.0),
        # Every token from the secondary topic: the primary sample is empty.
        GeneratorConfig(num_documents=60, purity=0.0, topic_skew=0.0),
        # One-word sentences and very short documents.
        GeneratorConfig(
            num_documents=40, mean_doc_length=3.0, min_doc_length=1, sentence_words=(1, 1)
        ),
        # More documents than one block holds.
        GeneratorConfig(num_documents=1100, mean_doc_length=12.0, min_doc_length=2),
    ],
    ids=["mixed", "pure", "all-secondary", "one-word-sentences", "many-blocks"],
)
def test_generator_matches_the_per_token_reference(vocabulary, space_name, config):
    space = _spaces(vocabulary)[space_name]
    expected = generate_reference(space, config, seed=13, name="ref")
    actual = CorpusGenerator(space, config, seed=13).generate(name="ref")
    assert _records(actual) == _records(expected)


@pytest.mark.parametrize("space_name", ["topics", "clusters"])
def test_ids_at_is_the_clamped_inverse_cdf(vocabulary, space_name):
    # Bucket edges, cdf entries and their neighbours, the largest uniform
    # below 1.0 and random points: the guide table must agree everywhere
    # with the search it short-cuts, clamped as the old sampler clamped.
    # A topic whose cdf entries fall exactly on bucket edges, too.
    exact = TopicModel("exact", np.arange(4), np.ones(4))
    for topic in [*_spaces(vocabulary)[space_name].topics, exact]:
        cdf, word_ids = topic._cdf, topic.word_ids
        points = np.concatenate(
            [
                np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS,
                cdf,
                np.nextafter(cdf, 0.0),
                np.nextafter(cdf, 1.0),
                np.random.default_rng(0).random(20_000),
                [np.nextafter(1.0, 0.0)],
            ]
        )
        points = points[(points >= 0.0) & (points < 1.0)]
        positions = np.minimum(np.searchsorted(cdf, points, side="right"), len(word_ids) - 1)
        assert np.array_equal(topic.ids_at(points), word_ids[positions])


@pytest.mark.parametrize(("low", "high"), [(8, 20), (1, 1), (3, 40), (1, 2**31)])
@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_a_batch_of_bounded_draws_is_the_scalar_draws(low, high, seed):
    # The generator draws each document's sentence lengths a few at a
    # time; the corpus is byte-identical only because numpy's k scalar
    # ``integers`` calls return what one call of ``size=k`` returns and
    # leave the generator where it leaves it, interleaved with other draws.
    scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in (1, 2, 3, 5, 8, 13):
        assert [int(scalar.integers(low, high + 1)) for _ in range(k)] == (
            batched.integers(low, high + 1, size=k).tolist()
        )
        assert scalar.random() == batched.random()
    assert scalar.bit_generator.state == batched.bit_generator.state


def test_the_all_secondary_case_draws_nothing_from_the_primary_topic(vocabulary):
    # The clusters' content blocks are disjoint, so a document whose whole
    # length went to its secondary topic has no word of its primary block.
    space = _spaces(vocabulary)["clusters"]
    config = GeneratorConfig(num_documents=30, purity=0.0, topic_skew=0.0)
    corpus = CorpusGenerator(space, config, seed=3).generate()
    ids = [set(topic.word_ids.tolist()) for topic in space.topics]
    for document in corpus:
        primary = int(document.topic.removeprefix("topic"))
        others = set().union(*(ids[i] for i in range(len(ids)) if i != primary))
        own_block = {space.words[i] for i in ids[primary] - others}
        words = {word.rstrip(".").lower() for word in document.text.split()}
        assert own_block and not words & own_block
