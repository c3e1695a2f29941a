"""Unit tests for repro.synth.generator."""

from __future__ import annotations

import pytest

from repro.synth.generator import CorpusGenerator, GeneratorConfig
from repro.synth.topics import TopicSpace
from repro.synth.vocabulary import SyntheticVocabulary, VocabularyConfig
from repro.text import Analyzer


@pytest.fixture(scope="module")
def space() -> TopicSpace:
    vocab = SyntheticVocabulary(VocabularyConfig(content_size=1200), seed=0)
    return TopicSpace(vocab, num_topics=3, topic_vocab_size=150, seed=0)


@pytest.fixture(scope="module")
def corpus(space):
    config = GeneratorConfig(num_documents=120, mean_doc_length=60.0)
    return CorpusGenerator(space, config, seed=4).generate(name="testgen")


class TestGeneratorConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_documents": 0},
            {"mean_doc_length": 0.0},
            {"min_doc_length": 0},
            {"purity": 1.5},
            {"sentence_words": (0, 5)},
            {"sentence_words": (8, 5)},
            {"doc_length_sigma": -1.0},
            {"doc_length_sigma": float("nan")},
            {"mean_doc_length": float("nan")},
            {"mean_doc_length": float("inf")},
            {"topic_skew": float("nan")},
            {"topic_skew": float("-inf")},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)


class TestGeneratedCorpus:
    def test_document_count(self, corpus):
        assert len(corpus) == 120

    def test_unique_sequential_ids(self, corpus):
        assert corpus.doc_ids[0] == "testgen-000000"
        assert len(set(corpus.doc_ids)) == 120

    def test_every_document_has_topic_label(self, corpus, space):
        topic_names = {topic.name for topic in space.topics}
        assert all(document.topic in topic_names for document in corpus)

    def test_every_document_has_title(self, corpus):
        assert all(document.title for document in corpus)

    def test_documents_have_min_length(self, corpus):
        analyzer = Analyzer.raw()
        for document in corpus:
            assert len(analyzer.analyze(document.text)) >= 10

    def test_mean_length_near_configured(self, corpus):
        analyzer = Analyzer.raw()
        lengths = [len(analyzer.analyze(document.text)) for document in corpus]
        mean = sum(lengths) / len(lengths)
        assert 45 < mean < 80  # lognormal mean 60, sampling noise allowed

    def test_sentences_are_capitalized_with_periods(self, corpus):
        text = corpus[0].text
        assert text[0].isupper()
        assert text.rstrip().endswith(".")
        sentences = [s for s in text.split(". ") if s]
        assert len(sentences) >= 2

    def test_deterministic_given_seed(self, space):
        config = GeneratorConfig(num_documents=20, mean_doc_length=30.0)
        first = CorpusGenerator(space, config, seed=9).generate()
        second = CorpusGenerator(space, config, seed=9).generate()
        assert [d.text for d in first] == [d.text for d in second]

    def test_different_seeds_differ(self, space):
        config = GeneratorConfig(num_documents=20, mean_doc_length=30.0)
        first = CorpusGenerator(space, config, seed=1).generate()
        second = CorpusGenerator(space, config, seed=2).generate()
        assert [d.text for d in first] != [d.text for d in second]

    def test_multiple_topics_used(self, corpus):
        assert len(corpus.topics()) > 1

    def test_purity_one_single_topic_tokens(self, space):
        # With purity 1.0 every token comes from the primary topic, so
        # the generator never needs a secondary topic.
        config = GeneratorConfig(num_documents=10, mean_doc_length=30.0, purity=1.0)
        corpus = CorpusGenerator(space, config, seed=3).generate()
        assert len(corpus) == 10
