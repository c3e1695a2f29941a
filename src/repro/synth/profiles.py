"""Named corpus profiles mirroring the paper's test databases.

The paper's Table 1 characterises three corpora:

====================  ========  ===========  ============  ============  ==================
Corpus                Bytes     Documents    Unique terms  Total terms   Variety
====================  ========  ===========  ============  ============  ==================
CACM                  2 MB      3,204        ~6.5 K        ~117 K        homogeneous
WSJ88                 104 MB    39,904       ~123 K        ~9.7 M        heterogeneous
TREC-123              3.2 GB    1,078,166    ~1.1 M        ~280 M        very heterogeneous
====================  ========  ===========  ============  ============  ==================

We reproduce the *relationships* at laptop scale: CACM-like is small,
short-document, and nearly single-topic; WSJ-like is ~4× larger in
documents with long documents and moderate topical spread; TREC-like is
~15× CACM in documents (scalable) with the widest topical spread.
Default scaled sizes are 3,204 / 12,000 / 48,000 documents; pass
``scale`` to :meth:`CorpusProfile.build` to grow or shrink every profile
proportionally (vocabulary scales with the square root of the token
count, per Heaps' law).

A fourth profile mimics the Microsoft Customer Support web database of
the paper's Table 4, with real product terms injected as frequent,
topically concentrated vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.corpus.collection import Corpus
from repro.synth.generator import CorpusGenerator, GeneratorConfig
from repro.synth.topics import MixtureWeights, TopicSpace
from repro.synth.vocabulary import SyntheticVocabulary, VocabularyConfig
from repro.utils.rand import derive_seed

#: Product / support vocabulary for the Microsoft-support-like corpus
#: (drawn from the paper's Table 4).
MSSUPPORT_DOMAIN_TERMS: tuple[str, ...] = (
    "microsoft", "excel", "foxpro", "windows", "access", "word", "office",
    "visual", "basic", "server", "printer", "setup", "database", "dialog",
    "menu", "file", "error", "message", "command", "mail", "internet",
    "version", "beta", "software", "application", "product", "project",
    "user", "users", "settings", "select", "print", "code", "field",
    "table", "text", "object", "service", "articles", "box", "name",
    "information", "data", "works",
)


def check_scale(scale: float) -> None:
    """Raise ``ValueError`` unless ``scale`` is a finite positive scale factor."""
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")


@dataclass(frozen=True)
class CorpusProfile:
    """A named recipe for building a synthetic corpus.

    ``variety`` echoes Table 1's qualitative label and is controlled by
    ``num_topics`` / ``topic_vocab_size`` / the topic mixture weight.
    """

    name: str
    description: str
    variety: str
    vocabulary: VocabularyConfig
    generator: GeneratorConfig
    num_topics: int
    topic_vocab_size: int
    weights: MixtureWeights = MixtureWeights()
    pinned_front: int = 0
    always_boost: int = 0
    zipf_stop: float = 0.85
    zipf_shared: float = 1.05
    zipf_topic: float = 0.95
    shared_jitter: float = 0.0
    boost_alignment: float = 0.0

    def scaled(self, scale: float) -> "CorpusProfile":
        """Return a copy with document count and vocabulary rescaled.

        Document count scales linearly; vocabulary scales with the
        square root of the token count (Heaps' law with beta = 0.5).
        """
        check_scale(scale)
        if scale == 1.0:
            return self
        num_documents = max(50, int(round(self.generator.num_documents * scale)))
        vocab_scale = math.sqrt(scale)
        content_size = max(
            self.topic_vocab_size + 1,
            int(round(self.vocabulary.content_size * vocab_scale)),
        )
        return replace(
            self,
            generator=replace(self.generator, num_documents=num_documents),
            vocabulary=replace(self.vocabulary, content_size=content_size),
        )

    def topic_space(self, seed: int = 0, scale: float = 1.0) -> TopicSpace:
        """The topic mixture :meth:`build` generates documents from.

        Deterministic in ``(seed, scale)`` and shared with
        :meth:`build`, so a consumer holding only the profile name and
        the generation seed — the topic-probe generator
        (:mod:`repro.classify.probes`) classifying a federation built
        from this profile — can reconstruct the exact
        :class:`~repro.synth.topics.TopicModel` set the documents came
        from.
        """
        profile = self.scaled(scale)
        vocabulary = SyntheticVocabulary(
            profile.vocabulary, seed=derive_seed(seed, profile.name, "vocab")
        )
        return TopicSpace(
            vocabulary,
            num_topics=profile.num_topics,
            topic_vocab_size=profile.topic_vocab_size,
            weights=profile.weights,
            zipf_stop=profile.zipf_stop,
            zipf_shared=profile.zipf_shared,
            zipf_topic=profile.zipf_topic,
            shared_jitter=profile.shared_jitter,
            boost_alignment=profile.boost_alignment,
            pinned_front=profile.pinned_front,
            always_boost=profile.always_boost,
            seed=derive_seed(seed, profile.name, "topics"),
        )

    def build(self, seed: int = 0, scale: float = 1.0) -> Corpus:
        """Generate the corpus deterministically from ``seed``."""
        profile = self.scaled(scale)
        generator = CorpusGenerator(
            profile.topic_space(seed=seed),
            profile.generator,
            seed=derive_seed(seed, profile.name, "docs"),
        )
        return generator.generate(name=profile.name)


def cacm_like() -> CorpusProfile:
    """Small, homogeneous corpus of scientific abstracts (CACM analogue)."""
    return CorpusProfile(
        name="cacm",
        description="Small homogeneous corpus of titles/abstracts (CACM analogue)",
        variety="homogeneous",
        vocabulary=VocabularyConfig(content_size=9_000),
        generator=GeneratorConfig(
            num_documents=3_204,
            mean_doc_length=45.0,
            doc_length_sigma=0.6,
            min_doc_length=8,
            purity=0.9,
            topic_skew=0.2,
        ),
        num_topics=2,
        topic_vocab_size=400,
        weights=MixtureWeights(stopwords=0.42, shared=0.42, topic=0.14, noise=0.02),
        zipf_shared=1.20,
    )


def wsj88_like() -> CorpusProfile:
    """Medium, heterogeneous newspaper corpus (WSJ 1988 analogue)."""
    return CorpusProfile(
        name="wsj88",
        description="Medium heterogeneous newspaper corpus (WSJ88 analogue)",
        variety="heterogeneous",
        vocabulary=VocabularyConfig(content_size=40_000),
        generator=GeneratorConfig(
            num_documents=12_000,
            mean_doc_length=160.0,
            doc_length_sigma=0.7,
            min_doc_length=15,
            purity=0.85,
            topic_skew=0.35,
        ),
        num_topics=12,
        topic_vocab_size=800,
        weights=MixtureWeights(stopwords=0.44, shared=0.32, topic=0.22, noise=0.02),
        zipf_shared=1.15,
        zipf_topic=1.00,
        shared_jitter=0.8,
        boost_alignment=1.2,
    )


def trec123_like() -> CorpusProfile:
    """Large, very heterogeneous multi-source corpus (TREC-123 analogue)."""
    return CorpusProfile(
        name="trec123",
        description="Large very heterogeneous multi-source corpus (TREC-123 analogue)",
        variety="very heterogeneous",
        vocabulary=VocabularyConfig(content_size=120_000),
        generator=GeneratorConfig(
            num_documents=48_000,
            mean_doc_length=140.0,
            doc_length_sigma=0.8,
            min_doc_length=12,
            purity=0.82,
            topic_skew=0.4,
        ),
        num_topics=40,
        topic_vocab_size=1_200,
        weights=MixtureWeights(stopwords=0.44, shared=0.30, topic=0.24, noise=0.02),
        zipf_shared=1.32,
        zipf_topic=1.12,
        shared_jitter=0.8,
        boost_alignment=1.2,
    )


def mssupport_like() -> CorpusProfile:
    """Tech-support corpus with injected product vocabulary (Table 4)."""
    domain = MSSUPPORT_DOMAIN_TERMS
    return CorpusProfile(
        name="mssupport",
        description="Technical support knowledge base (Microsoft-support analogue)",
        variety="heterogeneous",
        vocabulary=VocabularyConfig(content_size=15_000, domain_terms=domain),
        generator=GeneratorConfig(
            num_documents=6_000,
            mean_doc_length=120.0,
            doc_length_sigma=0.6,
            min_doc_length=12,
            purity=0.85,
            topic_skew=0.3,
        ),
        num_topics=8,
        topic_vocab_size=500,
        weights=MixtureWeights(stopwords=0.42, shared=0.30, topic=0.26, noise=0.02),
        pinned_front=len(domain),
        always_boost=len(domain),
    )


#: Named profile registry (used by the CLI and the experiment testbed).
PROFILES_BY_NAME = {
    "cacm": cacm_like,
    "wsj88": wsj88_like,
    "trec123": trec123_like,
    "mssupport": mssupport_like,
}


def paper_testbed(seed: int = 0, scale: float = 1.0) -> dict[str, Corpus]:
    """Build the three Table 1 corpora keyed by profile name."""
    return {
        profile.name: profile.build(seed=seed, scale=scale)
        for profile in (cacm_like(), wsj88_like(), trec123_like())
    }
