"""A corpus generated on two CPUs equals the serially generated one, byte for byte.

:meth:`~repro.synth.generator.CorpusGenerator.generate` makes every
block's draws in a forked child (:func:`~repro.utils.fork.fork_stream`)
while this process renders the blocks already drawn, for corpora of at
least ``_FORK_MIN_TOKENS`` expected tokens on two usable CPUs.  The
serial loop is the referee: every document mix, every committed digest
and every way a child can fail must give its corpus, and no generation
may leave a process, a descriptor or a file behind.
"""

from __future__ import annotations

import gc
import os
import pickle
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.corpus.collection import Corpus
from repro.scenarios.cluster import _build_space
from repro.synth import generator
from repro.synth.generator import CorpusGenerator, GeneratorConfig
from repro.synth.profiles import PROFILES_BY_NAME, cacm_like
from repro.synth.topics import TopicSpace
from repro.synth.vocabulary import SyntheticVocabulary, VocabularyConfig
from repro.utils import fork
from repro.utils.fork import fork_stream, usable_cpus
from tests.golden import CORPUS_DIGESTS, corpus_digest

ROOT = Path(__file__).resolve().parents[1]

#: The document mixes of ``tests/test_generator_bytes.py``.
CONFIGS = {
    "mixed": GeneratorConfig(num_documents=60, mean_doc_length=40.0),
    "pure": GeneratorConfig(num_documents=60, purity=1.0),
    "all-secondary": GeneratorConfig(num_documents=60, purity=0.0, topic_skew=0.0),
    "one-word-sentences": GeneratorConfig(
        num_documents=40, mean_doc_length=3.0, min_doc_length=1, sentence_words=(1, 1)
    ),
    "many-blocks": GeneratorConfig(num_documents=1100, mean_doc_length=12.0, min_doc_length=2),
}

#: Blocks of the ``many-blocks`` corpus.
MANY_BLOCKS = -(-1100 // generator._BLOCK_DOCS)


@pytest.fixture(scope="module")
def spaces():
    vocabulary = SyntheticVocabulary(VocabularyConfig(content_size=1500), seed=5)
    return {
        "topics": TopicSpace(vocabulary, num_topics=4, topic_vocab_size=120, seed=1),
        "one-topic": TopicSpace(vocabulary, num_topics=1, topic_vocab_size=120, seed=2),
        "clusters": _build_space(vocabulary, num_clusters=3, shared_head=20, clustered=True),
    }


@pytest.fixture(scope="module")
def many_blocks(spaces):
    """Each space's ``many-blocks`` generator and the records of its serial corpus."""
    references = {}
    for name, space in spaces.items():
        made = CorpusGenerator(space, CONFIGS["many-blocks"], seed=13)
        references[name] = made, _records(_serial(made))
    return references


@pytest.fixture()
def forks(monkeypatch):
    """Every generation forks, whatever its size and this machine's CPUs; counts the forks."""
    started = []
    real_fork = os.fork

    def counting_fork():
        started.append(1)
        return real_fork()

    monkeypatch.setattr(generator, "_FORK_MIN_TOKENS", 0)
    monkeypatch.setattr(generator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counting_fork)
    return started


@pytest.fixture()
def drawn_here(monkeypatch):
    """Blocks this process drew itself: a forked child counts in its own copy."""
    drawn = []
    real_draw = CorpusGenerator._draw

    def counting_draw(self, *args):
        drawn.append(1)
        return real_draw(self, *args)

    monkeypatch.setattr(CorpusGenerator, "_draw", counting_draw)
    return drawn


def _records(corpus) -> list[tuple]:
    return [(d.doc_id, d.title, d.topic, d.text) for d in corpus]


def _serial(made: CorpusGenerator, name: str = "ref") -> Corpus:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "usable_cpus", lambda: 1)
        return made.generate(name=name)


def _children() -> set[int]:
    """This process's child processes, zombies included."""
    me, children = str(os.getpid()), set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    parent = stat.read().rsplit(")", 1)[1].split()[1]
            except (OSError, IndexError):
                continue  # gone since the listing
            if parent == me:
                children.add(int(entry))
    return children


def _open_descriptors() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


class TestTheForkedCorpusIsTheSerialOne:
    @pytest.mark.parametrize("space_name", ["topics", "one-topic", "clusters"])
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_every_document_mix(self, spaces, space_name, config_name, forks, drawn_here):
        made = CorpusGenerator(spaces[space_name], CONFIGS[config_name], seed=13)
        expected = _records(_serial(made))
        drawn_here.clear()
        assert _records(made.generate(name="ref")) == expected
        assert forks == [1]
        assert drawn_here == []  # every block came down the pipe

    @pytest.mark.parametrize(
        ("profile", "seed", "scale"), sorted(set(CORPUS_DIGESTS) - {("wsj88", 0, 0.5)})
    )
    def test_every_committed_digest(self, profile, seed, scale, forks, drawn_here):
        corpus = PROFILES_BY_NAME[profile]().build(seed=seed, scale=scale)
        assert corpus_digest(corpus) == CORPUS_DIGESTS[profile, seed, scale]
        assert forks == [1]
        assert drawn_here == []

    def test_the_benchmark_corpus_forks_by_default_and_not_the_small_ones(self):
        def expected_tokens(profile: str, scale: float) -> float:
            config = PROFILES_BY_NAME[profile]().scaled(scale).generator
            return config.num_documents * config.mean_doc_length

        forked = {
            (profile, seed, scale)
            for profile, seed, scale in CORPUS_DIGESTS
            if expected_tokens(profile, scale) >= generator._FORK_MIN_TOKENS
        }
        assert forked == {("wsj88", 0, 0.5)}

    def test_the_benchmark_corpus_on_the_other_path(self, monkeypatch):
        # ``tests/test_generator_bytes.py`` builds it through the fork where
        # two CPUs are usable and serially where one is: this takes the
        # other path, so both give the committed digest on every machine.
        forked = usable_cpus() == 1
        started = []
        real_fork = os.fork

        def counting_fork():
            started.append(1)
            return real_fork()

        monkeypatch.setattr(generator, "usable_cpus", lambda: 2 if forked else 1)
        monkeypatch.setattr(os, "fork", counting_fork)
        corpus = PROFILES_BY_NAME["wsj88"]().build(seed=0, scale=0.5)
        assert corpus_digest(corpus) == CORPUS_DIGESTS["wsj88", 0, 0.5]
        assert len(started) == (1 if forked else 0)


class TestAChildThatFailsCostsTimeOnly:
    @pytest.mark.parametrize("delivered", [0, 1, 5])
    def test_a_child_that_exits_after_some_blocks(
        self, many_blocks, delivered, forks, drawn_here, monkeypatch
    ):
        made, expected = many_blocks["topics"]
        parent, real_draw = os.getpid(), CorpusGenerator._draw
        drawn_in_child = []

        def dying_draw(self, *args):
            if os.getpid() != parent:
                if len(drawn_in_child) == delivered:
                    os._exit(1)
                drawn_in_child.append(1)
            return real_draw(self, *args)

        monkeypatch.setattr(CorpusGenerator, "_draw", dying_draw)
        assert _records(made.generate(name="ref")) == expected
        assert forks == [1]
        # Every block is drawn again here; those already rendered are skipped.
        assert len(drawn_here) == MANY_BLOCKS
        assert drawn_in_child == []

    @pytest.mark.parametrize("delivered", [0, 2])
    def test_a_truncated_message(self, many_blocks, delivered, forks, monkeypatch):
        made, expected = many_blocks["clusters"]
        parent, real_write, sent = os.getpid(), fork._write_frame, []

        def truncating_write(pipe, value):
            if os.getpid() != parent and len(sent) == delivered:
                payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                pipe.write(len(payload).to_bytes(fork._HEADER, "little"))
                pipe.write(payload[: len(payload) // 2])
                pipe.flush()
                os._exit(0)
            sent.append(1)
            real_write(pipe, value)

        monkeypatch.setattr(fork, "_write_frame", truncating_write)
        assert _records(made.generate(name="ref")) == expected
        assert forks == [1]

    def test_a_child_that_raises_gives_the_serial_exception(
        self, many_blocks, forks, monkeypatch
    ):
        made, _ = many_blocks["topics"]
        real_draw, drawn = CorpusGenerator._draw, []

        def failing_draw(self, *args):
            drawn.append(1)
            if len(drawn) == 3:
                raise ValueError("third block")
            return real_draw(self, *args)

        monkeypatch.setattr(CorpusGenerator, "_draw", failing_draw)
        with pytest.raises(ValueError, match="third block"):
            made.generate()
        assert forks == [1]
        assert drawn == [1, 1, 1]  # this process's replay raised


class TestWhenItForks:
    def test_a_running_thread_means_no_fork(self, many_blocks, forks, drawn_here):
        made, expected = many_blocks["topics"]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            corpus = made.generate(name="ref")
        finally:
            release.set()
            waiter.join(30)
        assert forks == []
        assert len(drawn_here) == MANY_BLOCKS
        assert _records(corpus) == expected

    def test_one_usable_cpu_or_a_small_corpus_means_no_fork(self, many_blocks, monkeypatch):
        monkeypatch.setattr(os, "fork", None)  # a fork would raise
        made, _ = many_blocks["topics"]
        monkeypatch.setattr(generator, "_FORK_MIN_TOKENS", 0)
        monkeypatch.setattr(generator, "usable_cpus", lambda: 1)
        made.generate()
        monkeypatch.setattr(generator, "_FORK_MIN_TOKENS", 1100 * 12 + 1)
        monkeypatch.setattr(generator, "usable_cpus", lambda: 2)
        made.generate()


class TestNothingOutlivesAGeneration:
    def test_two_hundred_forked_generations(self, tmp_path):
        # In a fresh interpreter: a fork costs in proportion to the forking
        # process's memory, and this one holds the rest of the suite's.
        temporary = tmp_path / "tmp"
        temporary.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", f"import {__name__} as t; t.two_hundred_generations()"],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
                     TMPDIR=str(temporary)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["200", "forks"]
        assert os.listdir(temporary) == []

    def test_an_interrupted_generation_kills_and_reaps_its_child(
        self, many_blocks, forks, monkeypatch
    ):
        made, _ = many_blocks["topics"]
        parent, real_draw, real_extend = os.getpid(), CorpusGenerator._draw, Corpus.extend
        drawn_in_child, extended = [], []

        def stalling_draw(self, *args):
            if os.getpid() != parent:
                drawn_in_child.append(1)
                if len(drawn_in_child) == 3:
                    time.sleep(60)
            return real_draw(self, *args)

        def interrupted_extend(self, *columns):
            extended.append(1)
            if len(extended) == 2:
                raise KeyboardInterrupt
            return real_extend(self, *columns)

        monkeypatch.setattr(CorpusGenerator, "_draw", stalling_draw)
        monkeypatch.setattr(Corpus, "extend", interrupted_extend)
        gc.collect()
        descriptors, children = _open_descriptors(), _children()
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            made.generate()
        assert time.perf_counter() - started < 30
        assert forks == [1]
        gc.collect()
        assert _open_descriptors() == descriptors
        assert _children() == children


def two_hundred_generations() -> None:
    """200 forced-fork generations leave the descriptors, the child
    processes and ``TMPDIR`` as they found them."""
    started = []
    real_fork = os.fork

    def counting_fork():
        started.append(1)
        return real_fork()

    os.fork = counting_fork
    generator._FORK_MIN_TOKENS = 0
    generator.usable_cpus = lambda: 2
    temporary = tempfile.gettempdir()
    space = cacm_like().topic_space(seed=0, scale=0.002)
    config = GeneratorConfig(num_documents=6)
    gc.collect()
    descriptors, children = _open_descriptors(), _children()
    for seed in range(200):
        corpus = CorpusGenerator(space, config, seed=seed).generate()
        if len(corpus) != 6 or os.listdir(temporary):
            raise AssertionError(f"generation {seed}: {len(corpus)} documents, {temporary}")
        del corpus
    gc.collect()
    if (_open_descriptors(), _children(), os.listdir(temporary)) != (descriptors, children, []):
        raise AssertionError("a descriptor, a child process or a file outlived its generation")
    print(len(started), "forks")


class TestForkStream:
    def test_items_are_made_in_a_child(self):
        parent = os.getpid()
        stream = fork_stream(lambda: ((item, os.getpid()) for item in range(5)))
        items = list(stream)
        if fork._can_fork():
            assert {pid for _, pid in items} - {parent}
        assert [item for item, _ in items] == list(range(5))

    def test_without_fork_the_items_are_made_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        parent = os.getpid()
        assert list(fork_stream(lambda: (os.getpid() for _ in range(3)))) == [parent] * 3

    def test_a_child_that_sends_what_cannot_be_pickled_is_replayed_here(self):
        parent = os.getpid()

        def produce():
            for item in range(4):
                yield item if os.getpid() == parent or item < 2 else (lambda: item)

        assert list(fork_stream(produce)) == [0, 1, 2, 3]
