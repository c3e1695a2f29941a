"""Unit tests for repro.corpus.readers (JSONL, directory, TREC SGML)."""

from __future__ import annotations

import json

import pytest

from repro.corpus import (
    Corpus,
    Document,
    read_directory,
    read_jsonl,
    read_trec_sgml,
    write_jsonl,
)


class TestJsonl:
    def test_round_trip(self, tmp_path, tiny_corpus):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(tiny_corpus, path)
        loaded = read_jsonl(path)
        assert len(loaded) == len(tiny_corpus)
        for original, reloaded in zip(tiny_corpus, loaded):
            assert reloaded.doc_id == original.doc_id
            assert reloaded.text == original.text

    def test_round_trip_preserves_topic_and_title(self, tmp_path):
        corpus = Corpus([Document(doc_id="a", text="x", title="T", topic="sports")])
        path = tmp_path / "c.jsonl"
        write_jsonl(corpus, path)
        loaded = read_jsonl(path)
        assert loaded.get("a").topic == "sports"
        assert loaded.get("a").title == "T"

    @pytest.mark.parametrize(
        "document",
        [
            Document(doc_id="é1", text="café — naïve 東京 😀", title="Ünïcode", topic="é"),
            Document(doc_id="a", text="lone \ud800 high"),
            Document(doc_id="a", text="lone \udfff low"),
            Document(doc_id="\udc80", text="\udbff", title="t\ud800", topic="\udfff"),
        ],
    )
    def test_written_corpus_reads_back_equal(self, tmp_path, document):
        corpus = Corpus([document, Document(doc_id="b", text="plain")], name="c")
        path = tmp_path / "c.jsonl"
        write_jsonl(corpus, path)
        loaded = read_jsonl(path)
        assert list(loaded) == list(corpus)

    def test_failed_write_leaves_the_old_file(self, tmp_path, tiny_corpus):
        path = tmp_path / "c.jsonl"
        write_jsonl(tiny_corpus, path)
        before = path.read_bytes()

        def documents():
            yield Document(doc_id="a", text="x")
            raise RuntimeError("source failed mid-write")

        with pytest.raises(RuntimeError):
            write_jsonl(documents(), path)
        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["c.jsonl"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "text": "x"}\n\n{"doc_id": "b", "text": "y"}\n')
        assert len(read_jsonl(path)) == 2

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            read_jsonl(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "a"}) + "\n")
        with pytest.raises(ValueError, match="doc_id.*text|'doc_id' and 'text'"):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "record",
        [
            {"doc_id": 7, "text": "x"},
            {"doc_id": "a", "text": ["x"]},
            {"doc_id": "a", "text": None},
            {"doc_id": "a", "text": "x", "title": 3},
            {"doc_id": "a", "text": "x", "topic": 3},
            {"doc_id": "a", "text": "x", "topic": {"name": "sports"}},
        ],
    )
    def test_a_field_that_is_not_a_string_is_refused_with_its_line(self, tmp_path, record):
        path = tmp_path / "c.jsonl"
        lines = [{"doc_id": "z", "text": "y", "topic": "sports"}, record]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match=r"c\.jsonl:2: '\w+' must be a string, not "):
            read_jsonl(path)

    def test_a_null_title_or_topic_counts_as_absent(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "a", "text": "x", "title": None, "topic": None}))
        document = read_jsonl(path).get("a")
        assert document.title == ""
        assert document.topic is None

    def test_a_record_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('["doc_id", "text"]\n')
        with pytest.raises(ValueError, match=":1: record needs"):
            read_jsonl(path)

    def test_corpus_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mycorpus.jsonl"
        path.write_text('{"doc_id": "a", "text": "x"}\n')
        assert read_jsonl(path).name == "mycorpus"


class TestDirectory:
    def test_reads_txt_files_sorted(self, tmp_path):
        (tmp_path / "b.txt").write_text("bravo")
        (tmp_path / "a.txt").write_text("alpha")
        (tmp_path / "ignored.md").write_text("nope")
        corpus = read_directory(tmp_path)
        assert corpus.doc_ids == ["a", "b"]
        assert corpus.get("a").text == "alpha"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            read_directory(tmp_path / "nope")


TREC_SAMPLE = """
<DOC>
<DOCNO> WSJ880101-0001 </DOCNO>
<HL> Market Rallies </HL>
<TEXT>
Stocks rallied sharply in heavy trading.
</TEXT>
</DOC>
<DOC>
<DOCNO>WSJ880101-0002</DOCNO>
<TEXT>Bonds <b>fell</b> on inflation fears.</TEXT>
</DOC>
"""


class TestTrecSgml:
    def test_parses_documents(self, tmp_path):
        path = tmp_path / "wsj.sgml"
        path.write_text(TREC_SAMPLE)
        corpus = read_trec_sgml(path)
        assert len(corpus) == 2
        assert corpus.doc_ids == ["WSJ880101-0001", "WSJ880101-0002"]

    def test_extracts_text_and_strips_tags(self, tmp_path):
        path = tmp_path / "wsj.sgml"
        path.write_text(TREC_SAMPLE)
        corpus = read_trec_sgml(path)
        assert "rallied" in corpus.get("WSJ880101-0001").text
        second = corpus.get("WSJ880101-0002").text
        assert "fell" in second and "<b>" not in second

    def test_extracts_title(self, tmp_path):
        path = tmp_path / "wsj.sgml"
        path.write_text(TREC_SAMPLE)
        assert corpus_title(read_trec_sgml(path)) == "Market Rallies"

    def test_directory_of_files(self, tmp_path):
        (tmp_path / "part1.sgml").write_text(TREC_SAMPLE.replace("0001", "1001").replace("0002", "1002"))
        (tmp_path / "part2.sgml").write_text(TREC_SAMPLE.replace("0001", "2001").replace("0002", "2002"))
        corpus = read_trec_sgml(tmp_path)
        assert len(corpus) == 4

    def test_doc_without_docno_rejected(self, tmp_path):
        path = tmp_path / "bad.sgml"
        path.write_text("<DOC><TEXT>orphan</TEXT></DOC>")
        with pytest.raises(ValueError, match="DOCNO"):
            read_trec_sgml(path)


def corpus_title(corpus: Corpus) -> str:
    return corpus[0].title


class TestTrecSgmlWriter:
    def test_round_trip(self, tmp_path, tiny_corpus):
        from repro.corpus import write_trec_sgml

        path = tmp_path / "tiny.sgml"
        write_trec_sgml(tiny_corpus, path)
        loaded = read_trec_sgml(path)
        assert loaded.doc_ids == tiny_corpus.doc_ids
        for original, reloaded in zip(tiny_corpus, loaded):
            assert reloaded.text == original.text

    def test_title_round_trip(self, tmp_path):
        from repro.corpus import write_trec_sgml

        corpus = Corpus([Document(doc_id="t1", text="body text", title="A Headline")])
        path = tmp_path / "titled.sgml"
        write_trec_sgml(corpus, path)
        assert read_trec_sgml(path)[0].title == "A Headline"

    def test_synthetic_corpus_round_trip(self, tmp_path):
        from repro.corpus import write_trec_sgml
        from repro.synth import cacm_like

        corpus = cacm_like().build(seed=3, scale=0.02)
        path = tmp_path / "synth.sgml"
        write_trec_sgml(corpus, path)
        loaded = read_trec_sgml(path)
        assert len(loaded) == len(corpus)
        assert loaded[0].text == corpus[0].text
