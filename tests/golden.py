"""Digests that pin generated corpora and built indexes byte for byte.

:data:`CORPUS_DIGESTS` holds the SHA-256 of :func:`corpus_digest` for
profile builds at fixed ``(profile, seed, scale)``; any change to what
the generator draws or renders changes them.  ``ci/parallel-build.sh``
checks ``repro generate`` output against the same table:

    PYTHONPATH=src:. python -m tests.golden CORPUS.jsonl PROFILE SEED SCALE

exits 0 when the file's digest is the committed one.
:func:`index_digest` covers every column of an
:class:`~repro.index.inverted.InvertedIndex`, for comparing two builds.
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

#: (profile, seed, scale) → SHA-256 of the corpus ``PROFILES_BY_NAME[profile]().build``
#: returns; the last two are the benchmark's corpora.
CORPUS_DIGESTS: dict[tuple[str, int, float], str] = {
    ("cacm", 3, 0.05): "0050a26249a9a43e855a9b48ad6bf650074c63b3f917acd599ca77a2d69d3405",
    ("cacm", 11, 0.05): "73e2b1bba8d88da907a574e437f82c6acd66da908e7c3353fd27bfd6e451e341",
    ("wsj88", 3, 0.02): "05a0b8be942d25ce1aaff944bfcf2ae8d12390cfc4c5613765c9fca8bce978f3",
    ("wsj88", 11, 0.02): "e9765ae039b88748b2dc494acb5848dd788041ebb2b80b2b84aa6f11a19996d4",
    ("trec123", 3, 0.005): "d4d4614a39b28fd1bf2007280600ab963c51e1120be20f89da31cb7915d0e62f",
    ("trec123", 11, 0.005): "607eb2374ce2c9d55f24359cbe107f5a420a67ab5101a8df64715e2528071560",
    ("mssupport", 3, 0.02): "ee16c1dcd139501a29809fc31c9dc9f7f6ade1da0ead5284598d2dae822da4d1",
    ("mssupport", 11, 0.02): "ca930ddb28dc0c733ba1bafc854cd20e5ea50bb8089af6f1498a94fb19fbc127",
    ("wsj88", 0, 0.5): "88c7b16647e8ebd2da13648565396af3d8c2eb98462c0e882de310805b02599c",
    ("cacm", 0, 0.3): "59502c75e91bea74ecd3538d5c3c7d6d3b565e6130aaa6198c57c7df65ea14a9",
}


def corpus_digest(corpus) -> str:
    """SHA-256 over every document's ``(doc_id, title, topic, text)``, in order."""
    digest = hashlib.sha256()
    for document in corpus:
        record = [document.doc_id, document.title, document.topic, document.text]
        digest.update(json.dumps(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def index_digest(index) -> str:
    """SHA-256 over an index's doc ids, term order and every column."""
    digest = hashlib.sha256()
    digest.update(json.dumps([document.doc_id for document in index.corpus]).encode())
    digest.update(json.dumps(list(index.vocabulary)).encode())
    for column in (
        index.postings_doc_indices,
        index.postings_term_frequencies,
        index.postings_offsets,
        index.document_frequencies,
        index.collection_frequencies,
        index.doc_lengths,
    ):
        digest.update(str(column.dtype).encode())
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _check_file(path: str, profile: str, seed: str, scale: str) -> int:
    from repro.corpus.readers import read_jsonl

    expected = CORPUS_DIGESTS[profile, int(seed), float(scale)]
    actual = corpus_digest(read_jsonl(path))
    print(f"{path}: {actual} ({'matches' if actual == expected else 'expected ' + expected})")
    return 0 if actual == expected else 1


if __name__ == "__main__":
    sys.exit(_check_file(*sys.argv[1:]))
