"""Language model serialization: the text interchange format and the model file.

**The text format** is simple and diffable, in the spirit of the Lemur
toolkit's collection-statistics files — what ``repro sample -o``
writes, what checkpoints embed, and what every equality test compares:

.. code-block:: text

    #language-model name=wsj88 documents_seen=300 tokens_seen=45210
    apple 12 31
    bear 3 3

One header line, then one ``term df ctf`` line per term, sorted by term
for determinism.  Header fields are whitespace-separated, so the model
name is percent-escaped on write (a name containing a space or ``=``
would otherwise corrupt the header) and unescaped on read.

**The model file** is what the model store keeps
(:func:`pack_language_model`): the same content as three columns, so
that writing and reading it are a handful of C-level passes instead of
a formatted and re-parsed line per term:

.. code-block:: text

    #language-model/2 name=wsj88 documents_seen=300 tokens_seen=45210 terms=2 term_bytes=10 df=<u1 ctf=<u1
    apple\nbear<df: 2 x u1><ctf: 2 x u1>

One ASCII header line, the sorted terms joined by ``"\n"`` (UTF-8,
``term_bytes`` long), then the ``df`` and the ``ctf`` column as
little-endian unsigned integers, each of the narrowest width (``<u1``,
``<u2``, ``<u4``, ``<u8``) that holds the column's largest value — df is
bounded by the documents seen and ctf by the tokens seen, so a sampled
model's columns are usually one and two bytes wide.  The bytes are a
function of the model's content alone (sorted terms, widths derived,
no padding), so load + re-save reproduces them exactly.  Nothing
separates the parts: the header says how long each is, and a reader
refuses a file whose length disagrees.

:func:`unpack_language_model` (and so :func:`load_language_model`) reads
either kind, told apart by the header; there is one writer per kind and
no option choosing between them.

Writes are **crash-safe**: the entire model is serialized and validated
in memory first, then published with an atomic temp-file +
:func:`os.replace` (:mod:`repro.utils.atomic`).  A validation error or
a crash mid-write never leaves a corrupt or partial file at the target
path.
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

from repro.lm.model import LanguageModel
from repro.utils.atomic import atomic_write_text

__all__ = [
    "dumps_language_model",
    "load_language_model",
    "loads_language_model",
    "pack_language_model",
    "save_language_model",
    "unpack_language_model",
]

_HEADER_PREFIX = "#language-model"
#: First bytes of any versioned file (the text format has a space here) ...
_VERSIONED_PREFIX = f"{_HEADER_PREFIX}/".encode("ascii")
#: ... and of the one version there is, the model file.
_COLUMNS_PREFIX = _VERSIONED_PREFIX + b"2 "
#: Column types a model file may declare, narrowest first.
_COLUMN_TYPES = ("<u1", "<u2", "<u4", "<u8")


def _sorted_terms(model: LanguageModel) -> list[str]:
    """The model's terms in file order; ``ValueError`` if one cannot be written.

    Terms containing whitespace are rejected (no analyzer in this
    library produces them; bigram terms use a non-whitespace separator
    precisely so they serialize), as is the empty term: both formats
    delimit terms by whitespace.
    """
    terms = sorted(model)
    # One split screens the whole vocabulary: concatenated, the terms
    # form a single whitespace-free field exactly when none of them
    # holds whitespace.  The per-term loop only names the offender.
    joined = "".join(terms)
    if "" in model or (joined and joined.split(None, 1) != [joined]):
        for term in terms:
            if not term or any(ch.isspace() for ch in term):
                raise ValueError(
                    f"term {term!r} is empty or contains whitespace and cannot be serialized"
                )
    return terms


def _header_fields(model: LanguageModel) -> str:
    """The header fields both formats share (the name percent-escaped)."""
    return (
        f"name={quote(model.name, safe='')} "
        f"documents_seen={model.documents_seen} tokens_seen={model.tokens_seen}"
    )


def dumps_language_model(model: LanguageModel) -> str:
    """Serialize ``model`` to the text format above, validating first.

    Every term is checked *before* any output is produced
    (:func:`_sorted_terms`), so a model that cannot be serialized fails
    without side effects.  The model name is percent-escaped, so any
    name — spaces, ``=``, newlines — round-trips intact.
    """
    terms = _sorted_terms(model)
    df, ctf = model._df, model._ctf
    lines = [f"{_HEADER_PREFIX} {_header_fields(model)}"]
    lines.extend([f"{term} {df[term]} {ctf[term]}" for term in terms])
    return "\n".join(lines) + "\n"


def _column(table: dict[str, int], terms: list[str]) -> tuple[str, bytes]:
    """One statistic of ``terms`` as ``(type, bytes)``, narrowest type that fits."""
    try:
        values = np.fromiter(map(table.__getitem__, terms), dtype=np.int64, count=len(terms))
    except OverflowError as error:
        raise ValueError(f"a count does not fit 63 bits: {error}") from error
    if values.size and int(values.min()) < 0:
        raise ValueError("df and ctf must be non-negative")
    largest = int(values.max()) if values.size else 0
    column_type = next(t for t in _COLUMN_TYPES if largest <= np.iinfo(t).max)
    return column_type, values.astype(column_type).tobytes()


def pack_language_model(model: LanguageModel) -> bytes:
    """Serialize ``model`` to the model-file format above, validating first.

    The same refusals as :func:`dumps_language_model`, before any byte
    exists; in addition a count must fit 63 bits, the range
    :meth:`LanguageModel.from_statistics` reads back.
    """
    terms = _sorted_terms(model)
    blob = "\n".join(terms).encode("utf-8")
    df_type, df_bytes = _column(model._df, terms)
    ctf_type, ctf_bytes = _column(model._ctf, terms)
    fields = (
        f"{_header_fields(model)} "
        f"terms={len(terms)} term_bytes={len(blob)} df={df_type} ctf={ctf_type}\n"
    )
    return b"".join((_COLUMNS_PREFIX, fields.encode("ascii"), blob, df_bytes, ctf_bytes))


def save_language_model(model: LanguageModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` atomically (temp file + rename).

    The serialization is fully built and validated in memory before the
    filesystem is touched; see :func:`dumps_language_model`.
    """
    atomic_write_text(path, dumps_language_model(model))


def _parse_lines(name: str, body: list[str], source: str) -> LanguageModel:
    """Parse term lines one at a time, locating any error.

    Blank lines are skipped and a repeated term accumulates.
    """
    model = LanguageModel(name=name)
    for line_number, line in enumerate(body, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{source}:{line_number}: expected 'term df ctf', got {line!r}")
        term, df_text, ctf_text = parts
        model.add_term(term, df=int(df_text), ctf=int(ctf_text))
    return model


def loads_language_model(
    text: str, default_name: str = "lm", source: str = "<string>"
) -> LanguageModel:
    """Parse a model from serialized ``text`` (see :func:`dumps_language_model`).

    ``source`` labels error messages (a file path when called from
    :func:`load_language_model`); ``default_name`` is used when the
    header carries no ``name=`` field.
    """
    lines = text.splitlines()
    header = lines[0] if lines else ""
    if not header.startswith(_HEADER_PREFIX):
        raise ValueError(f"{source}: missing language-model header")
    fields = dict(
        part.split("=", 1) for part in header[len(_HEADER_PREFIX) :].split() if "=" in part
    )
    name = unquote(fields["name"]) if "name" in fields else default_name
    model = _parse_lines(name, lines[1:], source)
    model.documents_seen = int(fields.get("documents_seen", 0))
    model.tokens_seen = int(fields.get("tokens_seen", 0))
    return model


def _unpack_columns(data: bytes, source: str) -> LanguageModel:
    """Parse a model file; every way it can be malformed is a ``ValueError``."""
    header, newline, payload = data.partition(b"\n")
    try:
        if not data.startswith(_COLUMNS_PREFIX):
            raise ValueError("only version /2 of the format is known")
        fields = dict(
            part.split("=", 1)
            for part in header[len(_COLUMNS_PREFIX) :].decode("ascii").split()
        )
        count, term_bytes = int(fields["terms"]), int(fields["term_bytes"])
        df_type, ctf_type = fields["df"], fields["ctf"]
        if df_type not in _COLUMN_TYPES or ctf_type not in _COLUMN_TYPES:
            raise ValueError(f"unknown column type in df={df_type} ctf={ctf_type}")
        df_bytes = count * np.dtype(df_type).itemsize
        ctf_bytes = count * np.dtype(ctf_type).itemsize
        if (
            not newline
            or count < 0
            or term_bytes < 0
            or len(payload) != term_bytes + df_bytes + ctf_bytes
        ):
            raise ValueError(
                f"header declares {count} terms in {term_bytes} bytes with "
                f"{df_type}/{ctf_type} columns, but {len(payload)} bytes follow it"
            )
        text = payload[:term_bytes].decode("utf-8")
        terms = text.split("\n") if text else []
        # Splitting on any whitespace finds the same terms exactly when
        # none is empty and none holds whitespace of another kind.
        if len(terms) != count or terms != text.split():
            raise ValueError(f"term table does not hold {count} whitespace-free terms")
        model = LanguageModel.from_statistics(
            unquote(fields["name"]),
            terms,
            np.frombuffer(payload, dtype=df_type, count=count, offset=term_bytes),
            np.frombuffer(payload, dtype=ctf_type, count=count, offset=term_bytes + df_bytes),
        )
        model.documents_seen = int(fields["documents_seen"])
        model.tokens_seen = int(fields["tokens_seen"])
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ValueError(f"{source}: malformed model file: {error}") from error
    return model


def unpack_language_model(
    data: bytes, default_name: str = "lm", source: str = "<bytes>"
) -> LanguageModel:
    """Parse a model from the bytes of a file of either format.

    A model file (:func:`pack_language_model`; any other ``/N`` after
    the header word is refused) is read column by column; anything else
    is decoded and handed to :func:`loads_language_model`,
    so files written in the text format — by ``repro sample -o``, or by
    a model store before the store kept columns — load as they always
    did.  Raises ``ValueError`` (and nothing else) for malformed input.
    """
    if data.startswith(_VERSIONED_PREFIX):
        return _unpack_columns(data, source)
    return loads_language_model(data.decode("utf-8"), default_name=default_name, source=source)


def load_language_model(path: str | Path) -> LanguageModel:
    """Read a language model from a file of either format.

    Files written by :func:`save_language_model` and the model files
    of a model store both load (``repro compare`` / ``summarize`` take
    either).
    """
    path = Path(path)
    return unpack_language_model(path.read_bytes(), default_name=path.stem, source=str(path))
