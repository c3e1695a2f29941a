"""Language model serialization.

A simple, diffable text format in the spirit of the Lemur toolkit's
collection-statistics files:

.. code-block:: text

    #language-model name=wsj88 documents_seen=300 tokens_seen=45210
    apple 12 31
    bear 3 3

One header line, then one ``term df ctf`` line per term, sorted by term
for determinism.  Header fields are whitespace-separated, so the model
name is percent-escaped on write (a name containing a space or ``=``
would otherwise corrupt the header) and unescaped on read.

Writes are **crash-safe**: the entire model is serialized and validated
in memory first (:func:`dumps_language_model`), then published with an
atomic temp-file + :func:`os.replace` (:mod:`repro.utils.atomic`).  A
validation error or a crash mid-write never leaves a corrupt or partial
file at the target path.
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import quote, unquote

from repro.lm.model import LanguageModel
from repro.utils.atomic import atomic_write_text

__all__ = [
    "dumps_language_model",
    "load_language_model",
    "loads_language_model",
    "save_language_model",
]

_HEADER_PREFIX = "#language-model"


def dumps_language_model(model: LanguageModel) -> str:
    """Serialize ``model`` to the text format above, validating first.

    Every term is checked *before* any output is produced, so a model
    that cannot be serialized fails without side effects.  Terms
    containing whitespace are rejected (no analyzer in this library
    produces them; bigram terms use a non-whitespace separator
    precisely so they serialize).  The model name is percent-escaped,
    so any name — spaces, ``=``, newlines — round-trips intact.
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
    df, ctf = model._df, model._ctf
    lines = [
        f"{_HEADER_PREFIX} name={quote(model.name, safe='')} "
        f"documents_seen={model.documents_seen} tokens_seen={model.tokens_seen}"
    ]
    lines.extend([f"{term} {df[term]} {ctf[term]}" for term in terms])
    return "\n".join(lines) + "\n"


def save_language_model(model: LanguageModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` atomically (temp file + rename).

    The serialization is fully built and validated in memory before the
    filesystem is touched; see :func:`dumps_language_model`.
    """
    atomic_write_text(path, dumps_language_model(model))


#: Stands between lines in :func:`_parse_regular`; never whitespace.
_LINE_MARK = "\0"


def _parse_regular(name: str, body: list[str]) -> LanguageModel:
    """Parse term lines in bulk; ``ValueError`` unless all are regular.

    Regular means what :func:`dumps_language_model` writes: three
    fields on every line, integers with ``0 <= df <= ctf``, no term
    twice.  The lines are joined around a marker field and split once;
    every fourth field being the marker, and no other, shows that each
    line held exactly three fields.
    """
    if not body:
        return LanguageModel(name=name)
    fields = f" {_LINE_MARK} ".join(body).split()
    marks = len(body) - 1
    if (
        len(fields) != 3 + 4 * marks
        or fields.count(_LINE_MARK) != marks
        or fields[3::4] != [_LINE_MARK] * marks
    ):
        raise ValueError("a line is not 'term df ctf'")
    return LanguageModel.from_statistics(
        name, fields[0::4], list(map(int, fields[1::4])), list(map(int, fields[2::4]))
    )


def _parse_lines(name: str, body: list[str], source: str) -> LanguageModel:
    """Parse term lines one at a time, locating any error."""
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
    body = lines[1:]
    try:
        model = _parse_regular(name, body)
    except (ValueError, OverflowError):
        # Anything irregular — a blank line, a wrong field count, a bad
        # or over-wide integer, a repeated term, df > ctf — is read
        # again line by line, which sums repeated terms and raises the
        # located errors.
        model = _parse_lines(name, body, source)
    model.documents_seen = int(fields.get("documents_seen", 0))
    model.tokens_seen = int(fields.get("tokens_seen", 0))
    return model


def load_language_model(path: str | Path) -> LanguageModel:
    """Read a language model written by :func:`save_language_model`."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return loads_language_model(text, default_name=path.stem, source=str(path))
