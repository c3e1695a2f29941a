"""Heavy-tailed database-size mixes.

The paper's testbeds (Table 1) already span two orders of magnitude —
CACM's thousands of abstracts against TREC-123's million documents —
and real federations are worse: database sizes are roughly Zipfian.  A
*uniform* per-database sampling budget, the natural default, covers a
tiny database completely and a giant one barely at all; the size mix is
therefore an adversarial input to any fixed-budget acquisition policy.

:func:`heavy_tailed_sizes` produces the deterministic size vector;
:func:`build_heavy_tailed_federation` carves a corpus into databases of
exactly those sizes, and :func:`heavy_tailed_world` serves them as a
:class:`~repro.federation.testbed.World`.
"""

from __future__ import annotations

from itertools import accumulate

from repro.corpus.collection import Corpus
from repro.federation.testbed import World
from repro.utils.rand import derive_seed, ensure_rng
from repro.utils.zipf import zipf_probabilities

__all__ = ["build_heavy_tailed_federation", "heavy_tailed_sizes", "heavy_tailed_world"]


def heavy_tailed_sizes(
    num_databases: int,
    total_documents: int,
    alpha: float = 1.2,
    min_documents: int = 10,
) -> list[int]:
    """Zipf-proportional sizes summing exactly to ``total_documents``.

    Database ``i`` receives mass proportional to ``(i + 1) ** -alpha``,
    floored at ``min_documents``; rounding residue is assigned by
    largest remainder so the vector is deterministic and exact.
    """
    if num_databases <= 0:
        raise ValueError("num_databases must be positive")
    if min_documents <= 0:
        raise ValueError("min_documents must be positive")
    if total_documents < num_databases * min_documents:
        raise ValueError(
            f"total_documents {total_documents} cannot give {num_databases} "
            f"databases at least {min_documents} documents each"
        )
    weights = zipf_probabilities(num_databases, alpha)
    spare = total_documents - num_databases * min_documents
    raw = [min_documents + float(weight) * spare for weight in weights]
    sizes = [int(value) for value in raw]
    remainders = sorted(
        range(num_databases), key=lambda i: (-(raw[i] - sizes[i]), i)
    )
    for i in remainders[: total_documents - sum(sizes)]:
        sizes[i] += 1
    return sizes


def build_heavy_tailed_federation(
    corpus: Corpus,
    num_databases: int,
    alpha: float = 1.2,
    min_documents: int = 10,
    seed: int = 0,
    prefix: str = "db",
) -> list[Corpus]:
    """Carve ``corpus`` into Zipf-sized databases.

    Documents are shuffled with a seeded permutation before slicing, so
    every database is a topical cross-section of the corpus and size is
    the *only* systematic difference between them — the clean version
    of the scenario, isolating the budget-vs-size effect.  The databases
    are views sharing ``corpus``'s document file.
    """
    sizes = heavy_tailed_sizes(
        num_databases, len(corpus), alpha=alpha, min_documents=min_documents
    )
    rng = ensure_rng(derive_seed(seed, "heavy-tail", "shuffle"))
    order = rng.permutation(len(corpus))
    bounds = [0, *accumulate(sizes)]
    return [
        corpus.subset(order[start:stop].tolist(), f"{prefix}{index}")
        for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
    ]


def heavy_tailed_world(corpus: Corpus, num_databases: int, **options) -> World:
    """The :func:`build_heavy_tailed_federation` of ``corpus``, served."""
    return World.of(corpus, build_heavy_tailed_federation(corpus, num_databases, **options))
