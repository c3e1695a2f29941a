"""Shared utilities: seeded randomness, Zipf/Heaps law math, tables.

These helpers keep every stochastic component of the library
deterministic given an explicit seed, and provide the power-law
machinery the synthetic corpus generator and its validation tests
are built on.  :mod:`repro.utils.table` is the ASCII table every
layer's report renders through.
"""

from repro.utils.rand import derive_rng, derive_seed, ensure_rng
from repro.utils.table import format_table
from repro.utils.zipf import (
    fit_heaps,
    fit_zipf,
    heaps_vocabulary_size,
    zipf_cdf,
    zipf_probabilities,
)

__all__ = [
    "derive_rng",
    "derive_seed",
    "ensure_rng",
    "fit_heaps",
    "fit_zipf",
    "format_table",
    "heaps_vocabulary_size",
    "zipf_cdf",
    "zipf_probabilities",
]
