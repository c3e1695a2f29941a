"""Language models and the paper's evaluation metrics.

A *language model* in this paper's sense (Section 2.1) is a partial
representation of a full-text database: its vocabulary plus frequency
statistics — document frequency (df) and collection term frequency
(ctf).  :class:`LanguageModel` supports incremental construction from
sampled documents, merging (the union-of-samples of Section 8),
projection through an analyzer (the comparison protocol of Section
4.1), a Lemur-style text serialization, and the columnar model file the
model store keeps (:mod:`repro.lm.io`).

:mod:`repro.lm.compare` implements the paper's metrics: *percentage
learned* and *ctf ratio* for vocabulary (Sections 4.3.1-4.3.2), the
*Spearman rank correlation coefficient* for frequency information
(Section 4.3.3), and *rdiff*, the paper's new convergence metric
(Section 6), each one :func:`~repro.lm.compare.join` of the two models
on their common terms plus one vectorised core.
"""

from repro.lm.calibrate import scale_to_collection
from repro.lm.compare import (
    ctf_ratio,
    join,
    percentage_learned,
    rdiff,
    spearman_rank_correlation,
)
from repro.lm.io import (
    dumps_language_model,
    load_language_model,
    loads_language_model,
    pack_language_model,
    save_language_model,
    unpack_language_model,
)
from repro.lm.model import LanguageModel, TermStats
from repro.lm.shrinkage import shrink, shrink_all

__all__ = [
    "LanguageModel",
    "TermStats",
    "ctf_ratio",
    "dumps_language_model",
    "join",
    "load_language_model",
    "loads_language_model",
    "pack_language_model",
    "percentage_learned",
    "rdiff",
    "save_language_model",
    "scale_to_collection",
    "shrink",
    "shrink_all",
    "spearman_rank_correlation",
    "unpack_language_model",
]
