"""Experiment harness: one entry point per table and figure.

This package is the bridge between the library and the paper's
evaluation section.  :mod:`repro.experiments.testbed` builds (and
caches, per process) the synthetic corpora, servers, and actual
language models; :mod:`repro.experiments.runner` executes sampling runs
and turns their snapshots into metric curves; :mod:`~.figures` and
:mod:`~.tables` compute each figure's series and each table's rows; and
:mod:`~.reporting` renders them as aligned ASCII for the benchmark
harness and the examples.

Scaling: experiments honour the ``REPRO_SCALE`` environment variable
(default 1.0) so the whole evaluation can be shrunk for smoke tests or
grown toward the paper's corpus sizes.

Performance: multi-run experiments fan independent trials across
processes (:mod:`repro.experiments.parallel`; pass ``workers=N`` to any
figure/table function or ``--workers`` to ``repro experiments``),
bit-identical to the serial path — see DESIGN.md's "Performance
architecture".

Beyond the paper's own evaluation, :func:`accuracy_vs_budget_curve`
(from :mod:`repro.experiments.classify_bench`) measures topic-classification
accuracy against probe budget with the same synthetic-testbed,
seed-averaged methodology as the ctf-ratio curves, and renders through
the same :func:`format_series` path.
"""

from repro.experiments.classify_bench import accuracy_vs_budget_curve
from repro.experiments.figures import (
    figure1_and_2_curves,
    figure3_strategy_curves,
    figure4_rdiff_series,
)
from repro.experiments.parallel import TrialResult, TrialSpec, run_trial, run_trials
from repro.experiments.runner import (
    CurvePoint,
    LearningCurve,
    average_curves,
    measure_run,
    rdiff_series,
    run_sampling,
)
from repro.experiments.tables import (
    table1_corpora,
    table2_docs_per_query,
    table3_query_counts,
    table4_summary,
)
from repro.experiments.testbed import Testbed, default_scale
from repro.experiments.ascii_plot import plot_series
from repro.experiments.reporting import curve_series, format_series

__all__ = [
    "CurvePoint",
    "LearningCurve",
    "Testbed",
    "TrialResult",
    "TrialSpec",
    "accuracy_vs_budget_curve",
    "average_curves",
    "curve_series",
    "default_scale",
    "figure1_and_2_curves",
    "figure3_strategy_curves",
    "figure4_rdiff_series",
    "format_series",
    "measure_run",
    "plot_series",
    "rdiff_series",
    "run_sampling",
    "run_trial",
    "run_trials",
    "table1_corpora",
    "table2_docs_per_query",
    "table3_query_counts",
    "table4_summary",
]
