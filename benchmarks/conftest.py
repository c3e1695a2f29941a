"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (or
an extension experiment) and prints it.  The corpora, indexes, and
expensive multi-run experiments are computed once per session and
shared.  Nothing here keeps time: wall-clock numbers come from
``python3 bench/run.py``, and ``test_bench_floors.py`` holds the two
speed-up floors that have no workload there.

Scale: benchmarks honour ``REPRO_SCALE`` (default 1.0 — the profile
sizes of DESIGN.md).  Set e.g. ``REPRO_SCALE=0.1`` for a fast smoke
pass; the shapes survive scaling, only absolute document counts move.

Seeds: runs average over ``SEEDS`` (3 seeds) as a light version of the
paper's repeated trials.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import figure1_and_2_curves, figure3_strategy_curves
from repro.experiments.testbed import Testbed

#: Seeds averaged by the multi-run experiments.
SEEDS = (0, 1, 2)


@pytest.fixture(scope="session")
def testbed() -> Testbed:
    return Testbed(seed=0)


@pytest.fixture(scope="session")
def fig12_curves(testbed):
    """Baseline curves shared by Figure 1a, 1b, and 2."""
    return figure1_and_2_curves(testbed, seeds=SEEDS)


@pytest.fixture(scope="session")
def fig3_results(testbed):
    """Strategy curves shared by Figure 3a, 3b, and Table 3."""
    return figure3_strategy_curves(testbed, seeds=SEEDS)


def shape_checks(testbed: Testbed) -> bool:
    """Whether paper-shape assertions apply.

    The expected orderings and crossovers are calibrated for scale ≥
    0.5; below that, corpora are so small that sampling covers large
    fractions of each database and the paper's regimes blur.  Benches
    still *print* everything at any scale.
    """
    return testbed.scale >= 0.5


def emit(text: str) -> None:
    """Print a regenerated table/figure, framed for easy grepping."""
    print()
    print(text)
    print()
