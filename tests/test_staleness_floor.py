"""Where the default staleness decision sits between fresh and drifted.

Calibration (``StalenessReport.is_stale``): 50-document probes of an
unchanged database agree with the stored model at Spearman ≥ 0.53,
probes of a drifted one at ≤ 0.355, and rdiff overlaps (0.18–0.24
against 0.20–0.30).  The default floor must call every one of those
correctly; at 0.35 the highest drifted probe passed as fresh.
"""

from __future__ import annotations

import pytest

from repro.sampling import RefreshPolicy
from repro.sampling.staleness import StalenessReport


@pytest.mark.parametrize(
    ("spearman", "rdiff_score", "stale"),
    [
        (0.355, 0.232, True),   # the highest drifted probe seen
        (0.323, 0.231, True),
        (-0.044, 0.303, True),
        (0.530, 0.223, False),  # the lowest unchanged probe seen
        (0.694, 0.196, False),
        (0.600, 0.238, False),  # the highest rdiff of an unchanged database
    ],
)
def test_default_decision_separates_the_calibration_probes(spearman, rdiff_score, stale):
    report = StalenessReport(rdiff_score=rdiff_score, spearman=spearman, probe_documents=50)
    assert report.is_stale() is stale
    policy = RefreshPolicy()
    assert report.is_stale(policy.rdiff_threshold, policy.spearman_floor) is stale
