"""Adversarial-world scenario testbeds.

The synthetic worlds elsewhere in :mod:`repro.synth` and
:mod:`repro.federation` are *cooperative*: static contents, unbiased
result ranking, disjoint databases of comparable size.  Real text
databases violate every one of those assumptions, and the paper's
machinery — query-based sampling, staleness probing, selection and
merging — must degrade gracefully when they do.

This package builds the violations deterministically, one per
assumption:

* :mod:`~repro.scenarios.cluster` — cluster-structured corpora whose
  near-disjoint topic vocabularies trap the sampling random walk;
* :mod:`~repro.scenarios.drift` — :class:`DriftingDatabase`, whose
  contents switch on a seeded query-count schedule mid-sample;
* :mod:`~repro.scenarios.bias` — :class:`RankBiasedServer`, result
  caps and non-relevance result ordering;
* :mod:`~repro.scenarios.overlap` — federations with documents
  replicated verbatim across databases;
* :mod:`~repro.scenarios.sizes` — heavy-tailed database-size mixes.

The two multi-database worlds are :class:`~repro.federation.testbed.World`
objects (:func:`overlapping_world`, :func:`heavy_tailed_world`), scored
through the same relevance oracle as every other federation.

:mod:`~repro.scenarios.bench` measures each scenario's observable and
pins it quantitatively (``repro scenarios bench``,
``BENCH_scenarios.json``); :data:`SCENARIO_SPECS` is the registry
``repro scenarios list`` prints.
"""

from repro.scenarios.base import SCENARIO_SPECS, ScenarioSpec, scenario_names
from repro.scenarios.bench import (
    SCENARIOS_BENCH_SCHEMA,
    ScenarioResult,
    ScenariosBenchReport,
    format_scenarios_bench,
    run_scenarios_bench,
    validate_scenarios_bench,
    write_scenarios_bench,
)
from repro.scenarios.bias import BIAS_KINDS, RankBiasedServer
from repro.scenarios.cluster import (
    ClusteredWorld,
    build_clustered_world,
    distinctive_cluster_terms,
)
from repro.scenarios.drift import DriftingDatabase, DriftSchedule
from repro.scenarios.overlap import (
    OverlapStats,
    build_overlapping_partition,
    overlap_statistics,
    overlapping_world,
)
from repro.scenarios.sizes import (
    build_heavy_tailed_federation,
    heavy_tailed_sizes,
    heavy_tailed_world,
)

__all__ = [
    "BIAS_KINDS",
    "SCENARIO_SPECS",
    "SCENARIOS_BENCH_SCHEMA",
    "ClusteredWorld",
    "DriftSchedule",
    "DriftingDatabase",
    "OverlapStats",
    "RankBiasedServer",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenariosBenchReport",
    "build_clustered_world",
    "build_heavy_tailed_federation",
    "build_overlapping_partition",
    "distinctive_cluster_terms",
    "format_scenarios_bench",
    "heavy_tailed_sizes",
    "heavy_tailed_world",
    "overlap_statistics",
    "overlapping_world",
    "run_scenarios_bench",
    "scenario_names",
    "validate_scenarios_bench",
    "write_scenarios_bench",
]
