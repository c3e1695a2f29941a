"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
prints it.  The corpora, indexes, and expensive multi-run experiments
are computed once per session and shared.

Scale: benchmarks honour ``REPRO_SCALE`` (default 1.0 — the profile
sizes of DESIGN.md).  Set e.g. ``REPRO_SCALE=0.1`` for a fast smoke
pass; the shapes survive scaling, only absolute document counts move.

Seeds: runs average over ``SEEDS`` (3 seeds) as a light version of the
paper's repeated trials.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field

import pytest

from repro.experiments.figures import figure1_and_2_curves, figure3_strategy_curves
from repro.experiments.testbed import Testbed

#: Seeds averaged by the multi-run experiments.
SEEDS = (0, 1, 2)

#: Where the performance baseline lands (override: BENCH_PERF_PATH).
BENCH_PERF_PATH = os.environ.get(
    "BENCH_PERF_PATH", os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")
)


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


@dataclass
class PerfRecorder:
    """Collects hot-path timings and writes ``BENCH_perf.json``.

    The JSON is the machine-readable perf-regression baseline: one
    entry per hot path with seconds/op and ops/sec, plus derived
    before/after speedups (e.g. incremental curve measurement vs. the
    full-reprojection reference ``measure_run_full``).
    Format::

        {
          "schema": "repro-bench-perf/1",
          "environment": {"python": "...", "machine": "...", "scale": 0.05},
          "hot_paths": {"<name>": {"seconds_per_op": s, "ops_per_sec": 1/s}},
          "speedups": {"<after>_vs_<before>": x}
        }
    """

    path: str
    #: Corpus scale the perf corpus was built at (set by the perf module).
    scale: float | None = None
    hot_paths: dict[str, dict[str, float]] = field(default_factory=dict)
    speedups: dict[str, float] = field(default_factory=dict)

    def record(self, name: str, seconds_per_op: float) -> None:
        """Register one hot path's per-operation wall time."""
        self.hot_paths[name] = {
            "seconds_per_op": seconds_per_op,
            "ops_per_sec": (1.0 / seconds_per_op) if seconds_per_op > 0 else 0.0,
        }

    def record_benchmark(self, name: str, benchmark) -> None:
        """Register a pytest-benchmark fixture's best observed time.

        The minimum — not the mean — is the regression statistic:
        it is the least noise-contaminated estimate of the code's
        cost, so baselines stay comparable across differently loaded
        machines.
        """
        stats = benchmark.stats
        # pytest-benchmark wraps Stats in Metadata; tolerate both.
        inner = getattr(stats, "stats", stats)
        self.record(name, float(inner.min))

    def speedup(self, label: str, before: str, after: str) -> float:
        """Derive and register ``before``/``after`` as a speedup."""
        ratio = (
            self.hot_paths[before]["seconds_per_op"]
            / self.hot_paths[after]["seconds_per_op"]
        )
        self.speedups[label] = ratio
        return ratio

    def write(self) -> None:
        if not self.hot_paths:
            return
        payload = {
            "schema": "repro-bench-perf/1",
            "environment": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "scale": self.scale,
            },
            "hot_paths": {
                name: {k: round(v, 9) for k, v in entry.items()}
                for name, entry in sorted(self.hot_paths.items())
            },
            "speedups": {
                label: round(value, 3) for label, value in sorted(self.speedups.items())
            },
        }
        with open(self.path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=False)
            handle.write("\n")


@pytest.fixture(scope="session")
def perf_recorder():
    """Session-wide sink for performance results; writes on teardown."""
    recorder = PerfRecorder(path=BENCH_PERF_PATH)
    yield recorder
    recorder.write()
