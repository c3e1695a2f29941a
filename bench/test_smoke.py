"""Smoke test of the benchmark itself (``python -m pytest bench -q``; not tier-1).

Runs every workload with ``--smoke`` (small corpora, 3 s windows) the way
the driver would, and checks the contract between ``run.py`` and
``BENCHMARK.json``: every named metric is emitted with its unit, names
are well formed, the ``acquire`` parts account for a round, and the
counts that should repeat for a seed do.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Per-layer metrics that are counts of deterministic work: two runs of
#: one seed must report them identically, however long their windows ran.
EXACT_COUNTS = {
    "acquire": [
        "index.queries", "index.docs_returned", "sampling.empty_query_share",
        "sampling.queries_per_doc", "sampling.model_ctf_ratio",
    ],
    "serve_light": ["index.search_calls_per_request", "serving.select_hit_share"],
    "serve_heavy": ["index.search_calls_per_request", "serving.select_hit_share"],
    "refresh": [
        "index.queries", "index.docs_returned", "index.search_calls_per_request",
        "sampling.queries_per_doc", "fleet.probe_queries_per_db",
        "fleet.resampled_docs", "fleet.refreshed_share",
    ],
}


def run(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {workload: run(workload, trace=1) for workload in WORKLOADS}


def test_spec_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    metrics = run(workload, trace=0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for declared in SPEC["end_to_end"]:
        assert metrics[declared["name"]]["unit"] == declared["unit"]
        assert metrics[declared["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted(workload, traced):
    metrics = traced[workload]["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for declared in SPEC["per_layer"]:
        assert metrics[declared["name"]]["unit"] == declared["unit"]
    # Every workload exercises some layers; none may come back all zeros.
    assert sum(1 for entry in metrics.values() if entry["value"]) >= 5


def test_acquire_parts_account_for_the_round(traced):
    # run() already required "correct", which includes the 5 % limit.
    assert 0 <= traced["acquire"]["metrics"]["obs.unattributed_share"]["value"] < 0.05


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload, traced):
    again = run(workload, trace=1)["metrics"]
    for name in EXACT_COUNTS[workload]:
        assert again[name]["value"] == traced[workload]["metrics"][name]["value"], name
