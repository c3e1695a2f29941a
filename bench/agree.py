"""Do two sets of benchmark runs agree within the benchmark's own bounds?

    python3 bench/agree.py A.json B.json

Each file is a result set as ``run.py --sets`` writes it: workload →
metric → one value per run.  For every end-to-end metric and workload
one row is printed with both medians and quartiles, how much worse (in
the metric's own direction) B's median is than A's, and a verdict:

* ``breach`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (the distance between the
  quartiles, as a share of the median) of either set is wider than the
  bound, so the sets cannot show the metric unchanged.  ``setup_s`` is
  exempt: it is gated on its median only;
* ``ok`` — neither.

The exit code is non-zero on any breach or unresolved row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import quartiles


def load(path: str | Path) -> dict[str, dict[str, list[float]]]:
    """One result set: workload → metric → values."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (negative = better)."""
    if not a:
        return 0.0
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def report(spec: dict, a: dict, b: dict) -> int:
    """Print one row per (metric, workload); return the exit code."""
    failures = 0
    print(f"{'workload':<12} {'metric':<16} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'worse by':>9} {'spread':>14}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            values_a = a.get(name, {}).get(metric["name"])
            values_b = b.get(name, {}).get(metric["name"])
            if not values_a or not values_b:
                print(f"{name:<12} {metric['name']:<16} missing from a set")
                failures += 1
                continue
            qa, qb = quartiles(values_a), quartiles(values_b)
            worse = worsening(metric, qa[1], qb[1])
            spreads = (spread(values_a), spread(values_b))
            if worse > metric["bound"]:
                verdict = "breach"
            elif metric["name"] != "setup_s" and max(spreads) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            failures += verdict != "ok"
            print(
                f"{name:<12} {metric['name']:<16} "
                f"{_cell(qa):<34} {_cell(qb):<34} {worse:>+9.2%} "
                f"{spreads[0]:>6.2%}/{spreads[1]:>6.2%}  {verdict} (bound {metric['bound']:.0%})"
            )
    return 1 if failures else 0


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return report(spec, load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
