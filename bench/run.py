"""The repo's benchmark: one command, every metric by name, outputs checked.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced run with ``--trace 1``.  Names, units, bounds and the reason for
each workload are in ``BENCHMARK.json`` at the root of the repo;
``bench/README.md`` defines every metric.

Without ``--workload`` every workload is run, untraced and then traced.
``--sets K`` measures K sets of ``--runs`` runs per workload (one seed
each, every run a fresh process) and checks that the first two agree
within the bounds (see ``agree.py``).  ``--smoke`` shrinks the corpora
and the window: the same code paths in seconds, not a measurement.

The exit code is non-zero when any correctness gate missed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Stores, queues and child dumps go here (inside the checkout) and are removed.
WORK_DIR = BENCH_DIR / ".work"

# The benchmark measures the source tree it sits in, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} is missing: there is no program here to measure")
sys.path.insert(0, str(ROOT / "src"))

SMOKE_SECONDS = 3.0


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units and bounds this command reports."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _workloads() -> dict:
    import acquire
    import refresh
    import serve

    return {
        "acquire": acquire.run,
        "serve_light": serve.run_light,
        "serve_heavy": serve.run_heavy,
        "refresh": refresh.run,
    }


def run_workload(spec: dict, name: str, args: argparse.Namespace, traced: bool) -> dict:
    """Run one workload once; print its report; return the result object."""
    import fixtures
    from measure import Options, summarize

    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        options = Options(
            seed=args.seed,
            seconds=args.seconds,
            traced=traced,
            sizes=fixtures.SMOKE if args.smoke else fixtures.FULL,
            workdir=workdir,
        )
        outcome = _workloads()[name](options)
        if traced and args.out and outcome.log is not None:
            outcome.log.write_jsonl(args.out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # leave nothing behind, unless --sets keeps results here
        except OSError:
            pass

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    measured = outcome.layers if traced else outcome.end_to_end
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise RuntimeError(f"{name} reported metrics BENCHMARK.json does not name: {sorted(unknown)}")
    if not traced:
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise RuntimeError(f"{name} did not report {missing}")

    print(f"== {name} (seed {args.seed}, {args.seconds:g} s, {'traced' if traced else 'untraced'})")
    for phase in outcome.phases:
        print(f"   {phase}")
    for label, (samples, unit) in outcome.timings.items():
        print(f"   {label}: {summarize(samples).line(unit)}")
    metrics = {}
    for metric in declared:
        # A layer that does no work on this workload reads 0.
        value = float(measured.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"   {metric['name']} = {value:.6g} {metric['unit']}")
    for problem in outcome.problems:
        print(f"   GATE MISSED: {problem}")
    return {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def run_sets(spec: dict, args: argparse.Namespace) -> int:
    """Measure ``--sets`` result sets in fresh processes; compare the first two."""
    import agree

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    paths = []
    for index in range(args.sets):
        results: dict[str, dict[str, list[float]]] = {}
        for name in names:
            for run in range(args.runs):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed + run),
                    "--seconds", str(args.seconds), "--trace", "0",
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
                if done.returncode != 0:
                    sys.stderr.write(done.stdout + done.stderr)
                    return done.returncode
                result = json.loads(done.stdout.strip().splitlines()[-1])
                for metric, entry in result["metrics"].items():
                    results.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
                print(f"set {index + 1} {name} seed {args.seed + run}: "
                      + " ".join(f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()),
                      flush=True)
        path = out_dir / f"set_{index + 1}.json"
        path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    if len(paths) < 2:
        return 0
    return agree.report(spec, agree.load(paths[0]), agree.load(paths[1]))


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"length of the timed window (default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--out", help="write the traced run's spans here as JSON lines")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out-dir", default=str(WORK_DIR / "sets"),
                        help="where --sets writes set_<k>.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.sets:
        return run_sets(spec, args)
    if args.workload:
        result = run_workload(spec, args.workload, args, traced=bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    correct = True
    for traced in (False, True):
        for workload in spec["workloads"]:
            result = run_workload(spec, workload["name"], args, traced=traced)
            print(json.dumps(result))
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
