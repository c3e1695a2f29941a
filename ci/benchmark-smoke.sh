#!/usr/bin/env bash
# The repo's benchmark (BENCHMARK.json, bench/) checks itself: every
# workload at smoke size with all correctness gates on, then the
# benchmark's own tests.  A change that breaks a gate or a point where
# the timing proxies are injected fails here, not in the next measured
# run.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python3 "$ROOT/bench/run.py" --smoke
python -m pytest "$ROOT/bench" -q
# Every query the sampler sends, pinned by the benchmark's own counts: a
# traced smoke acquisition at seed 0 runs 794 queries that return 1,684
# documents (both counted over the first rounds, so they repeat exactly).
# A change to which terms are queried, or to what a query returns,
# changes them.
python3 "$ROOT/bench/run.py" --workload acquire --smoke --trace 1 --seed 0 \
  | tee acquire-traced.log
tail -n 1 acquire-traced.log | python3 -c "
import json, sys
report = json.loads(sys.stdin.readline())
metrics = report['metrics']
counts = (metrics['index.queries']['value'], metrics['index.docs_returned']['value'])
assert report['correct'] and report['failed'] == 0, report
assert counts == (794, 1684), f'index.queries, index.docs_returned = {counts}, not (794, 1684)'
print(f'acquire traced counts {counts} == (794, 1684)')
"
# Peak memory of one full-size acquisition — the one gated metric that is
# stable enough to gate in CI (~1 % run to run): eight databases, 6,000
# documents, sampled and stored, peak at ≈ 75 MB.  It read 200 MB while
# every token of every document outlived its index build; 130 leaves
# room for a different interpreter and numpy, not for that.
python3 "$ROOT/bench/run.py" --workload acquire --seed 0 --seconds 5 --trace 0 \
  | tee acquire.log
tail -n 1 acquire.log | python3 -c "
import json, sys
report = json.loads(sys.stdin.readline())
peak = report['metrics']['peak_rss_mb']['value']
assert report['correct'] and report['failed'] == 0, report
assert peak <= 130, f'acquire peak_rss_mb {peak:.1f} > 130'
print(f'acquire peak_rss_mb {peak:.1f} <= 130')
"
# Peak memory of the gateway child serving full-size serve_light, the
# closed loop whose requests run the set-at-a-time search plan: ≈ 60 MB
# at seed 0 (the ceiling was set ~10 % above the ~82 MB it read then).
# Memory a plan keeps per posting of the federation, rather than per
# request, shows up here.
python3 "$ROOT/bench/run.py" --workload serve_light --seed 0 --seconds 5 --trace 0 \
  | tee serve_light.log
tail -n 1 serve_light.log | python3 -c "
import json, sys
report = json.loads(sys.stdin.readline())
peak = report['metrics']['peak_rss_mb']['value']
assert report['correct'] and report['failed'] == 0, report
assert peak <= 90, f'serve_light peak_rss_mb {peak:.1f} > 90'
print(f'serve_light peak_rss_mb {peak:.1f} <= 90')
"
