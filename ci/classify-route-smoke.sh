#!/usr/bin/env bash
# End-to-end topic-routing check through the real CLI: classify a
# synthetic federation by query probing, persist the router, serve
# routed queries through a self-hosted gateway, and require the bench
# report to show routed fan-out strictly below broadcast at the same
# top-k depth without losing topical precision.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro classify probe --synthetic 4 --scale 0.02 \
  --save-router store | tee probe.log
grep -q "saved classifications" probe.log
test -f store/classifications.json
python -m repro load-bench --synthetic 4 --scale 0.02 --route-topics \
  --qps 10 --duration 1 --queries 6 -o routed_load.json
python -c "import json; levels = json.load(open('routed_load.json'))['levels']; assert sum(level['completed'] for level in levels) > 0, levels"
python -m repro classify bench --scale 0.02 --seeds 0 \
  --budgets 1 4 -o BENCH_classify.json
python - <<'PY'
import json
doc = json.load(open("BENCH_classify.json"))
assert doc["schema"] == "repro-classify-bench/1", doc["schema"]
curve = {row["budget"]: row["accuracy"] for row in doc["accuracy_vs_budget"]}
assert curve[4] >= curve[1], curve
routing = doc["routing"]
# Same top-k on both arms; routing must shrink fan-out without giving
# up topical precision.
assert routing["routed_databases_per_query"] < routing[
    "broadcast_databases_per_query"], routing
assert routing["routed_precision"] >= routing["broadcast_precision"] - 1e-9, (
    routing)
print("classify-route smoke: routed fan-out "
      f"{routing['routed_databases_per_query']:.2f} < broadcast "
      f"{routing['broadcast_databases_per_query']:.2f}")
PY
