#!/usr/bin/env bash
# Adversarial-world robustness gate through the real CLI: run the two
# cheapest end-to-end scenarios (a mid-sample content switch and an
# overlapping federation) at reduced scale and require every pinned
# measurement to hold and the report to validate; then run the whole
# bench at its defaults and require the committed BENCH_scenarios.json
# byte for byte, so a change that moves any metric shows here.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro scenarios list | tee list.log
grep -q "drift" list.log
python -m repro scenarios bench --only drift overlap \
  --scale 0.5 -o BENCH_scenarios_smoke.json | tee bench.log
grep -q "all passed: yes" bench.log
python - <<'PY'
import json
from repro.scenarios import validate_scenarios_bench
doc = json.load(open("BENCH_scenarios_smoke.json"))
validate_scenarios_bench(doc)
names = [entry["scenario"] for entry in doc["scenarios"]]
assert names == ["drift", "overlap"], names
drift = doc["scenarios"][0]["metrics"]
assert drift["detected"] == 1.0 and drift["sweep_refreshed"] == 1.0, drift
overlap = doc["scenarios"][1]["metrics"]
assert overlap["naive_duplicates"] > 0 >= overlap["cori_duplicates"], overlap
print("scenarios smoke: drift caught, overlap deduplicated")
PY
python -m repro scenarios bench -o BENCH_scenarios.json
cmp BENCH_scenarios.json "$ROOT/BENCH_scenarios.json"
