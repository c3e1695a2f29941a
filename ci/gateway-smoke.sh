#!/usr/bin/env bash
# End-to-end gateway check through the real CLI, once per shape of
# federation: start `repro serve`, sweep it with a short `repro
# load-bench`, require a well-formed report, then require a clean
# SIGTERM shutdown (the stats line, exit 0).  The in-process leg computes
# every search on the loop thread, so its stats line must read "0
# streamed partials"; the --slow-backend leg has a backend that waits,
# goes through the executor and the fan-out pool, and must have streamed
# some.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

smoke() {
  LOG="$1"; PORT="$2"; shift 2
  python -u -m repro serve --synthetic 3 --scale 0.03 --seed 2 \
    --port "$PORT" --queue-limit 32 --concurrency 4 "$@" > "$LOG" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 50); do
    grep -q "gateway listening" "$LOG" && break
    sleep 0.2
  done
  grep -q "gateway listening on 127.0.0.1:$PORT" "$LOG"
  python -m repro load-bench --host 127.0.0.1 --port "$PORT" \
    --synthetic 3 --scale 0.03 --seed 2 \
    --qps 10 30 --duration 1 --queries 6 -o load.json
  python - <<'PY'
import json
doc = json.load(open("load.json"))
assert doc["schema"] == "repro-serving-load/1", doc["schema"]
assert len(doc["levels"]) == 2
for level in doc["levels"]:
    assert level["sent"] > 0
    assert level["completed"] + level["shed"] + level["errors"] == level["sent"]
    for key in ("p50", "p95", "p99"):
        assert key in level["latency_ms"]
    assert "shed_rate" in level
assert "saturation_qps" in doc
print("load.json: well-formed")
PY
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  cat "$LOG"
  grep -q "gateway stopped:" "$LOG"
}
smoke serve.log 18700
grep -q "gateway stopped: .*, 0 streamed partials" serve.log
smoke serve-slow.log 18701 --slow-backend 0.05
grep -Eq "gateway stopped: .*, [1-9][0-9]* streamed partials" serve-slow.log
echo "gateway smoke: clean shutdown, both shapes"
