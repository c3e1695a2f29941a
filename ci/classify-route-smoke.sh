#!/usr/bin/env bash
# End-to-end topic-routing check through the real CLI: classify a
# synthetic federation by query probing, persist the router, serve
# routed queries with `repro serve --route-topics` (at least one ok
# reply with hits, then a clean SIGTERM stop), and require the bench
# report to show routed fan-out strictly below broadcast at the same
# top-k depth without losing topical precision.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro classify probe --synthetic 4 --scale 0.02 \
  --save-router store | tee probe.log
grep -q "saved classifications" probe.log
test -f store/classifications.json
PORT=18710
python -u -m repro serve --synthetic 4 --scale 0.02 --route-topics \
  --port "$PORT" > serve.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q "gateway listening" serve.log && break
  sleep 0.2
done
grep -q "gateway listening on 127.0.0.1:$PORT" serve.log
python - "$PORT" <<'PY'
import asyncio, sys
from repro.federation import SearchRequest
from repro.gateway import GatewayClient
from repro.serving import queries_from_models
from repro.serving.bench import build_synthetic_federation

servers = build_synthetic_federation(4, 0.02, seed=0)
queries = queries_from_models({n: s.actual_language_model() for n, s in servers.items()}, 6)

async def ask():
    async with GatewayClient("127.0.0.1", int(sys.argv[1])) as client:
        return await asyncio.gather(
            *(client.search(SearchRequest(query=query)) for query in queries))

replies = asyncio.run(ask())
answered = [r for r in replies if r.ok and r.response.results]
assert answered, [r.status for r in replies]
print(f"routed serve: {len(answered)} of {len(replies)} queries answered with hits")
PY
kill -TERM "$SERVE_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.2
done
cat serve.log
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "repro serve still running 20 s after SIGTERM" >&2
  exit 1
fi
wait "$SERVE_PID"
grep -q "gateway stopped:" serve.log
if grep -q Traceback serve.log; then
  echo "repro serve logged a traceback while stopping" >&2
  exit 1
fi
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
