#!/usr/bin/env bash
# End-to-end gateway check through the real CLI, once per shape of
# federation: start `repro serve`, sweep it with a short `repro
# load-bench`, require a well-formed report, send one request whose
# response frame is over asyncio's 64 KiB default line limit and require
# all of it back, then require a clean SIGTERM shutdown with one client
# still connected (exit 0 within 20 s, the stats line, no traceback).
# The in-process leg computes every search on the loop thread, so its
# stats line must read "0 streamed partials"; the --slow-backend leg has
# a backend that waits, goes through the executor and the fan-out pool,
# and must have streamed some.  First, `load-bench -n 0` and `load-bench
# --duration nan` must each exit 2 and write no report.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

# 2,400 documents: enough hits for a response frame of about 100 KB.
FEDERATION=(--synthetic 4 --scale 0.2 --seed 2)

smoke() {
  LOG="$1"; PORT="$2"; shift 2
  python -u -m repro serve "${FEDERATION[@]}" \
    --port "$PORT" --queue-limit 32 --concurrency 4 "$@" > "$LOG" 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 50); do
    grep -q "gateway listening" "$LOG" && break
    sleep 0.2
  done
  grep -q "gateway listening on 127.0.0.1:$PORT" "$LOG"
  python -m repro load-bench --host 127.0.0.1 --port "$PORT" \
    "${FEDERATION[@]}" \
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
  python - "$PORT" <<'PY'
import asyncio, sys
from repro.federation import SearchRequest
from repro.gateway import GatewayClient
from repro.gateway.protocol import ResponseFrame, encode_frame
from repro.serving import queries_from_models
from repro.serving.bench import build_synthetic_federation

servers = build_synthetic_federation(4, 0.2, seed=2)
query = queries_from_models({n: s.actual_language_model() for n, s in servers.items()}, 1)[0]
request = SearchRequest(query=query, n=3000, docs_per_database=3000, databases_per_query=4)

async def ask():
    async with GatewayClient("127.0.0.1", int(sys.argv[1])) as client:
        return await client.search(request)

reply = asyncio.run(ask())
assert reply.ok, reply
size = len(encode_frame(ResponseFrame("r1", reply.response)))
assert size > 64 * 1024 and len(reply.response.results) > 2000, (size, len(reply.response.results))
print(f"large frame: {size} bytes, {len(reply.response.results)} hits, arrived whole")
PY
  # One client stays connected, its hello frame read, through the SIGTERM:
  # stop() must close it, and must not hang on it.
  python - "$PORT" > held.log <<'PY' &
import socket, sys
reader = socket.create_connection(("127.0.0.1", int(sys.argv[1]))).makefile("rb")
print(reader.readline().decode().strip(), flush=True)
reader.read()  # until the gateway closes the connection
PY
  HELD_PID=$!
  for _ in $(seq 1 50); do
    grep -q '"hello"' held.log && break
    sleep 0.1
  done
  grep -q '"hello"' held.log
  kill -TERM "$SERVE_PID"
  for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.2
  done
  cat "$LOG"
  if kill -0 "$SERVE_PID" 2>/dev/null; then
    echo "repro serve still running 20 s after SIGTERM" >&2
    exit 1
  fi
  wait "$SERVE_PID"
  wait "$HELD_PID"
  grep -q "gateway stopped:" "$LOG"
  if grep -q Traceback "$LOG"; then
    echo "repro serve logged a traceback while stopping" >&2
    exit 1
  fi
}
# A range flag out of bounds is a usage error before any federation is
# built or gateway started: exit 2, the flag named, no report written.
set +e
python -m repro load-bench "${FEDERATION[@]}" --qps 10 --duration 1 -n 0 \
  -o zero.json 2> zero.log
ZERO_CODE=$?
set -e
test "$ZERO_CODE" -eq 2
grep -q -- "-n must be positive" zero.log
test ! -e zero.json
# A NaN duration would sweep for no time and still write a report.
set +e
python -m repro load-bench "${FEDERATION[@]}" --qps 10 --duration nan \
  -o nan.json 2> nan.log
NAN_CODE=$?
set -e
test "$NAN_CODE" -eq 2
grep -q -- "--duration must be finite and positive" nan.log
test ! -e nan.json
smoke serve.log 18700
grep -q "gateway stopped: .*, 0 streamed partials" serve.log
smoke serve-slow.log 18701 --slow-backend 0.05
grep -Eq "gateway stopped: .*, [1-9][0-9]* streamed partials" serve-slow.log
echo "gateway smoke: clean shutdown, both shapes"
