#!/usr/bin/env bash
# End-to-end gateway check through the real CLI, once per shape of
# federation: start `repro serve`, send it six queries through a
# GatewayClient and require an ok reply to each, send one request whose
# response frame is over asyncio's 64 KiB default line limit and require
# all of it back, then require a clean SIGTERM shutdown with one client
# still connected (exit 0 within 20 s, the stats line, no traceback).
# The in-process leg computes every search on the loop thread, so its
# stats line must read "0 streamed partials"; the --slow-backend leg has
# a backend that waits, goes through the executor and the fan-out pool,
# and must have streamed some.  First, `serve --concurrency 0` and
# `serve --slow-backend nan` must each exit 2 before a gateway listens.
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
  python - "$PORT" <<'PY'
import asyncio, sys
from repro.federation import SearchRequest
from repro.gateway import GatewayClient
from repro.gateway.protocol import ResponseFrame, encode_frame
from repro.federation import build_synthetic_federation, queries_from_models

servers = build_synthetic_federation(4, 0.2, seed=2)
queries = queries_from_models({n: s.actual_language_model() for n, s in servers.items()}, 6)
request = SearchRequest(query=queries[0], n=3000, docs_per_database=3000,
                        databases_per_query=4)

async def ask():
    async with GatewayClient("127.0.0.1", int(sys.argv[1])) as client:
        replies = await asyncio.gather(
            *(client.search(SearchRequest(query=query)) for query in queries))
        return replies, await client.search(request)

replies, reply = asyncio.run(ask())
assert all(r.ok for r in replies), [r.status for r in replies]
print(f"{len(replies)} queries: ok")
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
# A flag out of its domain is a usage error before any federation is
# built or gateway started: exit 2, the flag named, nothing listening.
usage_error() {
  LOG="$1"; MESSAGE="$2"; shift 2
  set +e
  timeout 60 python -m repro serve "${FEDERATION[@]}" --port 18702 "$@" > "$LOG" 2>&1
  CODE=$?
  set -e
  test "$CODE" -eq 2
  grep -q -- "$MESSAGE" "$LOG"
  if grep -q "gateway listening" "$LOG"; then
    echo "repro serve listened despite $*" >&2
    exit 1
  fi
}
usage_error zero.log "--concurrency must be positive" --concurrency 0
usage_error nan.log "--slow-backend must be finite and non-negative" --slow-backend nan
smoke serve.log 18700
grep -q "gateway stopped: .*, 0 streamed partials" serve.log
smoke serve-slow.log 18701 --slow-backend 0.05
grep -Eq "gateway stopped: .*, [1-9][0-9]* streamed partials" serve-slow.log
echo "gateway smoke: clean shutdown, both shapes"
