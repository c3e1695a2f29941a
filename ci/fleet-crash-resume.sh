#!/usr/bin/env bash
# End-to-end fleet durability check through the real CLI: learn a small
# fleet into its store, drift one database, then kill a refresh worker
# while it holds a job lease (os._exit, no cleanup).  The rerun must wait
# out the dead lease, finish the round exactly once (no done job
# re-runs), fold the refreshed model into its shard, and leave every
# shard verifiable.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro generate --profile cacm --scale 0.04 --seed 9 -o a.jsonl
python -m repro generate --profile wsj88 --scale 0.04 --seed 5 -o b.jsonl
# federate's exit code reflects the query's results; the store save is
# what this leg needs.
python -m repro federate a.jsonl b.jsonl --query "market court" \
  --sample-docs 60 --save-models store || true
test -f store/fleet.json
python -m repro store store --verify
# A stored model is columnar, not text, and still a model file to every
# subcommand that takes one.
python -m repro summarize store/shards/*/models/a-*.lm -k 3 | tee summary.log
grep -q "^Top 3 terms of 'a-learned'" summary.log
# Drift b after its model was learned, so the round has real refresh
# work to lose in the crash.
python -m repro generate --profile cacm --scale 0.04 --seed 77 -o b.jsonl
# The crash leg must die with exit code 3 while leasing a job.
set +e
python -m repro fleet run-workers a.jsonl b.jsonl --models store \
  --queue q --workers 1 --lease-seconds 2 --refresh-docs 50 \
  --crash-after-jobs 1 2> crash.log
CRASH_CODE=$?
set -e
cat crash.log
test "$CRASH_CODE" -eq 3
grep -q "simulated crash holding the lease" crash.log
grep -l '"state": "leased"' q/jobs/*.json
# The rerun reclaims the expired lease and drains the round.  File
# corpora are in-process indexes, so --workers 4 starts no thread: the
# round drains on the main thread, in priority order, and every
# assertion below holds as with one worker.
python -m repro fleet run-workers a.jsonl b.jsonl --models store \
  --queue q --workers 4 --lease-seconds 2 --refresh-docs 50 \
  | tee resume.log
grep -q "drained:" resume.log
python - <<'PY'
import json
from pathlib import Path
jobs = {job["database"]: job for job in
        (json.loads(p.read_text()) for p in Path("q/jobs").glob("*.json"))}
assert sorted(jobs) == ["a", "b"], sorted(jobs)
assert all(job["state"] == "done" for job in jobs.values()), jobs
# One job finished before the crash; the leased one needed a second
# attempt.  Nothing ran twice.
assert sorted(job["attempts"] for job in jobs.values()) == [1, 2], jobs
refreshed = {name for name, job in jobs.items() if job["result"]["refreshed"]}
assert refreshed == {"b"}, refreshed
print("fleet crash/resume: exactly-once round completion")
PY
# b's shard was rewritten by the refresh: its new model file is checked
# in the format the store now writes.
python -m repro store store --verify
python -m repro fleet status store --queue q
