#!/usr/bin/env bash
# End-to-end fleet durability check through the real CLI: learn a small
# fleet into its store, drift one database, then kill a refresh worker
# while it holds a job lease (os._exit, no cleanup).  The rerun must wait
# out the dead lease, finish the round exactly once (no done job
# re-runs), fold the refreshed model into its shard, and leave every
# shard verifiable.  A torn job file, a NaN lease and a migration into
# zero shards are refused without a traceback.
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
  --queue q --lease-seconds 2 --refresh-docs 50 \
  --crash-after-jobs 1 2> crash.log
CRASH_CODE=$?
set -e
cat crash.log
test "$CRASH_CODE" -eq 3
grep -q "simulated crash holding the lease" crash.log
grep -l '"state": "leased"' q/jobs/*.json
# The rerun sleeps until the dead lease expires, reclaims it and drains
# the round.
python -m repro fleet run-workers a.jsonl b.jsonl --models store \
  --queue q --lease-seconds 2 --refresh-docs 50 \
  | tee resume.log
grep -q "drained:" resume.log
python - <<'PY'
import json
from pathlib import Path
jobs = {job["database"]: job for job in
        (json.loads(p.read_text()) for p in Path("q/jobs").glob("*.json"))}
assert sorted(jobs) == ["a", "b"], sorted(jobs)
assert not any("priority" in job for job in jobs.values()), jobs
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
# A torn job file (in a copy of the queue) is one line naming it and
# exit 1, not a traceback.
cp -r q q-torn
echo '{ torn' > q-torn/jobs/refresh_check--a.json
set +e
python -m repro fleet status store --queue q-torn 2> torn.log
TORN_CODE=$?
set -e
cat torn.log
test "$TORN_CODE" -eq 1
grep -q "corrupt refresh queue: .*refresh_check--a.json" torn.log
if grep -q Traceback torn.log; then exit 1; fi
# --budget keeps the first names: on a fresh queue the first run
# submits only a, the second only b.
for expected in "refresh_check--a.json" "refresh_check--a.json refresh_check--b.json"; do
  python -m repro fleet run-workers a.jsonl b.jsonl --models store \
    --queue q2 --budget 1 --refresh-docs 50 | tee budget.log
  grep -q "drained: 1 jobs completed" budget.log
  test "$(ls q2/jobs | tr '\n' ' ' | sed 's/ $//')" = "$expected"
done
# A refresh sample of 0 is a usage error before anything is read or
# written: no queue directory appears.
set +e
python -m repro fleet run-workers a.jsonl b.jsonl --models store \
  --queue q3 --refresh-docs 0 2> zero.log
ZERO_CODE=$?
set -e
test "$ZERO_CODE" -eq 2
grep -q -- "--refresh-docs must be positive" zero.log
test ! -e q3
# A NaN lease would never expire: it is a usage error before anything
# is written.
set +e
python -m repro fleet run-workers a.jsonl b.jsonl --models store \
  --queue q4 --lease-seconds nan 2> nan.log
NAN_CODE=$?
set -e
test "$NAN_CODE" -eq 2
grep -q -- "--lease-seconds must be finite and positive" nan.log
test ! -e q4
# A migration into no shards is a usage error before the source store
# is read: no destination directory appears.
set +e
python -m repro fleet migrate store migrated --num-shards 0 2> shards.log
SHARDS_CODE=$?
set -e
test "$SHARDS_CODE" -eq 2
grep -q -- "--num-shards must be positive" shards.log
test ! -e migrated
