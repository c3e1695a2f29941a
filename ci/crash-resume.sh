#!/usr/bin/env bash
# End-to-end durability check through the real CLI: kill a checkpointed
# sampling run mid-flight (os._exit at a query boundary), resume it, and
# require the resumed model to be bit-identical to an uninterrupted run.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro generate --profile cacm --scale 0.05 --seed 9 -o corpus.jsonl
python -m repro sample corpus.jsonl --max-docs 80 --seed 4 \
  --checkpoint ck-full --checkpoint-every 3 -o full.lm
# The crash leg must die with exit code 3, not finish.
if python -m repro sample corpus.jsonl --max-docs 80 --seed 4 \
  --checkpoint ck --checkpoint-every 3 --crash-after-queries 10 \
  -o resumed.lm; then
  echo "expected the crash run to exit non-zero" >&2; exit 1
fi
test ! -f resumed.lm
python -m repro sample corpus.jsonl --max-docs 80 --seed 4 \
  --checkpoint ck --checkpoint-every 3 -o resumed.lm | tee resume.log
grep -q "resumed from checkpoint" resume.log
cmp full.lm resumed.lm
echo "crash/resume: bit-identical"
