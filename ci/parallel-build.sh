#!/usr/bin/env bash
# Corpus generation and the forked federation build, byte for byte:
# `repro generate` must reproduce the committed corpus digests of
# tests/golden.py for every profile, and for the benchmark's corpus both
# forked and under `taskset -c 0`; the benchmark's federation (8
# databases of wsj88 at scale 0.5, large enough to fork) is built plainly
# (indexes on every usable CPU) and pinned to one CPU with `taskset -c 0`
# (serial), and every index's columns must digest the same (both legs
# print the federation's bytes per posting too); a `--scale` that is not
# finite and positive is a one-line usage error (exit 2), not a
# traceback, for every command that builds a synthetic corpus, and
# writes no report.  Every corpus keeps its text in an unlinked temporary
# file: the build legs run with TMPDIR a fresh directory, which must be
# empty after them.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"
mkdir build-tmp
export TMPDIR="$WORK/build-tmp"
GOLDEN=(env PYTHONPATH="$ROOT/src:$ROOT" python -m tests.golden)

for case in "cacm 3 0.05" "wsj88 11 0.02" "trec123 3 0.005" "mssupport 11 0.02"; do
  read -r profile seed scale <<< "$case"
  python -m repro generate --profile "$profile" --seed "$seed" --scale "$scale" \
    -o "$profile.jsonl"
  "${GOLDEN[@]}" "$profile.jsonl" "$profile" "$seed" "$scale"
done
# The benchmark's corpus is large enough for generation to fork (a child
# draws, this process renders); pinned to one CPU it is generated
# serially.  Both files must be the committed corpus.
python -m repro generate --profile wsj88 --seed 0 --scale 0.5 -o wsj88-forked.jsonl
taskset -c 0 python -m repro generate --profile wsj88 --seed 0 --scale 0.5 \
  -o wsj88-one-cpu.jsonl
"${GOLDEN[@]}" wsj88-forked.jsonl wsj88 0 0.5
"${GOLDEN[@]}" wsj88-one-cpu.jsonl wsj88 0 0.5

python -c "from repro.utils.fork import usable_cpus; print('usable CPUs:', usable_cpus())"
cat > digest.py <<'PY'
from repro.serving.bench import build_synthetic_federation
from tests.golden import index_digest

postings = held = 0
for name, server in build_synthetic_federation(8, 0.5, seed=0, profile="wsj88").items():
    index = server.index
    print(name, server.num_documents, index_digest(index))
    postings += index.postings_doc_indices.size
    held += index.postings_doc_indices.nbytes + index.postings_term_frequencies.nbytes
print(f"bytes per posting: {held / postings:.2f} ({postings} postings)")
PY
PYTHONPATH="$ROOT/src:$ROOT" python digest.py > forked.txt
PYTHONPATH="$ROOT/src:$ROOT" taskset -c 0 python digest.py > one-cpu.txt
cat forked.txt one-cpu.txt
test "$(grep -c '^db' forked.txt)" -eq 8
diff forked.txt one-cpu.txt
test -z "$(ls -A "$TMPDIR")"

# Exit 2, one line on stderr, no traceback, no file left behind.
usage_error() {
  local before status
  before="$(ls)"
  set +e
  python -m repro "$@" 2> usage.err
  status=$?
  set -e
  cat usage.err
  test "$status" -eq 2
  test "$(wc -l < usage.err)" -eq 1
  test "$(grep -c Traceback usage.err)" -eq 0
  rm usage.err
  test "$(ls)" = "$before"
}
usage_error generate --profile cacm --scale nan -o nan.jsonl
usage_error classify bench --scale 0 -o classify.json
usage_error classify bench --scale nan -o classify.json
usage_error scenarios bench --scale nan -o scenarios.json
usage_error experiments --scale -1
usage_error experiments --scale inf
echo "parallel build: golden corpora (forked and one-CPU), forked and one-CPU indexes equal," \
  "TMPDIR left empty," \
  "bad --scale exits 2"
