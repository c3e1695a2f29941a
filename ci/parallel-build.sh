#!/usr/bin/env bash
# Corpus generation and the forked federation build, byte for byte:
# `repro generate` must reproduce the committed corpus digests of
# tests/golden.py for every profile; the benchmark's federation (8
# databases of wsj88 at scale 0.5, large enough to fork) is built plainly
# (indexes on every usable CPU) and pinned to one CPU with `taskset -c 0`
# (serial), and every index's columns must digest the same; a NaN
# `--scale` is a one-line usage error (exit 2), not a traceback.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"
GOLDEN=(env PYTHONPATH="$ROOT/src:$ROOT" python -m tests.golden)

for case in "cacm 3 0.05" "wsj88 11 0.02" "trec123 3 0.005" "mssupport 11 0.02"; do
  read -r profile seed scale <<< "$case"
  python -m repro generate --profile "$profile" --seed "$seed" --scale "$scale" \
    -o "$profile.jsonl"
  "${GOLDEN[@]}" "$profile.jsonl" "$profile" "$seed" "$scale"
done

python -c "from repro.utils.fork import usable_cpus; print('usable CPUs:', usable_cpus())"
cat > digest.py <<'PY'
from repro.serving.bench import build_synthetic_federation
from tests.golden import index_digest

for name, server in build_synthetic_federation(8, 0.5, seed=0, profile="wsj88").items():
    print(name, server.num_documents, index_digest(server.index))
PY
PYTHONPATH="$ROOT/src:$ROOT" python digest.py > forked.txt
PYTHONPATH="$ROOT/src:$ROOT" taskset -c 0 python digest.py > one-cpu.txt
cat forked.txt
test "$(wc -l < forked.txt)" -eq 8
diff forked.txt one-cpu.txt

set +e
python -m repro generate --profile cacm --scale nan -o nan.jsonl 2> nan.err
status=$?
set -e
cat nan.err
test "$status" -eq 2
test "$(wc -l < nan.err)" -eq 1
! grep -q Traceback nan.err
test ! -e nan.jsonl
echo "parallel build: golden corpora, forked and one-CPU indexes equal, --scale nan exits 2"
