#!/usr/bin/env bash
# Every runnable example, end to end: each of examples/*.py must exit 0.
# Three of them print the paper's metrics (percentage learned, ctf
# ratio, Spearman, rdiff), so a metric that breaks fails here too.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

count=0
for example in "$ROOT"/examples/*.py; do
    python "$example" > "$(basename "$example" .py).out"
    count=$((count + 1))
done
test "$count" -eq 6
echo "examples smoke: $count examples exited 0"
