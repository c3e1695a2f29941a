#!/usr/bin/env bash
# Forked acquisition through the real CLI: `repro federate --save-models`
# learns four corpora's models three times — plainly (the pool's initial
# shares forked across every usable CPU), pinned to one CPU with
# `taskset -c 0`, and with `--trace` (both serial).  Every stored model
# file must be byte-equal across the three stores, and each store must
# verify.  The forked store, loaded (every model a column view of its
# file) and saved into a fresh store, must give every file back byte for
# byte.  The fourth corpus holds fewer documents than its share, so the
# forked run finishes serially: the shares are taken up again and the
# shortfall is spread over the other databases.
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro generate --profile cacm --scale 0.04 --seed 9 -o a.jsonl
python -m repro generate --profile wsj88 --scale 0.04 --seed 5 -o b.jsonl
python -m repro generate --profile cacm --scale 0.03 --seed 2 -o c.jsonl
python -m repro generate --profile cacm --scale 0.006 --seed 7 -o d-full.jsonl
head -n 20 d-full.jsonl > d.jsonl  # profiles generate at least 50 documents
python -c "from repro.utils.fork import usable_cpus; print('usable CPUs:', usable_cpus())"
# A frequent word of a.jsonl, so that the query has results and federate exits 0.
QUERY=$(python - <<'PY'
import collections, json
words = collections.Counter(
    word for line in open("a.jsonl") for word in json.loads(line)["text"].split()
    if len(word) > 3 and word.isalpha()
)
print(words.most_common(1)[0][0])
PY
)
FEDERATE=(python -m repro federate a.jsonl b.jsonl c.jsonl d.jsonl --query "$QUERY"
  --sample-docs 50 --seed 4)
"${FEDERATE[@]}" --save-models forked
taskset -c 0 "${FEDERATE[@]}" --save-models one-cpu
"${FEDERATE[@]}" --save-models traced --trace trace.jsonl
grep -q '"name": "pool_run"' trace.jsonl
for store in forked one-cpu traced; do
  python -m repro store "$store" --verify
done
(cd forked && find shards -name '*.lm' | sort) > models.txt
test "$(wc -l < models.txt)" -eq 4
# From the stored model headers: d fell short of its 50, the budget did not.
python - <<'PY'
import glob

seen = {}
for path in glob.glob("forked/shards/*/models/*.lm"):
    with open(path, "rb") as model:
        header = dict(field.split("=", 1) for field in model.readline().decode().split()[1:])
    seen[header["name"]] = int(header["documents_seen"])
print("documents per model:", seen)
assert seen["d-learned"] < 50 and sum(seen.values()) == 200, seen
PY
for store in one-cpu traced; do
  (cd "$store" && find shards -name '*.lm' | sort) | diff models.txt -
  while read -r model; do
    cmp "forked/$model" "$store/$model"
  done < models.txt
done
python - <<'PY'
from repro.store.sharded import ShardedModelStore

source = ShardedModelStore("forked")
ShardedModelStore("resaved", source.num_shards).save(
    source.load(), model_epoch=source.model_epoch()
)
PY
(cd resaved && find shards -name '*.lm' | sort) | diff models.txt -
while read -r model; do
  cmp "forked/$model" "resaved/$model"
done < models.txt
echo "parallel acquire: forked, one-CPU, traced and re-saved models byte-equal"
