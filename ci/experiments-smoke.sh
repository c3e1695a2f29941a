#!/usr/bin/env bash
# The paper's figures and tables through the real CLI: run every
# experiment at small scale serially and across two worker processes,
# and require both runs to exit 0 and print byte-identical stdout
# (trials fanned across processes must not change a single digit).
source "$(dirname "${BASH_SOURCE[0]}")/common.sh"

python -m repro experiments --scale 0.05 --seeds 0 --workers 1 > serial.out
python -m repro experiments --scale 0.05 --seeds 0 --workers 2 > forked.out
test -s serial.out
cmp serial.out forked.out
echo "experiments smoke: $(wc -l < serial.out) lines, serial and forked identical"
