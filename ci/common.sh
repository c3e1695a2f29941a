# Sourced by every ci/<leg>.sh: run from any directory, against this
# checkout's source, in a scratch directory that is removed on exit.
# `bash ci/<leg>.sh DIR` works in DIR instead and keeps it (CI names one
# to upload a report the leg wrote).  Whatever a leg left running in the
# background is stopped on exit, pass or fail.
set -euxo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
KEEP="${1:-}"
WORK="${KEEP:-$(mktemp -d)}"
mkdir -p "$WORK"
cd "$WORK"
trap 'kill $(jobs -p) 2>/dev/null || true; [ -n "$KEEP" ] || rm -rf "$WORK"' EXIT
