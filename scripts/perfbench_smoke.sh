#!/bin/sh
# Benchmark smoke: a short run of every perfbench workload must complete
# with every request answered and every answer equal to the oracle's.
# perfbench/run.py exits 0 even when its oracle finds a mismatch, so the
# verdict is read from the JSON result on its last stdout line.
#
# run.py needs 200 completed requests for a p95. cold_compute computes
# every request, so it gets 8 s: enough at ~60 req/s on a slow shared
# host. The other workloads answer far faster and get 3 s.
set -eu

cd "$(dirname "$0")/.."

fail() {
    echo "perfbench-smoke: FAIL: $1" >&2
    exit 1
}

for run in warm_hits:3 cold_compute:8 fleet_mix:3; do
    workload=${run%:*}
    OUT=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds "${run#*:}") ||
        fail "$workload: run.py exited non-zero"
    LAST=$(printf '%s\n' "$OUT" | tail -n 1)
    VERDICT=$(printf '%s' "$LAST" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print(("ok" if ok else "bad") + " correct=%s failed=%s attempted=%s"
      % (r.get("correct"), r.get("failed"), r.get("attempted")))
') || fail "$workload: last line is not a JSON result: $LAST"
    case "$VERDICT" in
    ok*) echo "perfbench-smoke: $workload ${VERDICT#ok }" ;;
    *) fail "$workload ${VERDICT#bad }" ;;
    esac
done
echo "perfbench-smoke: OK"
