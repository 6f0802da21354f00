#!/bin/sh
# Compares two revisions on one serving-benchmark workload:
#
#   scripts/bench_compare.sh PARENT CHANGE WORKLOAD SEED PAIRS
#
# PARENT and CHANGE are git revisions of this repository. To measure
# uncommitted work, stage it and pass `$(git stash create)` as CHANGE.
# Each revision is unpacked with `git archive` into its own temporary
# directory and built there once. Then PAIRS pairs of runs of that
# checkout's own `perfbench/run.py --workload WORKLOAD --seed SEED
# --seconds N` alternate between the two (N is BENCHMARK.json's
# run_seconds); the pair order flips every pair so slow drift of the
# host falls on both sides alike.
#
# Prints, for every end-to-end metric BENCHMARK.json names, a markdown
# row: median [quartiles] of each side, change / parent of the medians,
# and the pairs the change won (strictly better, in the metric's
# direction), then one line per run with its end-to-end metrics, then
# whether every run reported "correct": true and "failed": 0. The
# per-run JSON results (parent.N.json, change.N.json) and run logs stay
# in the printed directory; the two checkouts are removed once every
# run was correct, and kept with everything else when one was not.
set -eu

if [ $# -ne 5 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD SEED PAIRS" >&2
    exit 2
fi
PARENT=$1 CHANGE=$2 WORKLOAD=$3 SEED=$4 PAIRS=$5

ROOT=$(git rev-parse --show-toplevel)
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")
SECONDS_PER_RUN=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$ROOT/BENCHMARK.json")

for side in parent change; do
    if [ "$side" = parent ]; then rev=$PARENT; else rev=$CHANGE; fi
    mkdir -p "$WORK/$side"
    git -C "$ROOT" archive "$rev" | tar -x -C "$WORK/$side"
    echo "bench_compare: building $side ($rev)" >&2
    (cd "$WORK/$side" && dune build --root . --display quiet ./bin/nbti_tool.exe ./perfbench/perfbench.exe)
done

run() { # side pair
    echo "bench_compare: pair $2/$PAIRS, $1" >&2
    out=$(cd "$WORK/$1" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" 2>>"$WORK/$1.log") || {
        echo "bench_compare: $1 run $2 failed; logs in $WORK" >&2
        exit 1
    }
    printf '%s\n' "$out" | tail -n 1 >"$WORK/$1.$2.json"
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    if [ $((i % 2)) -eq 1 ]; then run parent "$i"; run change "$i"; else run change "$i"; run parent "$i"; fi
    i=$((i + 1))
done

python3 - "$ROOT/BENCHMARK.json" "$WORK" "$PAIRS" "$WORKLOAD" <<'EOF'
import json, statistics, sys

bench, work, pairs, workload = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
metrics = json.load(open(bench))["end_to_end"]
runs = {side: [json.load(open(f"{work}/{side}.{i}.json")) for i in range(1, pairs + 1)]
        for side in ("parent", "change")}

def num(x):  # four significant digits, without an exponent from 10^4 up
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"

def spread(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q2, f"{num(q2)} [{num(q1)}, {num(q3)}]"

print("| workload | metric | parent median [quartiles] | change median [quartiles] "
      "| change / parent | pairs the change won |")
print("|---|---|---|---|---|---|")
for m in metrics:
    name, higher = m["name"], m["better"] == "higher"
    value = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
    won = sum((c > p) if higher else (c < p) for p, c in zip(value["parent"], value["change"]))
    (pm, ptext), (cm, ctext) = spread(value["parent"]), spread(value["change"])
    print(f"| {workload} | {name} | {ptext} | {ctext} | {cm / pm:.3g} | {won}/{pairs} |")
print()
for i in range(pairs):
    for side in ("parent", "change"):
        r = runs[side][i]
        values = " ".join(f"{m['name']}={num(r['metrics'][m['name']]['value'])}" for m in metrics)
        print(f"{side} run {i + 1}: {values} correct={r.get('correct')} failed={r.get('failed')}")
bad = [f"{side} {i + 1}" for side in runs for i, r in enumerate(runs[side])
       if not (r.get("correct") is True and r.get("failed") == 0)]
print(f"\nall {2 * pairs} runs correct with 0 failed" if not bad
      else f"\nruns not correct or with failures: {', '.join(bad)}")
sys.exit(1 if bad else 0)
EOF
rm -rf "$WORK/parent" "$WORK/change"
echo "bench_compare: per-run results in $WORK" >&2
