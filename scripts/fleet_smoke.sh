#!/bin/sh
# Fleet smoke: a router in front of three backend daemons, driven over
# real sockets. Asserts that (1) identical concurrent requests coalesce
# to one backend flight, (2) a batch keeps succeeding — zero failed
# requests — while one backend is SIGKILLed mid-stream, with the
# failover recorded, (3) the killed backend comes back, receives a
# warm-cache handoff, and then answers its keys from cache, and
# (4) every routed answer is byte-identical to a single-backend run
# (modulo the cached flag), and (4b) a backend SIGTERMed under routed
# traffic exits within 1 s with no request failing, and is routed to
# again once restarted on the same socket.
#
# Observability assertions ride the same fleet: the backends run with
# span rings and the router with --trace/--access-log/--slo, so the run
# also checks (5) metrics federation (cluster_metrics carries
# per-backend-labelled families, fleet-merged latency histograms, probe
# RTT gauges and SLO burn rates), (6) the router access log records
# backend / failover_count / coalesced per request, and (7) a client's
# trace id survives client -> router -> backend: at shutdown the router
# drains every backend's span ring into one merged Chrome trace, which
# `nbti_tool trace --merge` stitches with the client's own trace into a
# single validated timeline that still contains the failover hop.
set -eu

TOOL=${TOOL:-./_build/default/bin/nbti_tool.exe}
WORK=$(mktemp -d /tmp/nbti_fleet.XXXXXX)
B1="$WORK/b1.sock"
B2="$WORK/b2.sock"
B3="$WORK/b3.sock"
ROUTER="$WORK/router.sock"
SINGLE="$WORK/single.sock"

fail() {
    echo "fleet-smoke: FAIL: $1" >&2
    exit 1
}

[ -x "$TOOL" ] || fail "$TOOL not built (run dune build first)"

PIDS=""
cleanup() {
    for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

wait_sock() {
    i=0
    while [ ! -S "$1" ]; do
        i=$((i + 1))
        [ "$i" -gt 100 ] && fail "no listener appeared on $1"
        sleep 0.1
    done
}

start_backend() {
    "$TOOL" serve -s "$1" --trace-spans 4096 --log-level error &
    eval "$2=\$!"
    PIDS="$PIDS $!"
    wait_sock "$1"
}

start_backend "$B1" B1_PID
start_backend "$B2" B2_PID
start_backend "$B3" B3_PID

# Fast probes so the router notices the kill and the resurrection
# within a couple of seconds rather than the production cadence.
FLEET_TRACE="$WORK/fleet_trace.json"
ACCESS_LOG="$WORK/access.jsonl"
"$TOOL" route -s "$ROUTER" -b "$B1" -b "$B2" -b "$B3" \
    --probe-interval-ms 200 --probe-backoff-cap-ms 800 \
    --trace "$FLEET_TRACE" --access-log "$ACCESS_LOG" --slo "analyze=60s:99" \
    --log-level error &
ROUTER_PID=$!
PIDS="$PIDS $ROUTER_PID"
wait_sock "$ROUTER"

stat_counter() {
    # first "name":N occurrence in the router's stats response
    "$TOOL" request -s "$ROUTER" '{"v":1,"op":"stats"}' 2>/dev/null \
        | sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

# --- 1. singleflight: two identical concurrent requests, one compute ---
# A fresh key, slowed by an artificial 1.5 year horizon? No: slow it by
# asking for the larger c1355 so the leader's flight is open when the
# follower arrives.
COALESCE_REQ='{"v":1,"op":"analyze","circuit":"c1355","config":{"years":4.5}}'
"$TOOL" request -s "$ROUTER" "$COALESCE_REQ" > "$WORK/co1.out" 2>/dev/null &
CO1=$!
"$TOOL" request -s "$ROUTER" "$COALESCE_REQ" > "$WORK/co2.out" 2>/dev/null &
CO2=$!
wait "$CO1" || fail "first coalesced request failed"
wait "$CO2" || fail "second coalesced request failed"
cmp -s "$WORK/co1.out" "$WORK/co2.out" || fail "coalesced requests returned different bytes"
COALESCED=$(stat_counter coalesced)
[ "${COALESCED:-0}" -ge 1 ] || fail "no coalesced request recorded (got '${COALESCED:-}')"

# --- 2. batch with a mid-stream backend kill: zero failed requests ---
REQS="$WORK/reqs.jsonl"
: > "$REQS"
for y in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30; do
    echo "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"config\":{\"years\":$y}}" >> "$REQS"
done

PIPE="$WORK/pipe"
mkfifo "$PIPE"
"$TOOL" request -s "$ROUTER" - --retries 8 --retry-seed 11 \
    < "$PIPE" > "$WORK/batch.out" 2> "$WORK/batch.err" &
CLIENT_PID=$!
exec 3> "$PIPE"
head -n 15 "$REQS" >&3
# let the first half land, then crash a backend hard (no drain, no
# goodbye): its keys must fail over with no failed client request
sleep 1
kill -9 "$B2_PID"
tail -n 15 "$REQS" >&3
exec 3>&-
wait "$CLIENT_PID" || fail "batch client exited non-zero (a request failed despite failover)"
OK_COUNT=$(grep -c '"ok":true' "$WORK/batch.out" || true)
[ "$OK_COUNT" -eq 30 ] || fail "expected 30 ok responses, got $OK_COUNT"
grep -q '"ok":false' "$WORK/batch.out" && fail "batch contains a failed response"

# the router must have noticed: at least one failover, backend marked dead
FAILOVERS=$(stat_counter failovers)
[ "${FAILOVERS:-0}" -ge 1 ] || fail "no failover recorded (got '${FAILOVERS:-}')"

# --- 3. resurrection + warm-cache handoff ---
# The warm handoff only runs on a down -> recovering transition, so the
# probe loop must confirm the kill before the backend comes back: if the
# resurrection wins that race, the next probe flips suspect -> up and no
# handoff is owed. Wait for the router to report the backend down.
i=0
until "$TOOL" request -s "$ROUTER" '{"v":1,"op":"stats"}' 2>/dev/null \
        | grep -q '"state":"down"'; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "router never confirmed the killed backend down"
    sleep 0.1
done
"$TOOL" serve -s "$B2" --trace-spans 4096 --log-level error &
B2_PID=$!
PIDS="$PIDS $B2_PID"
wait_sock "$B2"
# wait for the router to probe it back up and run the handoff
i=0
while :; do
    HANDOFF_KEYS=$(stat_counter handoff_keys)
    [ "${HANDOFF_KEYS:-0}" -ge 1 ] && break
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "no warm-cache handoff after backend resurrection"
    sleep 0.1
done

# Every post-kill key is now cached at its owner: keys the resurrected
# backend owns were computed on its peers during failover and can only
# be warm on it via the handoff; the rest sit where they were computed.
# (Keys owned by the killed backend from BEFORE the kill died with its
# cache — that loss is expected, so only the post-kill half asserts.)
tail -n 15 "$REQS" > "$WORK/tail.jsonl"
"$TOOL" request -s "$ROUTER" - --retries 8 < "$WORK/tail.jsonl" > "$WORK/tailrun.out" 2>/dev/null \
    || fail "re-run through the healed fleet failed"
CACHED=$(grep -c '"cached":true' "$WORK/tailrun.out" || true)
[ "$CACHED" -eq 15 ] || fail "expected all 15 post-kill keys cached after handoff, got $CACHED"

# --- 3b. a traced client request joins the distributed trace ---
CLIENT_TRACE="$WORK/client_trace.json"
"$TOOL" request -s "$ROUTER" --trace "$CLIENT_TRACE" \
    '{"v":1,"op":"analyze","circuit":"c432"}' > "$WORK/traced.out" 2>/dev/null \
    || fail "traced client request failed"
grep -q '"ok":true' "$WORK/traced.out" || fail "traced request answered an error"
[ -s "$CLIENT_TRACE" ] || fail "client --trace wrote no file"
CLIENT_TID=$(sed -n 's/.*"trace_id":"\([0-9a-f]\{32\}\)".*/\1/p' "$CLIENT_TRACE" | head -n 1)
[ -n "$CLIENT_TID" ] || fail "client trace carries no trace_id"

# --- 3c. metrics federation + SLO burn rates via cluster_metrics ---
# let at least one post-traffic probe pass scrape the backends
sleep 0.5
"$TOOL" request -s "$ROUTER" '{"v":1,"op":"cluster_metrics"}' > "$WORK/cluster.json" 2>/dev/null \
    || fail "cluster_metrics request failed"
grep -q 'backend=' "$WORK/cluster.json" \
    || fail "cluster_metrics carries no per-backend-labelled families"
grep -q 'nbti_fleet_request_latency_seconds' "$WORK/cluster.json" \
    || fail "cluster_metrics carries no fleet-merged latency histogram"
grep -q 'nbti_fleet_probe_rtt_seconds' "$WORK/cluster.json" \
    || fail "cluster_metrics carries no probe RTT gauges"
grep -q 'nbti_slo_burn_rate' "$WORK/cluster.json" \
    || fail "cluster_metrics carries no SLO burn rates"

# probe RTT percentiles must also show up in the router's stats
"$TOOL" request -s "$ROUTER" '{"v":1,"op":"stats"}' > "$WORK/stats.json" 2>/dev/null \
    || fail "router stats request failed"
grep -q '"probe_rtt"' "$WORK/stats.json" || fail "router stats carry no probe_rtt block"
grep -q '"slo"' "$WORK/stats.json" || fail "router stats carry no slo block"

# --- 3d. access log: routing fields on every record ---
[ -s "$ACCESS_LOG" ] || fail "router wrote no access log"
grep -q '"backend":' "$ACCESS_LOG" || fail "access log has no backend field"
grep -q '"failover_count":' "$ACCESS_LOG" || fail "access log has no failover_count field"
grep -q '"coalesced":' "$ACCESS_LOG" || fail "access log has no coalesced field"
grep -q '"coalesced":true' "$ACCESS_LOG" || fail "access log never recorded a coalesced request"
awk '{ if ($0 !~ /"failover_count":/) exit 1 }' "$ACCESS_LOG" \
    || fail "an access-log record is missing failover_count"

# --- 4. byte-identity vs a single-backend run ---
"$TOOL" request -s "$ROUTER" - --retries 8 < "$REQS" > "$WORK/rerun.out" 2>/dev/null \
    || fail "full re-run through the healed fleet failed"
"$TOOL" serve -s "$SINGLE" --log-level error &
SINGLE_PID=$!
PIDS="$PIDS $SINGLE_PID"
wait_sock "$SINGLE"
"$TOOL" request -s "$SINGLE" - < "$REQS" > "$WORK/direct.out" 2>/dev/null \
    || fail "single-backend reference run failed"
sed 's/,"cached":true//g; s/,"cached":false//g' "$WORK/rerun.out" > "$WORK/rerun.norm"
sed 's/,"cached":true//g; s/,"cached":false//g' "$WORK/direct.out" > "$WORK/direct.norm"
cmp -s "$WORK/rerun.norm" "$WORK/direct.norm" \
    || fail "routed answers differ from the single-backend run"

# --- 4b. rolling restart under routed traffic ---
# With requests flowing through the router, SIGTERM one backend. A
# drain waits only for requests in flight, not for idle connections
# such as the ones the router keeps open, so the backend exits well
# inside its 5 s drain bound; no request may fail (no client retries).
# Then restart it on the same socket: the router must route to it
# again.
analyze_requests() {
    # the backend's own endpoints.analyze.requests (endpoints are sorted,
    # so analyze comes first once it has been requested)
    "$TOOL" request -s "$1" '{"v":1,"op":"stats"}' 2>/dev/null \
        | sed -n 's/.*"endpoints":{"analyze":{"requests":\([0-9]*\).*/\1/p'
}
# An idle connection to the backend, like the ones the router keeps:
# one answered request, then silence until after the restart.
IDLE="$WORK/idle"
mkfifo "$IDLE"
"$TOOL" request -s "$B1" - < "$IDLE" > "$WORK/idle.out" 2>&1 &
IDLE_PID=$!
exec 4> "$IDLE"
echo '{"v":1,"op":"health"}' >&4
i=0
until grep -q '"ok":true' "$WORK/idle.out" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "the idle client got no answer"
    sleep 0.05
done
ROLL_N=300
(
    i=1
    while [ "$i" -le "$ROLL_N" ]; do
        echo "{\"v\":1,\"op\":\"analyze\",\"circuit\":\"c17\",\"config\":{\"years\":$((i % 40 + 40)).5}}"
        i=$((i + 1))
        sleep 0.005
    done
) | "$TOOL" request -s "$ROUTER" - > "$WORK/roll.out" 2> "$WORK/roll.err" &
ROLL_PID=$!
sleep 0.5
T0=$(date +%s%N)
kill -TERM "$B1_PID"
wait "$B1_PID" || fail "the SIGTERMed backend exited non-zero"
DRAIN_MS=$(( ($(date +%s%N) - T0) / 1000000 ))
[ "$DRAIN_MS" -lt 1000 ] \
    || fail "the SIGTERMed backend took $DRAIN_MS ms to exit (its drain waited on idle connections?)"
wait "$ROLL_PID" || fail "a request failed during the rolling restart: $(grep -m1 '"ok":false' "$WORK/roll.out")"
exec 4>&-
wait "$IDLE_PID" || true
ROLL_OK=$(grep -c '"ok":true' "$WORK/roll.out" || true)
[ "$ROLL_OK" -eq "$ROLL_N" ] || fail "expected $ROLL_N ok responses across the restart, got $ROLL_OK"
"$TOOL" serve -s "$B1" --trace-spans 4096 --log-level error &
B1_PID=$!
PIDS="$PIDS $B1_PID"
wait_sock "$B1"
i=0
until [ "$(analyze_requests "$B1")" -gt 0 ] 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && fail "the router never routed to the restarted backend"
    "$TOOL" request -s "$ROUTER" - < "$REQS" > /dev/null 2>&1 \
        || fail "routed requests failed after the restart"
    sleep 0.1
done
ROLL_CONNECTS=$(stat_counter backend_connects)
ROLL_ATTEMPTS=$(stat_counter forward_attempts)

# --- 5. graceful shutdown end to end ---
# The router stops first: its shutdown drains every backend's span ring
# (the backends are still serving) and writes the merged fleet trace.
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || fail "router exited non-zero"
[ -s "$FLEET_TRACE" ] || fail "router wrote no merged fleet trace at shutdown"
for pid in "$B1_PID" "$B2_PID" "$B3_PID" "$SINGLE_PID"; do
    kill -TERM "$pid"
    wait "$pid" || fail "a backend exited non-zero on SIGTERM drain"
done

# --- 6. one flame graph of the whole fleet ---
# Stitch the client's own trace onto the router+backends merge and
# validate the result; the client's trace id must appear on the fleet
# side (propagated client -> router -> backend), and the mid-batch kill
# must be visible as a failover hop (a forward attempt beyond the
# first owner).
grep -q "$CLIENT_TID" "$FLEET_TRACE" \
    || fail "client trace id $CLIENT_TID did not propagate into the fleet trace"
grep -q 'fleet.forward' "$FLEET_TRACE" || fail "no forward spans in the fleet trace"
grep -q '"attempt":1' "$FLEET_TRACE" \
    || fail "no failover hop (attempt > 0) recorded in the fleet trace"
MERGED="$WORK/request_flame.json"
"$TOOL" trace --merge "$MERGED" "$CLIENT_TRACE" "$FLEET_TRACE" > "$WORK/merge.out" 2>&1 \
    || fail "trace --merge failed: $(cat "$WORK/merge.out")"
"$TOOL" trace "$MERGED" > "$WORK/validate.out" 2>&1 \
    || fail "merged trace does not validate: $(cat "$WORK/validate.out")"
grep -q 'client' "$WORK/validate.out" || fail "merged trace lost the client process lane"
grep -q 'router' "$WORK/validate.out" || fail "merged trace lost the router process lane"

echo "fleet-smoke: OK (coalesced=$COALESCED failovers=$FAILOVERS handoff_keys=$HANDOFF_KEYS; 30/30 ok through a mid-batch kill; byte-identical to single backend; $ROLL_N/$ROLL_N ok through a rolling restart, drain ${DRAIN_MS} ms, backend_connects=$ROLL_CONNECTS of forward_attempts=$ROLL_ATTEMPTS; merged trace + federation + SLO asserted)"
