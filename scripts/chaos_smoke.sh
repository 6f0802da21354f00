#!/bin/sh
# Chaos smoke for the serving layer: run the daemon with an armed fault
# plan (forced shedding, injected compute failures, truncated writes)
# and assert that (1) every fault surfaces as a structured protocol
# error, (2) the retrying client rides the transient faults out and
# eventually gets the real answer, (3) a deadline-bounded request is
# answered with deadline_exceeded, and (4) the daemon shuts down
# gracefully afterwards — it never dies to an injected fault or a
# vanished peer. (5) A router drains like a backend: a request in
# flight through it when it gets SIGTERM still answers ok.
set -eu

TOOL=${TOOL:-./_build/default/bin/nbti_tool.exe}
SOCK=$(mktemp -u /tmp/nbti_chaos.XXXXXX.sock)

fail() {
    echo "chaos-smoke: FAIL: $1" >&2
    exit 1
}

[ -x "$TOOL" ] || fail "$TOOL not built (run dune build first)"

# Two forced sheds, one injected compute failure, one truncated write,
# plus a 150 ms compute delay that the deadline test below overshoots.
FAULTS='admission=shed@2,compute=fail@1,write=truncate@1,compute=delay:150'

"$TOOL" serve -s "$SOCK" --faults "$FAULTS" --max-pending 8 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$SOCK"' EXIT

i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "server did not open $SOCK"
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited early"
    sleep 0.1
done

# 1. First request: shed, and its error response is truncated mid-write
#    (write=truncate@1). The client must fail cleanly; the daemon must
#    not die.
"$TOOL" request -s "$SOCK" '{"v":1,"op":"analyze","circuit":"c17"}' >/dev/null 2>&1 \
    && fail "first request should have failed (forced shed + truncated write)"
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died on a forced shed / truncated write"

# 2. Second request: the remaining shed, now written intact — a
#    structured overloaded error with a retry hint.
SHED=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"analyze","circuit":"c17"}' 2>/dev/null) \
    && fail "second request should have failed (forced shed)"
case "$SHED" in
*'"code":"overloaded"'*) ;; *) fail "expected a structured overloaded error, got: $SHED" ;;
esac
case "$SHED" in
*'"retry_after_ms"'*) ;; *) fail "overloaded error carries no retry_after_ms hint" ;;
esac

# 3. Third request: the injected worker failure must surface as a
#    structured internal_error, not kill anything.
INJ=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"analyze","circuit":"c17"}' 2>/dev/null) \
    && fail "third request should have failed (injected compute fault)"
case "$INJ" in
*'"code":"internal_error"'*'injected fault'*) ;; *) fail "expected an injected-fault error, got: $INJ" ;;
esac
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died on an injected compute fault"

# 4. With the one-shot faults drained, the client must now get the real
#    answer (the permanent 150 ms compute delay notwithstanding).
ANSWER=$("$TOOL" request -s "$SOCK" --retries 8 --retry-seed 7 \
    '{"v":1,"id":"chaos","op":"analyze","circuit":"c17"}' 2>/dev/null) \
    || fail "client did not get an answer once faults drained"
case "$ANSWER" in
*'"ok":true'*) ;; *) fail "response not ok after faults drained: $ANSWER" ;;
esac
case "$ANSWER" in
*'"id":"chaos"'*) ;; *) fail "id not echoed after retries" ;;
esac
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died under the fault plan"

# 4b. A second daemon armed with only transient faults: the retrying
#     client must ride out two forced sheds and a truncated write in a
#     single invocation and still land the answer.
SOCK2=$(mktemp -u /tmp/nbti_chaos.XXXXXX.sock)
"$TOOL" serve -s "$SOCK2" --faults 'admission=shed@2,write=truncate@1' &
SERVER2_PID=$!
trap 'kill "$SERVER_PID" "$SERVER2_PID" 2>/dev/null || true; rm -f "$SOCK" "$SOCK2"' EXIT
i=0
while [ ! -S "$SOCK2" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "second server did not open $SOCK2"
    sleep 0.1
done
RETRIED=$("$TOOL" request -s "$SOCK2" --retries 8 --retry-seed 7 \
    '{"v":1,"id":"ride","op":"analyze","circuit":"c17"}' 2>/dev/null) \
    || fail "retrying client did not survive shed+shed+truncate"
case "$RETRIED" in
*'"ok":true'*'"id":"ride"'* | *'"id":"ride"'*'"ok":true'*) ;; *) fail "retried response not ok: $RETRIED" ;;
esac
kill -TERM "$SERVER2_PID"
wait "$SERVER2_PID" || fail "second server exited non-zero"

# 5. A deadline-bounded request overshot by the remaining compute delay
#    must come back as deadline_exceeded, quickly, not hang.
DEADLINE=$("$TOOL" request -s "$SOCK" --timeout-ms 50 \
    '{"v":1,"op":"ivc_search","circuit":"c432","seed":1}' 2>/dev/null) \
    && fail "deadline-bounded request should have failed"
case "$DEADLINE" in
*'"code":"deadline_exceeded"'*) ;; *) fail "expected deadline_exceeded, got: $DEADLINE" ;;
esac

# 6. A peer that sends garbage and a half line, then vanishes, must not
#    take the daemon down.
{ printf 'not json at all\n{"v":1,"op":'; } | "$TOOL" request -s "$SOCK" - >/dev/null 2>&1 || true
sleep 0.3
kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died on a misbehaving peer"

# 7. Stats must still answer and report the chaos that just happened.
STATS=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"stats"}')
case "$STATS" in
*'"shed":'*) ;; *) fail "stats missing shed counter" ;;
esac
case "$STATS" in
*'"injected_failures":'*) ;; *) fail "stats missing injected failure counter" ;;
esac
case "$STATS" in
*'"faults":'*) ;; *) fail "stats missing fault plan" ;;
esac

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero"
[ ! -S "$SOCK" ] || fail "socket file not cleaned up"

# 8. SIGTERM drains a router too: a request still computing behind it
#    (one 1.5 s compute delay on its backend) must answer ok, and the
#    router must exit cleanly once it has.
SOCK3=$(mktemp -u /tmp/nbti_chaos.XXXXXX.sock)
RSOCK=$(mktemp -u /tmp/nbti_chaos.XXXXXX.sock)
"$TOOL" serve -s "$SOCK3" --faults 'compute=delay:1500@1' --log-level error &
SERVER3_PID=$!
trap 'kill "$SERVER_PID" "$SERVER2_PID" "$SERVER3_PID" "${ROUTER_PID:-}" 2>/dev/null || true; rm -f "$SOCK" "$SOCK2" "$SOCK3" "$RSOCK"' EXIT
"$TOOL" route -s "$RSOCK" -b "$SOCK3" --log-level error > /dev/null &
ROUTER_PID=$!
i=0
while [ ! -S "$SOCK3" ] || [ ! -S "$RSOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "router or its backend did not open a socket"
    sleep 0.1
done
INFLIGHT=$(mktemp /tmp/nbti_chaos.XXXXXX.out)
"$TOOL" request -s "$RSOCK" '{"v":1,"id":"inflight","op":"analyze","circuit":"c17"}' \
    > "$INFLIGHT" 2>&1 &
CLIENT_PID=$!
sleep 0.4
kill -TERM "$ROUTER_PID"
wait "$CLIENT_PID" || fail "in-flight request failed when the router was drained: $(cat "$INFLIGHT")"
grep -q '"ok":true' "$INFLIGHT" || fail "in-flight request not answered ok: $(cat "$INFLIGHT")"
rm -f "$INFLIGHT"
wait "$ROUTER_PID" || fail "router exited non-zero on SIGTERM drain"
[ ! -S "$RSOCK" ] || fail "router socket file not cleaned up"
kill -TERM "$SERVER3_PID"
wait "$SERVER3_PID" || fail "router's backend exited non-zero"

echo "chaos-smoke: OK (structured faults + retrying client + deadline + graceful shutdown + router drain)"
