#!/bin/sh
# Smoke test for the aging-analysis daemon: serve + request over a Unix
# socket, assert a well-formed analyze response and working stats; and
# that out-of-domain field values and a netlist with nothing to time are
# refused on the wire and the CLI.
set -eu

TOOL=${TOOL:-./_build/default/bin/nbti_tool.exe}
SOCK=$(mktemp -u /tmp/nbti_smoke.XXXXXX.sock)

fail() {
    echo "smoke: FAIL: $1" >&2
    exit 1
}

[ -x "$TOOL" ] || fail "$TOOL not built (run dune build first)"

# A netlist where no primary output is a gate has nothing to time: a
# timing subcommand refuses it like an unreadable CIRCUIT (exit 124), and
# the wire answers invalid_request (checked once the server is up).
GATELESS=$(mktemp /tmp/nbti_smoke.XXXXXX.bench)
trap 'rm -f "$GATELESS"' EXIT
printf 'INPUT(a)\nOUTPUT(a)\n' >"$GATELESS"
set +e
ERR=$("$TOOL" analyze "$GATELESS" 2>&1 >/dev/null)
CODE=$?
set -e
[ "$CODE" -eq 124 ] || fail "nbti_tool analyze on a gateless netlist exited $CODE, want 124"
case "$ERR" in
*"no primary output"*) ;; *) fail "gateless netlist refused without naming why: $ERR" ;;
esac

# A flag value outside its field's domain is a usage error (exit 124)
# naming the flag.
usage_error() {
    flag=$1
    shift
    set +e
    ERR=$("$TOOL" "$@" 2>&1 >/dev/null)
    CODE=$?
    set -e
    [ "$CODE" -eq 124 ] || fail "nbti_tool $* exited $CODE, want 124"
    case "$ERR" in
    *"'$flag'"*) ;; *) fail "nbti_tool $* did not name $flag: $ERR" ;;
    esac
}
usage_error --t-active analyze c17 --t-active=-5
usage_error --years analyze c17 --years 0
usage_error --pool ivc c17 --pool 1
usage_error --beta st c17 --beta 1.5

"$TOOL" serve -s "$SOCK" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$SOCK" "$GATELESS"' EXIT

# wait for the socket to appear (up to ~5 s)
i=0
while [ ! -S "$SOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 50 ] && fail "server did not open $SOCK"
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited early"
    sleep 0.1
done

RESPONSE=$("$TOOL" request -s "$SOCK" '{"v":1,"id":"smoke","op":"analyze","circuit":"c17"}')
echo "smoke: response: $RESPONSE"
case "$RESPONSE" in
*'"ok":true'*) ;; *) fail "analyze response not ok" ;;
esac
case "$RESPONSE" in
*'"id":"smoke"'*) ;; *) fail "id not echoed" ;;
esac
case "$RESPONSE" in
*'"aged_delay_s":'*) ;; *) fail "no aged delay in response" ;;
esac
case "$RESPONSE" in
*'"n_gates":6'*) ;; *) fail "c17 gate count missing" ;;
esac

# a repeat must be served from the cache
REPEAT=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"analyze","circuit":"c17"}')
case "$REPEAT" in
*'"cached":true'*) ;; *) fail "repeated request was not cached" ;;
esac

# the same domains on the wire: invalid_request naming the field
BAD=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"analyze","circuit":"c17","config":{"years":0}}' || true)
case "$BAD" in
*'"code":"invalid_request"'*'"field":"config.years"'*) ;; *) fail "years 0 not refused: $BAD" ;;
esac

GATELESS_REQ=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"analyze","circuit":{"bench":"INPUT(a)\nOUTPUT(a)\n"}}' || true)
case "$GATELESS_REQ" in
*'"code":"invalid_request"'*'no primary output'*) ;; *) fail "gateless bench not refused: $GATELESS_REQ" ;;
esac

STATS=$("$TOOL" request -s "$SOCK" '{"v":1,"op":"stats"}')
case "$STATS" in
*'"endpoints"'*'"analyze"'*) ;; *) fail "stats missing analyze endpoint" ;;
esac
case "$STATS" in
*'"hit_rate"'*) ;; *) fail "stats missing cache hit rate" ;;
esac

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "server exited non-zero"
[ ! -S "$SOCK" ] || fail "socket file not cleaned up"

echo "smoke: OK (CLI domains + serve + analyze + cache hit + wire domains + gateless netlist + stats + graceful shutdown)"
