#!/usr/bin/env bash
# A second SIGTERM during a drain must end lemonsd at once. One request
# is left half-sent, so the drain alone would wait out the 8 s socket
# timeout; two signals 0.3 s apart must make the daemon exit, with a
# non-zero status and a log line, within 1 s of the second.
#
# Usage: verify_lemonsd_double_signal.sh <lemonsd binary> <work dir>

set -u
lemonsd=$1
work=$2
mkdir -p "$work"
rm -f "$work/port" "$work/log"

fail() {
    echo "FAIL: $*" >&2
    echo "--- lemonsd log ---" >&2
    cat "$work/log" >&2
    kill -KILL "$pid" 2>/dev/null
    exit 1
}

"$lemonsd" --port 0 --port-file "$work/port" --socket-timeout-ms 8000 \
    > "$work/log" 2>&1 &
pid=$!
for _ in $(seq 1 100); do
    [ -s "$work/port" ] && break
    sleep 0.05
done
[ -s "$work/port" ] || fail "lemonsd did not report its port"
port=$(cat "$work/port")

# Headers promise a 64-byte body; send four bytes of it and stall.
exec 3<>"/dev/tcp/127.0.0.1/$port" || fail "cannot connect to port $port"
printf 'POST /v1/lint HTTP/1.1\r\nHost: localhost\r\nContent-Length: 64\r\n\r\n{"sp' >&3
sleep 0.2

kill -TERM "$pid"
sleep 0.3
kill -TERM "$pid"
start=$(date +%s%N)
# Backstop: a daemon still alive after 5 s is killed, and then fails
# the elapsed-time check below.
( sleep 5; kill -KILL "$pid" ) > /dev/null 2>&1 &
backstop=$!
wait "$pid"
status=$?
elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
kill "$backstop" 2>/dev/null
exec 3>&-

[ "$elapsed_ms" -le 1000 ] || fail "exit took ${elapsed_ms} ms after the second signal"
[ "$status" -ne 0 ] || fail "exit status 0 after an abandoned drain"
grep -q 'second signal' "$work/log" || fail "no second-signal log line"
echo "lemonsd exited with status $status ${elapsed_ms} ms after the second signal"
