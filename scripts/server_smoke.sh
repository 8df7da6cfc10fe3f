#!/usr/bin/env bash
# Server smoke test: first checks that both binaries refuse a malformed
# setting at boot (exit 2, the setting named), then boots astql-server on a
# Unix-domain socket and drives the whole client path against it — every
# example script, a typed-error
# round trip (bad SQL must yield a structured error AND a non-zero client
# exit without killing the connection for the next request), a check
# that the server.* metrics actually counted the traffic, and a reply past
# the client's line cap (a typed error and exit 1, after which the server
# still answers). Run from anywhere;
# it cd's to the repo root. CI runs it in the server-smoke job next to the
# PERF8 serving gate (ASTRW_SMOKE=1 bench run).
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/astql.exe bin/astql_server.exe

SOCK=$(mktemp -u "${TMPDIR:-/tmp}/astql-smoke-XXXXXX.sock")
METRICS=$(mktemp "${TMPDIR:-/tmp}/astql-smoke-metrics-XXXXXX.json")
ERRTXT=$(mktemp "${TMPDIR:-/tmp}/astql-smoke-err-XXXXXX.txt")
ONESQL=$(mktemp "${TMPDIR:-/tmp}/astql-smoke-one-XXXXXX.sql")
ASTQL=./_build/default/bin/astql.exe
SERVER=./_build/default/bin/astql_server.exe

DURDIR=$(mktemp -d "${TMPDIR:-/tmp}/astql-smoke-dur-XXXXXX")

SERVER_PID=
cleanup() {
  if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -f "$SOCK" "$METRICS" "$ERRTXT" "$ONESQL"
  rm -rf "$DURDIR"
}
trap cleanup EXIT

# [expect_rejected NAME CMD...]: CMD must exit 2 before serving or running
# anything, with a message naming NAME.
expect_rejected() {
  local name=$1 code=0
  shift
  "$@" >"$ERRTXT" 2>&1 || code=$?
  if [ "$code" -ne 2 ] || ! grep -q -- "$name" "$ERRTXT"; then
    echo "FAIL: expected exit 2 naming $name from: $*  (exit $code)"
    cat "$ERRTXT"
    exit 1
  fi
}

echo "== malformed settings are rejected at boot =="
echo 'SELECT 1;' >"$ONESQL"
for run in "$ASTQL run" "$SERVER --addr $SOCK"; do
  # $run is split on purpose: a binary, then its subcommand or flags
  # shellcheck disable=SC2086
  expect_rejected ASTQL_VALIDATE env ASTQL_VALIDATE=7 $run "$ONESQL"
  # shellcheck disable=SC2086
  expect_rejected ASTQL_FSYNC env ASTQL_FSYNC=banana $run \
    --durability "$DURDIR" "$ONESQL"
  # shellcheck disable=SC2086
  expect_rejected --exec $run --exec row "$ONESQL"
done
[ ! -e "$SOCK" ] || { echo "FAIL: a rejected server bound its socket"; exit 1; }
[ -z "$(ls -A "$DURDIR")" ] || { echo "FAIL: a rejected boot wrote $DURDIR"; exit 1; }

./_build/default/bin/astql_server.exe \
  --addr "$SOCK" --domains 2 --queue-depth 16 --metrics-out "$METRICS" &
SERVER_PID=$!

# no sleep-polling for the socket: the client retries connection
# establishment with bounded exponential backoff while the server boots
echo "== example scripts through the client =="
first=--retry=10
for f in examples/*.sql; do
  echo "--- $f"
  ./_build/default/bin/astql.exe connect $first "$SOCK" "$f"
  first=
done

echo "== typed-error round trip =="
if ./_build/default/bin/astql.exe connect "$SOCK" \
     -e 'SELECT no_such_column FROM sales GROUP BY no_such_column;' \
     >"$ERRTXT" 2>&1; then
  echo "FAIL: bad SQL should exit non-zero"
  cat "$ERRTXT"
  exit 1
fi
grep -q 'session_error' "$ERRTXT" || {
  echo "FAIL: expected a structured session_error, got:"
  cat "$ERRTXT"
  exit 1
}

# the same server must still answer after shedding the failed statement
./_build/default/bin/astql.exe connect "$SOCK" \
  -e 'SELECT region, SUM(qty) AS q FROM sales GROUP BY region ORDER BY region;'

echo "== clean shutdown + metrics =="
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

grep -q '"server.requests"' "$METRICS" || {
  echo "FAIL: server.requests missing from metrics dump"; exit 1;
}
grep -q '"server.connections"' "$METRICS" || {
  echo "FAIL: server.connections missing from metrics dump"; exit 1;
}

echo "== oversize reply: a typed error, and the server keeps serving =="
./_build/default/bin/astql_server.exe --addr "$SOCK" --domains 2 --demo --scale 3 &
SERVER_PID=$!

code=0
./_build/default/bin/astql.exe connect --retry 20 "$SOCK" \
  -e 'SELECT * FROM Trans;' >"$ERRTXT" 2>&1 || code=$?
if [ "$code" -ne 1 ] || ! grep -q 'connection error: oversize response line' "$ERRTXT"; then
  echo "FAIL: expected exit 1 with an oversize-reply error (exit $code)"
  head -c 2000 "$ERRTXT"
  exit 1
fi
./_build/default/bin/astql.exe connect "$SOCK" -e 'SELECT COUNT(*) FROM Trans;'

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: demo server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

echo "== durability: drain on SIGTERM, final checkpoint, recovery =="
./_build/default/bin/astql_server.exe \
  --addr "$SOCK" --domains 2 --durability "$DURDIR" --drain-ms 2000 &
SERVER_PID=$!

./_build/default/bin/astql.exe connect --retry 10 "$SOCK" \
  -e 'CREATE TABLE d (a INT NOT NULL); INSERT INTO d VALUES (1), (2), (3);'

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: durable server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

ls "$DURDIR"/ckpt-*.json >/dev/null 2>&1 || {
  echo "FAIL: no final checkpoint written on SIGTERM"; exit 1;
}

./_build/default/bin/astql_server.exe \
  --addr "$SOCK" --domains 2 --durability "$DURDIR" &
SERVER_PID=$!

./_build/default/bin/astql.exe connect --retry 10 "$SOCK" \
  -e 'SELECT COUNT(*) AS n FROM d;' | grep -q '| 3 ' || {
  echo "FAIL: rebooted server lost committed writes"; exit 1;
}

kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: server exited non-zero on SIGTERM"; exit 1; }
SERVER_PID=

echo "server smoke OK"
