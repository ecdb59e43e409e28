#!/usr/bin/env bash
# End-to-end smoke of the mrpf_serve daemon binary: start it on a unix
# socket, run one client request per scheme (plus ping and stats), then
# SIGTERM it and require a clean drain with the cache persisted.
#
# Usage: serve_smoke.sh /path/to/mrpf_serve
set -u

SERVE="${1:?usage: serve_smoke.sh /path/to/mrpf_serve}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/mrpf_serve_smoke.XXXXXX")"
SOCK="$WORK/d.sock"
CACHE="$WORK/d.mrpc"
LOG="$WORK/daemon.log"
trap 'kill "$PID" 2>/dev/null; rm -rf "$WORK"' EXIT

"$SERVE" --unix "$SOCK" --cache "$CACHE" --workers 2 >"$LOG" 2>&1 &
PID=$!

# Wait (bounded) for the listener to come up.
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  kill -0 "$PID" 2>/dev/null || { echo "daemon died at startup:"; cat "$LOG"; exit 1; }
  sleep 0.05
done
[ -S "$SOCK" ] || { echo "socket never appeared"; cat "$LOG"; exit 1; }

fail=0
"$SERVE" --client --unix "$SOCK" --ping || fail=1
for scheme in simple cse diff-mst rag-n mrpf mrpf+cse bnb; do
  if ! "$SERVE" --client --unix "$SOCK" \
       --coeffs 7,66,17,9,27,41,57,11 --scheme "$scheme"; then
    echo "scheme $scheme failed"
    fail=1
  fi
done
"$SERVE" --client --unix "$SOCK" --stats || fail=1

# Graceful drain: SIGTERM, bounded wait, then the daemon must have exited
# zero, reported the drain, and persisted a non-empty cache store.
kill -TERM "$PID"
status=124
for _ in $(seq 1 200); do
  if ! kill -0 "$PID" 2>/dev/null; then
    wait "$PID"
    status=$?
    break
  fi
  sleep 0.05
done
if [ "$status" -ne 0 ]; then
  echo "daemon exit status $status after SIGTERM"
  cat "$LOG"
  fail=1
fi
grep -q "drained" "$LOG" || { echo "no drain line in log:"; cat "$LOG"; fail=1; }
grep -q "cache persisted" "$LOG" || { echo "cache not persisted:"; cat "$LOG"; fail=1; }
[ -s "$CACHE" ] || { echo "cache store missing or empty"; fail=1; }

exit "$fail"
