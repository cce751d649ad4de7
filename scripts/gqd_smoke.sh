#!/usr/bin/env bash
# Smoke-test the gqd observability daemon end to end, once per live
# scenario (fig5, then ctrl): start a short run on a free port, require
# 200 + non-empty bodies from every endpoint, then SIGTERM and require
# a clean shutdown. Run via `make smoke-gqd`; CI runs it in the
# gqd-smoke job.
set -euo pipefail

bin="${TMPDIR:-/tmp}/gqd-smoke-bin"
log="$(mktemp)"
body="$(mktemp)"
go build -o "$bin" ./cmd/gqd

pid=""
trap 'kill "$pid" 2>/dev/null || true; rm -f "$bin" "$log" "$body"' EXIT

check() {
  path="$1"
  code="$(curl -s -o "$body" -w '%{http_code}' "$base$path")"
  if [ "$code" != 200 ]; then
    echo "gqd smoke: GET $path -> HTTP $code" >&2
    cat "$body" >&2
    exit 1
  fi
  if [ ! -s "$body" ]; then
    echo "gqd smoke: GET $path returned an empty body" >&2
    exit 1
  fi
  echo "gqd smoke: GET $path OK ($(wc -c <"$body") bytes)"
}

smoke() {
  scenario="$1"
  # Start the daemon on a kernel-assigned free port and wait for it to
  # report its listen address. Port 0 avoids picking a busy port, but a
  # parallel test run can still race the daemon off its socket (or kill
  # it outright), so retry the whole launch a few times before giving up.
  port=""
  for attempt in 1 2 3; do
    : >"$log"
    "$bin" -addr 127.0.0.1:0 -scenario "$scenario" -dur 10s -pace 0 >"$log" 2>&1 &
    pid=$!
    for _ in $(seq 1 100); do
      port="$(sed -n 's#.*http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$log")"
      [ -n "$port" ] && break
      if ! kill -0 "$pid" 2>/dev/null; then
        break # daemon died before binding; retry
      fi
      sleep 0.1
    done
    [ -n "$port" ] && break
    echo "gqd smoke: attempt $attempt: daemon never reported a listen address, retrying" >&2
    kill "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    sleep 0.5
  done
  if [ -z "$port" ]; then
    echo "gqd smoke: daemon never reported a listen address after 3 attempts" >&2
    cat "$log" >&2
    exit 1
  fi
  base="http://127.0.0.1:$port"

  check /healthz
  # The healthy-path body must be the documented JSON shape: a healthy
  # status, the scenario name, and progress fields. (A halted or
  # panicked scenario answers 503 instead, which check would reject.)
  fields=('"status":"ok"' "\"scenario\":\"$scenario\"" '"virtual_now_ns"' '"virtual_dur_ns"' '"done"' '"spans"')
  if [ "$scenario" = ctrl ]; then
    fields+=('"admission"') # per-domain admission queue and brownout state
  fi
  for field in "${fields[@]}"; do
    if ! grep -q "$field" "$body"; then
      echo "gqd smoke: /healthz body missing $field" >&2
      cat "$body" >&2
      exit 1
    fi
  done
  echo "gqd smoke: /healthz body shape OK"
  check /metrics
  check '/traces?limit=1'
  check '/events?n=5'

  kill -TERM "$pid"
  wait "$pid"
  if ! grep -q 'shut down cleanly' "$log"; then
    echo "gqd smoke: daemon did not shut down cleanly" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "gqd smoke: $scenario: all endpoints healthy, clean SIGTERM shutdown"
}

smoke fig5
smoke ctrl
