#!/usr/bin/env bash
# End-to-end smoke test for the search daemon over its wire protocol
# (src/server, tools/flaml_serve.cpp). Drives one serve process over stdio:
# submits three jobs, explicitly preempts one mid-run and watches it resume,
# cancels one, and checks every response line. Job ids are deterministic
# (1, 2, 3 in submission order), so the script needs no JSON parsing
# beyond grep.
#
# Usage:
#   scripts/serve_smoke.sh [path/to/flaml_serve]   # default build/tools/flaml_serve
#
# Scenario (slots=2):
#   id 1  "hog"    unbounded, huge quantum — runs until preempted/cancelled
#   id 2  "worker" 30 iterations          — must finish
#   id 3  "doomed" unbounded              — cancelled while live
# The explicit preempt of job 1 is deterministic: with two slots, jobs 1+2
# are running and only an explicit preempt can evict job 1 (huge quantum, no
# deadline, equal priorities). Evicting it seats job 3; the quantum rotation
# then resumes job 1 on the freed capacity, so by the time job 2 finishes,
# job 1 must show exactly one preemption and a second segment.
#
# Then one socket-mode serve process gets a `wait` from a client that hangs
# up before the reply (the job is still running, so the reply is written
# to a closed peer): that must end only the client's connection — the
# daemon keeps answering `ping` and exits 0 on `shutdown` (no SIGPIPE).
# Needs python3 on PATH for the hang-up client.
set -euo pipefail

cd "$(dirname "$0")/.."
bin="${1:-build/tools/flaml_serve}"
if [ ! -x "$bin" ]; then
  echo "serve_smoke: no executable at $bin" >&2
  exit 1
fi

workdir="$(mktemp -d)"
server=""
trap '[ -n "$server" ] && kill "$server" 2> /dev/null; rm -rf "$workdir"' EXIT

cat > "$workdir/requests" <<'EOF'
{"op":"ping"}
{"op":"submit","name":"hog","synthetic":{"task":"binary","rows":200,"seed":3},"budget_seconds":600,"quantum_trials":100000}
{"op":"submit","name":"worker","synthetic":{"task":"binary","rows":200,"seed":4},"budget_seconds":600,"max_iterations":30}
{"op":"submit","name":"doomed","synthetic":{"task":"binary","rows":200,"seed":5},"budget_seconds":600}
{"op":"preempt","id":1}
{"op":"cancel","id":3}
{"op":"wait","id":2}
{"op":"status","id":1}
{"op":"cancel","id":1}
{"op":"wait","id":1}
{"op":"result","id":2}
{"op":"shutdown"}
EOF

"$bin" serve --slots=2 < "$workdir/requests" > "$workdir/responses"

expect() {  # expect LINE_NO PATTERN DESCRIPTION
  local line
  line="$(sed -n "${1}p" "$workdir/responses")"
  if ! grep -q "$2" <<< "$line"; then
    echo "serve_smoke: FAIL [$3]" >&2
    echo "  response $1: $line" >&2
    echo "  expected to contain: $2" >&2
    exit 1
  fi
}

expect 1  '"ok":true'              "ping answers"
expect 2  '"id":1'                 "first submit gets id 1"
expect 3  '"id":2'                 "second submit gets id 2"
expect 4  '"id":3'                 "third submit gets id 3"
expect 5  '"preempted":true'       "running job 1 preempts"
expect 6  '"cancelled":true'       "live job 3 cancels"
expect 7  '"state":"finished"'     "job 2 runs to completion"
expect 8  '"preemptions":1'        "job 1 was preempted exactly once"
expect 8  '"segments":2'           "job 1 resumed in a second segment"
expect 9  '"cancelled":true'       "unbounded job 1 cancels"
expect 10 '"state":"cancelled"'    "job 1 settles cancelled"
expect 11 '"best_learner"'         "job 2 serves its result"
expect 12 '"ok":true'              "shutdown acknowledges"

# --- socket mode: a client that disconnects before its reply ---
sock="$workdir/serve.sock"
"$bin" serve --socket="$sock" --slots=1 2> "$workdir/serve.log" &
server=$!
for _ in $(seq 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
client() { "$bin" "$@" --socket="$sock"; }

client submit --synthetic=400:6:9 --task=binary --budget=600 \
  --max-iterations=40 --name=slow > "$workdir/submit"
grep -q '"id":1' "$workdir/submit"

python3 - "$sock" <<'PY'
import socket, sys
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
conn.sendall(b'{"op":"wait","id":1}\n')
conn.close()  # hang up while the daemon is still blocked in `wait`
PY

# The daemon serves one connection at a time, so this ping is answered only
# after the abandoned `wait` returned and its reply write was attempted.
if ! client ping > "$workdir/ping" 2>&1 ||
   ! grep -q '"pong":true' "$workdir/ping"; then
  echo "serve_smoke: FAIL [daemon survives an early hang-up]" >&2
  cat "$workdir/ping" "$workdir/serve.log" >&2
  exit 1
fi
client shutdown > /dev/null
status=0
wait "$server" || status=$?
server=""
if [ "$status" -ne 0 ]; then
  echo "serve_smoke: FAIL [socket daemon exited $status]" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi

echo "serve_smoke: OK ($(wc -l < "$workdir/responses") stdio responses" \
  "+ socket disconnect case, $bin)"
