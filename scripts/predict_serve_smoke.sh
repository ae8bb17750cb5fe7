#!/usr/bin/env bash
# End-to-end smoke test for the prediction-serving daemon over its wire
# protocol (src/serve, tools/flaml_predict_serve.cpp). Trains a tiny model
# with flaml_train, compiles it to a `flaml-compiled v1` artifact twice
# (two generations), then drives one serve process over stdio: load,
# predict from inline rows and from an unlabeled CSV, hot-swap to the
# second artifact, reload-poll, stats, drain, shutdown — checking every
# response line. An error request (predict before rows) must produce a
# typed refusal, not tear the stream down. Then one socket-mode serve
# process gets a large predict from a client that hangs up before the
# reply: that must end only the client's connection — the daemon keeps
# answering and exits cleanly on shutdown (no SIGPIPE). Last, one write of
# 1010 pipelined request lines must get 1010 replies, in order.
#
# Usage:
#   scripts/predict_serve_smoke.sh [bindir]   # default build/tools
set -euo pipefail

cd "$(dirname "$0")/.."
bindir="${1:-build/tools}"
for tool in flaml_train flaml_predict_serve; do
  if [ ! -x "$bindir/$tool" ]; then
    echo "predict_serve_smoke: no executable at $bindir/$tool" >&2
    exit 1
  fi
done

workdir="$(mktemp -d)"
server=""
trap '[ -n "$server" ] && kill "$server" 2> /dev/null; rm -rf "$workdir"' EXIT

# Deterministic binary-classification training set: y = a + b > 1.
awk 'BEGIN {
  print "a,b,c,y"
  seed = 123456789
  for (i = 0; i < 240; i++) {
    seed = (seed * 1103515245 + 12345) % 2147483648; a = seed / 2147483648
    seed = (seed * 1103515245 + 12345) % 2147483648; b = seed / 2147483648
    seed = (seed * 1103515245 + 12345) % 2147483648; c = seed / 2147483648
    printf "%.6f,%.6f,%.6f,%d\n", a, b, c, (a + b > 1.0) ? 1 : 0
  }
}' > "$workdir/train.csv"

# Unlabeled request rows: every column is a feature (no label to strip).
printf 'a,b,c\n0.1,0.9,0.5\n0.8,0.7,0.2\n0.3,0.2,0.6\n' > "$workdir/rows.csv"

"$bindir/flaml_train" --data="$workdir/train.csv" --task=binary --budget=3 \
  --estimators=lgbm --seed=7 --model-out="$workdir/model_a.txt" > /dev/null
"$bindir/flaml_train" --data="$workdir/train.csv" --task=binary --budget=3 \
  --estimators=lgbm --seed=8 --model-out="$workdir/model_b.txt" > /dev/null

"$bindir/flaml_predict_serve" compile --model="$workdir/model_a.txt" \
  --out="$workdir/model_a.bin" > /dev/null
"$bindir/flaml_predict_serve" compile --model="$workdir/model_b.txt" \
  --out="$workdir/model_b.bin" > /dev/null

cat > "$workdir/requests" <<EOF
{"op":"ping"}
{"op":"predict","rows":[[0.1,0.9,0.5]]}
{"op":"load","artifact":"$workdir/model_a.bin"}
{"op":"ping"}
{"op":"predict","rows":[[0.1,0.9,0.5],[0.8,0.7,null]]}
{"op":"predict","csv":"$workdir/rows.csv"}
{"op":"reload"}
{"op":"swap","artifact":"$workdir/model_b.bin"}
{"op":"predict","rows":[[0.1,0.9,0.5]]}
{"op":"stats"}
{"op":"drain"}
{"op":"shutdown"}
EOF

"$bindir/flaml_predict_serve" serve < "$workdir/requests" > "$workdir/responses"

expect() {  # expect LINE_NO PATTERN DESCRIPTION
  local line
  line="$(sed -n "${1}p" "$workdir/responses")"
  if ! grep -q "$2" <<< "$line"; then
    echo "predict_serve_smoke: FAIL [$3]" >&2
    echo "  response $1: $line" >&2
    echo "  expected to contain: $2" >&2
    exit 1
  fi
}

expect 1  '"loaded":false'        "ping answers before any model"
expect 2  '"ok":false'            "predict before load is a typed refusal"
expect 3  '"generation":1'        "load installs generation 1"
expect 4  '"loaded":true'         "ping sees the loaded model"
expect 5  '"classes"'             "inline rows (with a null cell) predict"
expect 5  '"generation":1'        "reply names its generation"
expect 6  '"classes"'             "unlabeled CSV rows predict"
expect 7  '"swapped":false'       "reload with unchanged artifact is a no-op"
expect 8  '"generation":2'        "swap installs generation 2"
expect 9  '"generation":2'        "post-swap replies come from generation 2"
expect 10 '"predict.requests"'    "stats exposes request counters"
expect 11 '"drained":true'        "drain acknowledges"
expect 12 '"bye":true'            "shutdown acknowledges"

# --- socket mode: a client that disconnects before its reply ---
sock="$workdir/predict.sock"
"$bindir/flaml_predict_serve" serve --socket="$sock" \
  --artifact="$workdir/model_a.bin" 2> "$workdir/serve.log" &
server=$!
for _ in $(seq 100); do
  [ -S "$sock" ] && break
  sleep 0.1
done
client() { "$bindir/flaml_predict_serve" "$@" --socket="$sock"; }

python3 - "$sock" <<'PY'
import socket, sys
rows = ",".join(["[0.1,0.9,0.5]"] * 20000)
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
conn.sendall(('{"op":"predict","rows":[%s]}\n' % rows).encode())
conn.close()  # hang up before the reply is written
PY

# Wait until the abandoned request was scored, so its reply write has been
# attempted, then require the daemon to still answer.
for _ in $(seq 100); do
  client stats 2> /dev/null | grep -q '"predict.requests":1' && break
  sleep 0.1
done
sleep 0.2
if ! client ping > "$workdir/ping" 2>&1 ||
   ! grep -q '"pong":true' "$workdir/ping"; then
  echo "predict_serve_smoke: FAIL [daemon survives an early hang-up]" >&2
  cat "$workdir/ping" "$workdir/serve.log" >&2
  exit 1
fi
# Pipelined requests: 1000 pings, with a marker op after every 100th, in a
# single write. Every line must get its reply, in request order (each
# marker comes back as a typed refusal naming it).
if ! python3 - "$sock" <<'PY' 2>&1
import socket, sys
lines, want = [], []
for i in range(1000):
    lines.append('{"op":"ping"}')
    want.append('"pong":true')
    if i % 100 == 99:
        lines.append('{"op":"mark-%d"}' % i)
        want.append("unknown op 'mark-%d'" % i)
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.connect(sys.argv[1])
conn.sendall(("\n".join(lines) + "\n").encode())
data = b""
while data.count(b"\n") < len(want):
    chunk = conn.recv(65536)
    if not chunk:
        break
    data += chunk
conn.close()
replies = data.decode().split("\n")[:-1]
if len(replies) != len(want):
    sys.exit("got %d replies to %d pipelined requests" % (len(replies), len(want)))
for i, (reply, pattern) in enumerate(zip(replies, want)):
    if pattern not in reply:
        sys.exit("reply %d out of order: %s (expected %s)" % (i, reply, pattern))
PY
then
  echo "predict_serve_smoke: FAIL [pipelined requests answered in order]" >&2
  exit 1
fi
client shutdown > /dev/null
status=0
wait "$server" || status=$?
server=""
if [ "$status" -ne 0 ]; then
  echo "predict_serve_smoke: FAIL [socket daemon exited $status]" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi

echo "predict_serve_smoke: OK ($(wc -l < "$workdir/responses") stdio" \
  "responses + socket disconnect and pipelined cases, $bindir)"
