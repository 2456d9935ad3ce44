#!/usr/bin/env bash
# Crash-recovery, warm-memo and overload smoke for rtsynd (see
# docs/DAEMON.md), over both transports.
#
# stdin sections (stdin/stdout is one connection of the same event
# loop that serves the socket sections):
#
#   1. stream a mutation batch, kill -9 the daemon mid-stream;
#   2. restart on the same journal: replay must reach the digest the
#      live daemon last reported, reverify must pass, and an admit of
#      an alpha-renamed tenant must hit the memo
#      (asserted via the daemon/memo_hits counter in stats);
#   3. a 10x burst against a tiny queue must shed with structured
#      "overloaded" responses (never a wedge) and the process must
#      still exit cleanly;
#   4. an oversized frame is dropped with a structured error and the
#      stream resynchronizes;
#   5. stdin is never closed for idleness: under --idle-timeout-s 1, a
#      request sent after 2.5 s of silence is still answered.
#
# socket sections (the daemon-soak CI gate):
#
#   S1. 4 concurrent rtsynd_client streams against --socket, kill -9
#       mid-load (after two journaled admits were acknowledged);
#   S2. restart on the same journal + socket path: replay, reverify,
#       alpha-renamed memo hit, then a graceful shutdown drain that
#       must exit 0 and unlink the socket;
#   S3. 4 concurrent bursts against tiny per-connection and global
#       queues: shedding must be observed both in the clients'
#       "overloaded" responses and in the daemon/shed stats counter,
#       and the daemon must still drain cleanly.
#
# Environment:
#   RTSYND                 daemon binary (default: the dune build tree)
#   RTSYND_CLIENT          socket client (default: the dune build tree)
#   RTSYND_SMOKE_SECTIONS  "stdin socket" (default) or a subset
#   RTSYND_SMOKE_JOBS      --jobs passed to the daemon in the socket
#                          sections (default 1)
set -euo pipefail

cd "$(dirname "$0")/.."
RTSYND=${RTSYND:-_build/default/bin/rtsynd.exe}
RTSYND_CLIENT=${RTSYND_CLIENT:-_build/default/tools/rtsynd_client.exe}
SECTIONS=${RTSYND_SMOKE_SECTIONS:-stdin socket}
JOBS=${RTSYND_SMOKE_JOBS:-1}
[ -x "$RTSYND" ] || { echo "daemon_smoke: $RTSYND not built" >&2; exit 2; }

DIR=$(mktemp -d)
cleanup() {
  local j
  j=$(jobs -p)
  [ -n "$j" ] && kill $j 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT
J="$DIR/rtsynd.journal"

cat > "$DIR/base.spec" <<'EOF'
system "base" {
  element f_x weight 1 pipelinable;
  element f_y weight 1 pipelinable;
  constraint px periodic period 10 deadline 10 { f_x; }
}
EOF

fail() { echo "daemon_smoke: FAIL: $*" >&2; exit 1; }

wait_for() { # wait_for FILE PATTERN COUNT
  for _ in $(seq 1 100); do
    [ "$(grep -c "$2" "$1" 2>/dev/null || true)" -ge "$3" ] && return 0
    sleep 0.1
  done
  echo "--- $1 ---" >&2; cat "$1" >&2 || true
  fail "timed out waiting for $3 x $2 in $1"
}

# Wait until a daemon answers on the socket, not merely until the file
# exists: after a kill -9 the dead daemon's socket file stays behind,
# and a client connecting before the restarted daemon has bound would
# be refused.
wait_for_sock() { # wait_for_sock PATH
  for _ in $(seq 1 100); do
    if [ -S "$1" ] && echo '{"v":1,"id":"probe","op":"stats"}' \
        | "$RTSYND_CLIENT" --socket "$1" --timeout-s 5 2>/dev/null \
        | grep -q '"id":"probe","ok":true'; then
      return 0
    fi
    sleep 0.1
  done
  fail "no daemon answered stats on socket $1"
}

stdin_sections() {
# ------------------------------------------------------------------
# Phase 1: mutation batch, then kill -9 mid-stream.  The daemon reads a
# FIFO this shell holds open on fd 3, so only kill -9 ends it, and
# `wait` has the daemon alone to wait for (no writer left sleeping).
# ------------------------------------------------------------------
mkfifo "$DIR/in1"
"$RTSYND" --spec "$DIR/base.spec" --journal "$J" < "$DIR/in1" > "$DIR/out1" &
PID=$!
exec 3> "$DIR/in1"
echo '{"v":1,"id":"a1","op":"admit","decl":"constraint q1 asynchronous separation 10 deadline 6 { f_x; }"}' >&3
echo '{"v":1,"id":"a2","op":"admit","decl":"constraint q2 asynchronous separation 12 deadline 8 { f_y; }"}' >&3
sleep 0.5
echo '{"v":1,"id":"s1","op":"stats"}' >&3

wait_for "$DIR/out1" '"id":"s1"' 1
grep -q '"id":"a1","ok":true' "$DIR/out1" || fail "admit a1 not acknowledged"
grep -q '"id":"a2","ok":true' "$DIR/out1" || fail "admit a2 not acknowledged"
DIGEST=$(grep '"id":"s1"' "$DIR/out1" | grep -o '"digest":"[^"]*"' | head -1)
[ -n "$DIGEST" ] || fail "no digest in stats"

kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
exec 3>&-
echo "daemon_smoke: phase 1 ok (killed -9 holding $DIGEST)"

# ------------------------------------------------------------------
# Phase 2: restart, replay, reverify, alpha-renamed memo hit.
# ------------------------------------------------------------------
"$RTSYND" --spec "$DIR/base.spec" --journal "$J" > "$DIR/out2" <<'EOF' \
  || fail "restarted daemon exited nonzero"
{"v":1,"id":"r1","op":"reverify"}
{"v":1,"id":"t1","op":"retire","name":"q2"}
{"v":1,"id":"a3","op":"admit","decl":"constraint tenant_b asynchronous separation 12 deadline 8 { f_y; }"}
{"v":1,"id":"s2","op":"stats"}
EOF
grep -q '"id":"r1","ok":true' "$DIR/out2" || fail "reverify after replay failed"
grep '"id":"r1"' "$DIR/out2" | grep -qF "$DIGEST" \
  || fail "replayed digest does not match the pre-crash state ($DIGEST)"
grep '"id":"a3"' "$DIR/out2" | grep -q '"path":"memo"' \
  || fail "alpha-renamed tenant did not hit the memo"
MEMO_HITS=$(grep '"id":"s2"' "$DIR/out2" | grep -o '"memo_hits":[0-9]*' | cut -d: -f2)
[ "${MEMO_HITS:-0}" -ge 1 ] || fail "daemon/memo_hits counter is ${MEMO_HITS:-absent}"
REPLAYED=$(grep '"id":"s2"' "$DIR/out2" | grep -o '"replayed_records":[0-9]*' | cut -d: -f2)
[ "${REPLAYED:-0}" -ge 1 ] || fail "no journal records replayed"
echo "daemon_smoke: phase 2 ok (replayed=$REPLAYED, memo_hits=$MEMO_HITS)"

# ------------------------------------------------------------------
# Phase 3: 10x burst against a tiny queue -> deterministic shedding.
# ------------------------------------------------------------------
{
  for i in $(seq 1 20); do
    echo '{"v":1,"id":"b'"$i"'","op":"what-if","decl":"constraint w'"$i"' asynchronous separation 14 deadline 9 { f_x; }"}'
  done
} | "$RTSYND" --spec "$DIR/base.spec" --journal "$J" \
      --max-queue 2 --degrade-heuristic 1 --degrade-analytic 2 > "$DIR/out3" \
  || fail "daemon wedged under burst"
SHED=$(grep -c '"kind":"overloaded"' "$DIR/out3" || true)
[ "$SHED" -ge 1 ] || fail "no overloaded responses under a 10x burst"
grep -q '"retry_after_ms":' "$DIR/out3" || fail "overloaded responses carry no retry-after hint"
ANSWERED=$(grep -c '"ok":true' "$DIR/out3" || true)
[ "$ANSWERED" -ge 1 ] || fail "every request shed: the daemon served nothing"
echo "daemon_smoke: phase 3 ok (shed=$SHED served=$ANSWERED)"

# ------------------------------------------------------------------
# Phase 4: an oversized frame is dropped with a structured error, the
# stream resynchronizes, and the daemon keeps serving (bugfix gate;
# also exercised hermetically by test/cli).
# ------------------------------------------------------------------
{
  printf '{"v":1,"id":"big","op":"admit","decl":"%s"}\n' \
    "$(head -c 8192 /dev/zero | tr '\0' 'x')"
  echo '{"v":1,"id":"s3","op":"stats"}'
} | "$RTSYND" --spec "$DIR/base.spec" --journal "$J" --max-frame 4096 \
      > "$DIR/out4" || fail "daemon wedged on an oversized frame"
grep -q '"kind":"oversize"' "$DIR/out4" \
  || fail "oversized frame not answered with a structured oversize error"
grep -q '"id":"s3","ok":true' "$DIR/out4" \
  || fail "daemon stopped serving after an oversized frame"
echo "daemon_smoke: phase 4 ok (oversize dropped, stream resynced)"

# ------------------------------------------------------------------
# Phase 5: the idle timeout closes socket connections, never stdin.
# ------------------------------------------------------------------
{
  sleep 2.5
  echo '{"v":1,"id":"s5","op":"stats"}'
} | "$RTSYND" --spec "$DIR/base.spec" --journal "$J" --idle-timeout-s 1 \
      > "$DIR/out5" || fail "daemon exited nonzero after an idle stdin"
grep -q '"id":"s5","ok":true' "$DIR/out5" \
  || fail "stdin was closed for idleness"
echo "daemon_smoke: phase 5 ok (stdin held idle past --idle-timeout-s)"
}

socket_sections() {
[ -x "$RTSYND_CLIENT" ] || fail "$RTSYND_CLIENT not built"
local S="$DIR/rtsynd.sock" J2="$DIR/rtsynd_sock.journal"
local PID c i CPIDS

# ------------------------------------------------------------------
# S1: 4 concurrent client streams, kill -9 mid-load.
# ------------------------------------------------------------------
"$RTSYND" --spec "$DIR/base.spec" --journal "$J2" --socket "$S" \
  --jobs "$JOBS" > "$DIR/sockd1" 2>&1 &
PID=$!
wait_for_sock "$S"
# two journaled mutations that must survive the crash
printf '%s\n' \
  '{"v":1,"id":"a1","op":"admit","decl":"constraint q1 asynchronous separation 10 deadline 6 { f_x; }"}' \
  '{"v":1,"id":"a2","op":"admit","decl":"constraint q2 asynchronous separation 12 deadline 8 { f_y; }"}' \
  | "$RTSYND_CLIENT" --socket "$S" > "$DIR/sock_ack" \
  || fail "pre-crash socket admits failed"
grep -q '"id":"a1","ok":true' "$DIR/sock_ack" || fail "socket admit a1 not acknowledged"
grep -q '"id":"a2","ok":true' "$DIR/sock_ack" || fail "socket admit a2 not acknowledged"
CPIDS=()
for c in 1 2 3 4; do
  { for i in $(seq 1 50); do
      echo '{"v":1,"id":"c'"$c"'-'"$i"'","op":"what-if","decl":"constraint w'"$c"'_'"$i"' asynchronous separation 14 deadline 9 { f_x; }"}'
    done
  } | "$RTSYND_CLIENT" --socket "$S" --timeout-s 30 \
        > "$DIR/sock_load$c" 2>/dev/null &
  CPIDS+=($!)
done
sleep 0.5
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
wait "${CPIDS[@]}" 2>/dev/null || true   # clients may lose the connection
echo "daemon_smoke: socket S1 ok (killed -9 under 4-client load)"

# ------------------------------------------------------------------
# S2: restart on the same journal + socket: replay, reverify, memo,
# then a graceful shutdown drain.
# ------------------------------------------------------------------
"$RTSYND" --spec "$DIR/base.spec" --journal "$J2" --socket "$S" \
  --jobs "$JOBS" > "$DIR/sockd2" 2>&1 &
PID=$!
wait_for_sock "$S"
printf '%s\n' \
  '{"v":1,"id":"r1","op":"reverify"}' \
  '{"v":1,"id":"t1","op":"retire","name":"q2"}' \
  '{"v":1,"id":"a3","op":"admit","decl":"constraint tenant_b asynchronous separation 12 deadline 8 { f_y; }"}' \
  '{"v":1,"id":"s1","op":"stats"}' \
  | "$RTSYND_CLIENT" --socket "$S" > "$DIR/sock_out2" \
  || fail "post-crash socket client failed"
grep -q '"id":"r1","ok":true' "$DIR/sock_out2" || fail "socket reverify after replay failed"
grep '"id":"a3"' "$DIR/sock_out2" | grep -q '"path":"memo"' \
  || fail "socket alpha-renamed tenant did not hit the memo"
REPLAYED=$(grep '"id":"s1"' "$DIR/sock_out2" | grep -o '"replayed_records":[0-9]*' | cut -d: -f2)
[ "${REPLAYED:-0}" -ge 1 ] || fail "no journal records replayed over the socket"
echo '{"v":1,"id":"z","op":"shutdown"}' \
  | "$RTSYND_CLIENT" --socket "$S" > "$DIR/sock_bye" \
  || fail "shutdown client failed"
grep -q '"id":"z","ok":true' "$DIR/sock_bye" || fail "shutdown not acknowledged"
wait "$PID" || fail "socket daemon did not exit 0 on graceful drain"
[ -S "$S" ] && fail "socket file not unlinked on drain"
echo "daemon_smoke: socket S2 ok (replayed=$REPLAYED, drained clean)"

# ------------------------------------------------------------------
# S3: 4 concurrent bursts against tiny queues -> shedding observed in
# both the client responses and the daemon/shed counter.
# ------------------------------------------------------------------
"$RTSYND" --spec "$DIR/base.spec" --journal "$DIR/shed.journal" --socket "$S" \
  --max-queue 2 --conn-queue 2 --degrade-heuristic 1 --degrade-analytic 2 \
  --jobs "$JOBS" > "$DIR/sockd3" 2>&1 &
PID=$!
wait_for_sock "$S"
CPIDS=()
for c in 1 2 3 4; do
  { for i in $(seq 1 50); do
      echo '{"v":1,"id":"x'"$c"'-'"$i"'","op":"what-if","decl":"constraint v'"$c"'_'"$i"' asynchronous separation 14 deadline 9 { f_x; }"}'
    done
  } | "$RTSYND_CLIENT" --socket "$S" --timeout-s 60 > "$DIR/sock_shed$c" &
  CPIDS+=($!)
done
wait "${CPIDS[@]}" || fail "burst client wedged against tiny queues"
SHED_SEEN=$(cat "$DIR"/sock_shed[1-4] | grep -c '"kind":"overloaded"' || true)
[ "$SHED_SEEN" -ge 1 ] || fail "no overloaded responses across 4 burst clients"
ANSWERED=$(cat "$DIR"/sock_shed[1-4] | grep -c '"ok":true' || true)
[ "$ANSWERED" -ge 1 ] || fail "every burst request shed: the daemon served nothing"
echo '{"v":1,"id":"s2","op":"stats"}
{"v":1,"id":"z2","op":"shutdown"}' \
  | "$RTSYND_CLIENT" --socket "$S" > "$DIR/sock_stats" \
  || fail "stats client failed"
SHED_CTR=$(grep '"id":"s2"' "$DIR/sock_stats" | grep -o '"shed":[0-9]*' | cut -d: -f2)
[ "${SHED_CTR:-0}" -ge 1 ] || fail "daemon/shed counter is ${SHED_CTR:-absent} after the burst"
wait "$PID" || fail "socket daemon did not exit 0 after shedding"
echo "daemon_smoke: socket S3 ok (client-observed shed=$SHED_SEEN, daemon/shed=$SHED_CTR, served=$ANSWERED)"
}

for section in $SECTIONS; do
  case "$section" in
    stdin)  stdin_sections ;;
    socket) socket_sections ;;
    *) fail "unknown section '$section' (want: stdin socket)" ;;
  esac
done

echo "daemon_smoke: OK"
