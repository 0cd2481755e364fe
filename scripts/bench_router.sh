#!/usr/bin/env bash
# Router horizontal-scaling benchmark -> BENCH_router.json
#
# Measures uctr_load saturation throughput through uctr_router against 1,
# 2, and 4 uctr_serve backends, then a failover drill that hard-kills one
# of two backends mid-run.
#
# Per-request work is emulated with `sched.dequeue=latency(20)` on every
# backend: the site sleeps right after a worker dequeues a job, outside
# the queue lock, so each request occupies a backend worker for 20 ms and
# a backend with 4 workers saturates at ~200 resp/s. That makes the
# scaling signal measurable on small CI hosts, where the real execute
# path is so cheap that the single-core client/router CPU saturates (at
# ~1700 resp/s of parse+route work) before the backends do and would hide
# the scaling being benchmarked. uctr_load runs with --distinct-tables so
# every request misses the result cache and is queued to a (stalled)
# worker. EXECUTE_MS / REQUESTS env vars override for beefier hosts.
#
# Gates (from the router design goals):
#   - every run clean: zero lost, zero reordered responses
#   - 2 backends >= 1.7x the 1-backend throughput
#   - 4 backends >= 3.0x the 1-backend throughput
#   - kill-one-backend drill: degraded throughput, zero lost responses
#
# Usage: scripts/bench_router.sh   (writes BENCH_router.json in repo root)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc)}"
EXECUTE_MS="${EXECUTE_MS:-20}"
WORKERS_PER_BACKEND=4
REQUESTS="${REQUESTS:-2000}"
CONNECTIONS=32
PIPELINE=4

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target uctr_serve_bin uctr_router uctr_load >/dev/null

TMP=$(mktemp -d)
declare -a PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

scrape_port() {  # scrape_port ERRLOG NAME
  local errlog="$1" name="$2" port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$errlog" | head -n1)
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "bench_router: $name never announced its port" >&2
    cat "$errlog" >&2
    exit 1
  fi
  echo "$port"
}

json_field() {  # json_field FILE KEY -> numeric value
  sed -n "s/.*\"$2\": \([0-9.]*\).*/\1/p" "$1" | head -n1
}

# start_stack N: sets ROUTER_PORT, ROUTER_PID, BACKEND_PIDS. Must NOT be
# called via $(...) — the background servers would inherit the command
# substitution's pipe and the parent would block on it forever, and the
# pid globals would die with the subshell.
declare -a BACKEND_PIDS=()
ROUTER_PID=""
ROUTER_PORT=""
start_stack() {
  local n="$1" backends="" log port
  BACKEND_PIDS=()
  for i in $(seq 1 "$n"); do
    log="$TMP/backend_$i.err"
    ./"$BUILD_DIR"/src/serve/uctr_serve serve \
      --workers "$WORKERS_PER_BACKEND" --listen 127.0.0.1:0 \
      --fault-spec "sched.dequeue=latency($EXECUTE_MS)" \
      >/dev/null 2>"$log" &
    BACKEND_PIDS+=($!)
    PIDS+=($!)
  done
  for i in $(seq 1 "$n"); do
    port=$(scrape_port "$TMP/backend_$i.err" "backend $i")
    backends="${backends:+$backends,}127.0.0.1:$port"
  done
  log="$TMP/router.err"
  ./"$BUILD_DIR"/src/net/uctr_router --listen 127.0.0.1:0 \
    --backends "$backends" --workers $((CONNECTIONS * PIPELINE + 32)) \
    >/dev/null 2>"$log" &
  ROUTER_PID=$!
  PIDS+=($!)
  ROUTER_PORT=$(scrape_port "$log" router)
}

stop_stack() {
  kill -TERM "$ROUTER_PID" 2>/dev/null || true
  wait "$ROUTER_PID" 2>/dev/null || true
  for pid in "${BACKEND_PIDS[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
}

# --- Scaling runs: 1, 2, 4 backends -------------------------------------
declare -A RPS CLEAN
for n in 1 2 4; do
  echo "bench_router: measuring $n backend(s)..." >&2
  start_stack "$n"
  report="$TMP/scale_$n.json"
  if ./"$BUILD_DIR"/src/net/uctr_load --router "127.0.0.1:$ROUTER_PORT" \
      --connections "$CONNECTIONS" --requests "$REQUESTS" \
      --pipeline "$PIPELINE" --op verify --distinct-tables \
      --report-json "$report" >/dev/null; then
    CLEAN[$n]=true
  else
    CLEAN[$n]=false
  fi
  RPS[$n]=$(json_field "$report" achieved_rps)
  stop_stack
  echo "bench_router: $n backend(s): ${RPS[$n]} resp/s (clean=${CLEAN[$n]})" >&2
done

SCALE2=$(awk "BEGIN{printf \"%.2f\", ${RPS[2]} / ${RPS[1]}}")
SCALE4=$(awk "BEGIN{printf \"%.2f\", ${RPS[4]} / ${RPS[1]}}")

# --- Failover drill: hard-kill one of two backends mid-run --------------
echo "bench_router: failover drill (kill 1 of 2 backends mid-run)..." >&2
start_stack 2
drill_report="$TMP/drill.json"
DRILL_REQUESTS=$((REQUESTS * 2))
./"$BUILD_DIR"/src/net/uctr_load --router "127.0.0.1:$ROUTER_PORT" \
  --connections "$CONNECTIONS" --requests "$DRILL_REQUESTS" \
  --pipeline "$PIPELINE" --op verify --distinct-tables \
  --report-json "$drill_report" >/dev/null &
LOAD_PID=$!
sleep 1
kill -KILL "${BACKEND_PIDS[1]}" 2>/dev/null || true
DRILL_CLEAN=false
if wait "$LOAD_PID"; then DRILL_CLEAN=true; fi
DRILL_RPS=$(json_field "$drill_report" achieved_rps)
DRILL_LOST=$(json_field "$drill_report" lost)
DRILL_ERRORS=$(json_field "$drill_report" error)
stop_stack
echo "bench_router: drill: $DRILL_RPS resp/s, lost=$DRILL_LOST," \
  "errors=$DRILL_ERRORS (clean=$DRILL_CLEAN)" >&2

PASS=$(awk "BEGIN{print (${SCALE2} >= 1.7 && ${SCALE4} >= 3.0) ? \"true\" : \"false\"}")
for n in 1 2 4; do
  [[ "${CLEAN[$n]}" == true ]] || PASS=false
done
[[ "$DRILL_CLEAN" == true ]] || PASS=false

cat > BENCH_router.json <<EOF
{
  "emulated_execute_ms": $EXECUTE_MS,
  "workers_per_backend": $WORKERS_PER_BACKEND,
  "requests_per_run": $REQUESTS,
  "connections": $CONNECTIONS,
  "pipeline": $PIPELINE,
  "backends_1": {"rps": ${RPS[1]}, "clean": ${CLEAN[1]}},
  "backends_2": {"rps": ${RPS[2]}, "clean": ${CLEAN[2]}},
  "backends_4": {"rps": ${RPS[4]}, "clean": ${CLEAN[4]}},
  "scaling_2x": $SCALE2,
  "scaling_4x": $SCALE4,
  "kill_one_drill": {"requests": $DRILL_REQUESTS, "rps": $DRILL_RPS, "lost": $DRILL_LOST, "errors": $DRILL_ERRORS, "clean": $DRILL_CLEAN},
  "gates": {"scaling_2x_min": 1.7, "scaling_4x_min": 3.0},
  "pass": $PASS
}
EOF
cat BENCH_router.json
[[ "$PASS" == true ]]
