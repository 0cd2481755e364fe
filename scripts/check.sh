#!/usr/bin/env bash
# Sanitizer check: configure, build, and run the test suite under a
# sanitizer (the UCTR_SANITIZE CMake option). Catches memory errors, UB,
# and data races that the normal Release build hides — run it before
# merging changes to the concurrent serving path or the lazily built
# table index.
#
# Usage:
#   scripts/check.sh                        # ASan+UBSan, full suite
#   scripts/check.sh serve_test             # one test binary (ctest -R
#                                           # matches gtest names)
#   scripts/check.sh faults                 # chaos mode: fault_test +
#                                           # fuzz_test + a uctr_serve
#                                           # --fault-spec drill
#   scripts/check.sh net                    # net_test + a loopback TCP
#                                           # soak (uctr_load against
#                                           # uctr_serve --listen, clean
#                                           # and chaos variants, SIGTERM
#                                           # drain)
#   scripts/check.sh store                  # store_test + a put_table/
#                                           # table_ref loopback soak
#                                           # (uctr_load --put-table)
#   scripts/check.sh durability             # durable_test + a crash drill
#                                           # (kill -9 uctr_serve mid-load,
#                                           # restart on the same
#                                           # --store-dir, acked tables
#                                           # must serve again) + a router
#                                           # kill/rejoin drill with
#                                           # --put-replicas 2
#   scripts/check.sh router                 # router_test + a sharded soak
#                                           # (uctr_load through uctr_router
#                                           # over 2 uctr_serve backends,
#                                           # clean and chaos variants,
#                                           # SIGTERM drain of the whole
#                                           # stack)
#   scripts/check.sh selftrain              # selftrain_test + a kill -9
#                                           # drill of uctr_selftrain
#                                           # (resume must be byte-
#                                           # identical to an
#                                           # uninterrupted run)
#   scripts/check.sh plan                   # ir_test (IR/VM/plan-cache
#                                           # differential suite) + a
#                                           # uctr_serve drill (20
#                                           # requests, 20 responses, no
#                                           # errors)
#   UCTR_SANITIZE=thread scripts/check.sh   # TSan, full suite
#   UCTR_SANITIZE=thread scripts/check.sh index_test serve_test
set -euo pipefail

cd "$(dirname "$0")/.."

# address (default) -> ASan+UBSan in build-asan; thread -> TSan in
# build-tsan. The two modes use separate build trees so switching between
# them never triggers a full recompile.
SANITIZE="${UCTR_SANITIZE:-address}"
case "$SANITIZE" in
  address|ON|on)
    SANITIZE=address
    DEFAULT_BUILD_DIR=build-asan
    ;;
  thread)
    DEFAULT_BUILD_DIR=build-tsan
    ;;
  *)
    echo "unknown UCTR_SANITIZE mode '$SANITIZE' (address|thread)" >&2
    exit 2
    ;;
esac
BUILD_DIR="${BUILD_DIR:-$DEFAULT_BUILD_DIR}"
JOBS="${JOBS:-$(nproc)}"

cmake -B "$BUILD_DIR" -S . -DUCTR_SANITIZE="$SANITIZE" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$JOBS"

if [[ "$SANITIZE" == thread ]]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
fi

cd "$BUILD_DIR"
if [[ "${1:-}" == faults ]]; then
  # Chaos mode: the fault-injection/resilience suite and the input fuzzer
  # under the configured sanitizer, then a bounded chaos drill of the real
  # uctr_serve binary with a mixed fault schedule armed (parse errors,
  # admission rejects, dequeue latency spikes). The drill must exit 0 and
  # every request must get a response line.
  ./tests/fault_test
  ./tests/fuzz_test
  REQUESTS=$(for i in $(seq 1 20); do
    printf '{"id":%d,"op":"verify","table":"a,b\\n1,2\\n3,4\\n","query":"The a of the row whose b is 2 is 1."}\n' "$i"
  done)
  RESPONSES=$(printf '%s\n' "$REQUESTS" | ./src/serve/uctr_serve serve \
    --workers 4 --fault-spec \
    'table.from_csv=error:p=0.3;serve.submit=error:p=0.2;sched.dequeue=latency(2):p=0.3' \
    --fault-seed 7)
  GOT=$(printf '%s\n' "$RESPONSES" | grep -c '"id"')
  if [[ "$GOT" -ne 20 ]]; then
    echo "chaos drill: expected 20 responses, got $GOT" >&2
    exit 1
  fi
  echo "fault/chaos ($SANITIZE) check passed"
  exit 0
fi
if [[ "${1:-}" == net ]]; then
  # Networking mode: the loopback unit/integration suite under the
  # sanitizer, then a soak of the real binaries: uctr_serve --listen on an
  # ephemeral port vs uctr_load with 32 concurrent connections. Run clean,
  # then again with a serving-layer fault schedule armed (every response
  # must still arrive — an error or reject, never lost), then SIGTERM the
  # server and require a graceful exit 0.
  ./tests/net_test

  run_soak() {  # run_soak NAME [extra uctr_serve flags...]
    local name="$1"; shift
    local errlog port
    errlog=$(mktemp)
    ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 "$@" \
      2>"$errlog" &
    local serve_pid=$!
    port=""
    for _ in $(seq 1 100); do
      port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$errlog" | head -n1)
      [[ -n "$port" ]] && break
      sleep 0.1
    done
    if [[ -z "$port" ]]; then
      echo "net soak ($name): server never announced its port" >&2
      cat "$errlog" >&2
      exit 1
    fi
    if ! ./src/net/uctr_load --connect "127.0.0.1:$port" \
        --connections 32 --requests 1280 --pipeline 8; then
      echo "net soak ($name): uctr_load reported lost/reordered responses" >&2
      kill "$serve_pid" 2>/dev/null || true
      exit 1
    fi
    kill -TERM "$serve_pid"
    local serve_rc=0
    wait "$serve_pid" || serve_rc=$?
    if [[ "$serve_rc" -ne 0 ]]; then
      echo "net soak ($name): uctr_serve exited $serve_rc after SIGTERM" >&2
      cat "$errlog" >&2
      exit 1
    fi
    rm -f "$errlog"
    echo "net soak ($name) passed"
  }

  run_soak clean
  run_soak chaos --fault-spec \
    'table.from_csv=error:p=0.3;serve.submit=error:p=0.2;sched.dequeue=latency(2):p=0.3' \
    --fault-seed 7
  echo "net ($SANITIZE) check passed"
  exit 0
fi
if [[ "${1:-}" == store ]]; then
  # Table-store mode: the store unit/integration suite under the
  # sanitizer, then a put_table/table_ref loopback soak — every connection
  # registers its fixtures once and drives fingerprint traffic, so the
  # registry's concurrent Put/Get/evict paths run under the sanitizer with
  # real sockets in front.
  ./tests/store_test

  errlog=$(mktemp)
  ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 \
    2>"$errlog" &
  serve_pid=$!
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$errlog" | head -n1)
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "store soak: server never announced its port" >&2
    cat "$errlog" >&2
    exit 1
  fi
  if ! ./src/net/uctr_load --connect "127.0.0.1:$port" \
      --connections 16 --requests 1280 --pipeline 8 --tables 8 --put-table; then
    echo "store soak: uctr_load --put-table reported failures" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "$serve_pid"
  serve_rc=0
  wait "$serve_pid" || serve_rc=$?
  if [[ "$serve_rc" -ne 0 ]]; then
    echo "store soak: uctr_serve exited $serve_rc after SIGTERM" >&2
    cat "$errlog" >&2
    exit 1
  fi
  rm -f "$errlog"
  echo "store ($SANITIZE) check passed"
  exit 0
fi
if [[ "${1:-}" == durability ]]; then
  # Durability mode: the WAL/recovery suite under the sanitizer, then two
  # drills of the real binaries.
  #
  # Drill 1 — crash recovery: uctr_serve --store-dir, a completed
  # put_table round (those acks are the pin), then kill -9 mid-load. The
  # restart on the same directory must announce the recovered tables, and
  # a fresh --put-table run must be failure-free: re-registration dedups
  # against the recovered store (content-addressed, so the fingerprints
  # prove byte-identity) and every table_ref resolves without degrading.
  #
  # Drill 2 — replicated serving: two durable backends behind uctr_router
  # --put-replicas 2. Kill -9 one backend mid-traffic (the load must stay
  # clean: zero lost, zero reordered), restart it on the same port (it
  # recovers from its own store), let the probe rejoin it, and load again.
  # The router must drain to exit 0 with its replication counters
  # exported. (Read-repair convergence itself is pinned deterministically
  # in router_test — this drill exercises the same path against real
  # processes and sockets.)
  ./tests/durable_test

  scrape_port() {  # scrape_port ERRLOG NAME
    local errlog="$1" name="$2" port=""
    for _ in $(seq 1 100); do
      port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$errlog" | head -n1)
      [[ -n "$port" ]] && break
      sleep 0.1
    done
    if [[ -z "$port" ]]; then
      echo "durability: $name never announced its port" >&2
      cat "$errlog" >&2
      exit 1
    fi
    echo "$port"
  }

  # ----------------------------------------------- drill 1: kill -9
  store_dir=$(mktemp -d)
  errlog=$(mktemp)
  ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 \
    --store-dir "$store_dir" --store-fsync interval 2>"$errlog" &
  serve_pid=$!
  port=$(scrape_port "$errlog" uctr_serve)
  # Phase 1: a registration round that completes — these acks must
  # survive the crash.
  if ! ./src/net/uctr_load --connect "127.0.0.1:$port" \
      --connections 4 --requests 160 --pipeline 4 --tables 8 --put-table; then
    echo "durability: pre-crash put_table load failed" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  # Phase 2: kill -9 mid-load. The load is expected to fail — the point
  # is that the server dies without any chance to flush or say goodbye.
  ./src/net/uctr_load --connect "127.0.0.1:$port" \
    --connections 4 --requests 4000 --pipeline 4 --tables 8 --put-table \
    >/dev/null 2>&1 &
  load_pid=$!
  sleep 0.3
  kill -KILL "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true
  wait "$load_pid" 2>/dev/null || true
  # Phase 3: restart on the same directory; recovery must be announced.
  errlog2=$(mktemp)
  ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 \
    --store-dir "$store_dir" --store-fsync interval 2>"$errlog2" &
  serve_pid=$!
  port=$(scrape_port "$errlog2" "restarted uctr_serve")
  recovered=$(sed -n 's/.*recovered \([0-9]*\) table(s).*/\1/p' \
    "$errlog2" | head -n1)
  if [[ -z "$recovered" || "$recovered" -lt 8 ]]; then
    echo "durability: restart recovered '${recovered:-nothing}'," \
      "expected >= 8 tables" >&2
    cat "$errlog2" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  # Phase 4: every acked table serves again. The re-registration returns
  # the same content fingerprints (dedup against the recovered store) and
  # the ref traffic must be loss-free.
  if ! ./src/net/uctr_load --connect "127.0.0.1:$port" \
      --connections 4 --requests 320 --pipeline 4 --tables 8 --put-table; then
    echo "durability: post-recovery table_ref load failed" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "$serve_pid"
  serve_rc=0
  wait "$serve_pid" || serve_rc=$?
  if [[ "$serve_rc" -ne 0 ]]; then
    echo "durability: recovered uctr_serve exited $serve_rc after SIGTERM" >&2
    cat "$errlog2" >&2
    exit 1
  fi
  rm -rf "$store_dir" "$errlog" "$errlog2"
  echo "durability drill 1 (kill -9 + recovery) passed"

  # ------------------------------------- drill 2: router kill/rejoin
  d1=$(mktemp -d); d2=$(mktemp -d)
  b1_log=$(mktemp); b2_log=$(mktemp); r_log=$(mktemp)
  ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 \
    --store-dir "$d1" --store-fsync interval 2>"$b1_log" &
  b1_pid=$!
  ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 \
    --store-dir "$d2" --store-fsync interval 2>"$b2_log" &
  b2_pid=$!
  b1_port=$(scrape_port "$b1_log" "backend 1")
  b2_port=$(scrape_port "$b2_log" "backend 2")
  ./src/net/uctr_router --listen 127.0.0.1:0 \
    --backends "127.0.0.1:$b1_port,127.0.0.1:$b2_port" \
    --workers 16 --put-replicas 2 --probe-interval-ms 100 --metrics \
    2>"$r_log" &
  r_pid=$!
  r_port=$(scrape_port "$r_log" router)
  load() {
    ./src/net/uctr_load --router "127.0.0.1:$r_port" \
      --connections 8 --requests 480 --pipeline 4 --tables 8 --put-table
  }
  if ! load; then
    echo "durability: router baseline load failed" >&2
    kill "$r_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true
    exit 1
  fi
  kill -KILL "$b1_pid"
  wait "$b1_pid" 2>/dev/null || true
  sleep 0.5  # probes notice the corpse
  if ! load; then
    echo "durability: load lost responses while a backend was down" >&2
    kill "$r_pid" "$b2_pid" 2>/dev/null || true
    exit 1
  fi
  # Restart the killed backend on the SAME port and store dir: it must
  # recover its replicated tables itself and rejoin the ring.
  b1_log2=$(mktemp)
  ./src/serve/uctr_serve serve --workers 4 --listen "127.0.0.1:$b1_port" \
    --store-dir "$d1" --store-fsync interval 2>"$b1_log2" &
  b1_pid=$!
  scrape_port "$b1_log2" "restarted backend 1" >/dev/null
  if ! grep -q 'recovered [1-9][0-9]* table' "$b1_log2"; then
    echo "durability: restarted backend recovered no tables" >&2
    cat "$b1_log2" >&2
    kill "$r_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.5  # probes readmit it
  if ! load; then
    echo "durability: load failed after the backend rejoined" >&2
    kill "$r_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "$r_pid"
  r_rc=0
  wait "$r_pid" || r_rc=$?
  if [[ "$r_rc" -ne 0 ]]; then
    echo "durability: uctr_router exited $r_rc after SIGTERM" >&2
    cat "$r_log" >&2
    exit 1
  fi
  replicas=$(sed -n 's/^router_put_replica_total \([0-9]*\)$/\1/p' \
    "$r_log" | head -n1)
  if [[ -z "$replicas" || "$replicas" -lt 1 ]]; then
    echo "durability: router exported no replicated puts" \
      "(router_put_replica_total='${replicas:-missing}')" >&2
    cat "$r_log" >&2
    kill "$b1_pid" "$b2_pid" 2>/dev/null || true
    exit 1
  fi
  if ! grep -q '^router_read_repair_total ' "$r_log"; then
    echo "durability: router metrics missing router_read_repair_total" >&2
    kill "$b1_pid" "$b2_pid" 2>/dev/null || true
    exit 1
  fi
  kill -TERM "$b1_pid" "$b2_pid"
  wait "$b1_pid" "$b2_pid" || {
    echo "durability: a backend exited nonzero after SIGTERM" >&2
    exit 1
  }
  rm -rf "$d1" "$d2" "$b1_log" "$b2_log" "$b1_log2" "$r_log"
  echo "durability drill 2 (router kill/rejoin) passed"
  echo "durability ($SANITIZE) check passed"
  exit 0
fi
if [[ "${1:-}" == router ]]; then
  # Router mode: the ring/routing/failover suite under the sanitizer, then
  # a soak of the real stack — two uctr_serve backends behind uctr_router,
  # driven by uctr_load through the router endpoint. Run clean, then with
  # router-site faults armed (transient connect/send/recv errors must be
  # retried or failed over — every response still arrives), then SIGTERM
  # the router and require a graceful drain with exit 0.
  ./tests/router_test

  start_serve() {  # start_serve ERRLOG -> echoes port, backend pid in $!
    local errlog="$1"
    ./src/serve/uctr_serve serve --workers 4 --listen 127.0.0.1:0 \
      2>"$errlog" &
  }
  scrape_port() {  # scrape_port ERRLOG NAME
    local errlog="$1" name="$2" port=""
    for _ in $(seq 1 100); do
      port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$errlog" | head -n1)
      [[ -n "$port" ]] && break
      sleep 0.1
    done
    if [[ -z "$port" ]]; then
      echo "router soak: $name never announced its port" >&2
      cat "$errlog" >&2
      exit 1
    fi
    echo "$port"
  }

  run_router_soak() {  # run_router_soak NAME [extra uctr_router flags...]
    local name="$1"; shift
    local b1_log b2_log r_log b1_port b2_port r_port
    b1_log=$(mktemp); b2_log=$(mktemp); r_log=$(mktemp)
    start_serve "$b1_log"; local b1_pid=$!
    start_serve "$b2_log"; local b2_pid=$!
    b1_port=$(scrape_port "$b1_log" "backend 1")
    b2_port=$(scrape_port "$b2_log" "backend 2")
    ./src/net/uctr_router --listen 127.0.0.1:0 \
      --backends "127.0.0.1:$b1_port,127.0.0.1:$b2_port" \
      --workers 16 "$@" 2>"$r_log" &
    local r_pid=$!
    r_port=$(scrape_port "$r_log" "router")
    if ! ./src/net/uctr_load --router "127.0.0.1:$r_port" \
        --connections 16 --requests 960 --pipeline 8 --tables 8; then
      echo "router soak ($name): uctr_load reported lost/reordered responses" >&2
      kill "$r_pid" "$b1_pid" "$b2_pid" 2>/dev/null || true
      exit 1
    fi
    kill -TERM "$r_pid"
    local r_rc=0
    wait "$r_pid" || r_rc=$?
    if [[ "$r_rc" -ne 0 ]]; then
      echo "router soak ($name): uctr_router exited $r_rc after SIGTERM" >&2
      cat "$r_log" >&2
      exit 1
    fi
    kill -TERM "$b1_pid" "$b2_pid"
    wait "$b1_pid" "$b2_pid" || {
      echo "router soak ($name): a backend exited nonzero after SIGTERM" >&2
      exit 1
    }
    rm -f "$b1_log" "$b2_log" "$r_log"
    echo "router soak ($name) passed"
  }

  run_router_soak clean
  run_router_soak chaos --fault-spec \
    'router.send=error(unavailable):p=0.05;router.recv=error(unavailable):p=0.05' \
    --fault-seed 7
  echo "router ($SANITIZE) check passed"
  exit 0
fi
if [[ "${1:-}" == plan ]]; then
  # Compiled-plan mode: the IR/VM differential suite (every program shape
  # checked walker-vs-VM, plan cache concurrency, the bytecode verifier's
  # rejection cases) under the sanitizer, then a drill of the real
  # uctr_serve binary: every request gets an answer, never an error.
  ./tests/ir_test

  REQUESTS=$(for i in $(seq 1 20); do
    printf '{"id":%d,"op":"verify","table":"a,b\\n1,2\\n3,4\\n","query":"The a of the row whose b is 2 is 1."}\n' "$i"
  done)
  RESPONSES=$(printf '%s\n' "$REQUESTS" | ./src/serve/uctr_serve serve \
    --workers 4)
  GOT=$(printf '%s\n' "$RESPONSES" | grep -c '"id"')
  if [[ "$GOT" -ne 20 ]]; then
    echo "plan drill: expected 20 responses, got $GOT" >&2
    exit 1
  fi
  if printf '%s\n' "$RESPONSES" | grep -q '"error"'; then
    echo "plan drill: every request must be answered, not error" >&2
    exit 1
  fi
  echo "plan ($SANITIZE) check passed"
  exit 0
fi
if [[ "${1:-}" == selftrain ]]; then
  # Self-training mode: the orchestrator suite under the sanitizer (kill-
  # at-every-phase-boundary resume, confidence edge cases, fault retry),
  # then a crash drill of the real uctr_selftrain binary: start a 2-round
  # run slowed down with latency faults so kill -9 reliably lands
  # mid-loop, kill it, resume with the same flags, and require the final
  # state directory to be byte-identical to an uninterrupted run.
  # attempts.log is excluded from the diff: it is an append-only
  # operational journal whose line order races across generator threads
  # even between two uninterrupted runs (the MANIFEST, filter, weights,
  # losses, and RESULT artifacts are the determinism contract).
  ./tests/selftrain_test

  st_args=(--rounds 2 --seed 11 --tables 6 --samples-per-table 6
           --eval-tables 6 --threads 2)
  ref_dir=$(mktemp -d); crash_dir=$(mktemp -d)
  if ! ./src/selftrain/uctr_selftrain --state-dir "$ref_dir" \
      "${st_args[@]}" >/dev/null; then
    echo "selftrain drill: reference run failed" >&2
    exit 1
  fi
  ./src/selftrain/uctr_selftrain --state-dir "$crash_dir" "${st_args[@]}" \
    --fault-spec 'selftrain.generate=latency(300):p=1;selftrain.train=latency(300):p=1' \
    >/dev/null 2>&1 &
  st_pid=$!
  sleep 0.7
  kill -KILL "$st_pid" 2>/dev/null || true
  wait "$st_pid" 2>/dev/null || true
  if ! ./src/selftrain/uctr_selftrain --state-dir "$crash_dir" \
      "${st_args[@]}" >/dev/null; then
    echo "selftrain drill: resume after kill -9 failed" >&2
    exit 1
  fi
  if ! diff -r --exclude=attempts.log "$ref_dir" "$crash_dir"; then
    echo "selftrain drill: resumed state dir diverged from uninterrupted run" >&2
    exit 1
  fi
  # A mismatched run key must be rejected, not silently mixed in.
  if ./src/selftrain/uctr_selftrain --state-dir "$crash_dir" \
      "${st_args[@]}" --seed 12 >/dev/null 2>&1; then
    echo "selftrain drill: mismatched --seed was not rejected" >&2
    exit 1
  fi
  rm -rf "$ref_dir" "$crash_dir"
  echo "selftrain drill (kill -9 + byte-identical resume) passed"
  echo "selftrain ($SANITIZE) check passed"
  exit 0
fi
if [[ $# -gt 0 ]]; then
  # Run the named test binaries directly (faster than ctest discovery
  # when iterating on one suite).
  for name in "$@"; do
    "./tests/$name"
  done
else
  ctest --output-on-failure -j "$JOBS"
fi
echo "sanitizer ($SANITIZE) check passed"
