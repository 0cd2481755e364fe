#!/usr/bin/env bash
# Dead-code check: fails when a uctr library defines an external function
# that no production binary keeps and that is not on the allowlist below.
#
# Usage:
#   scripts/dead_code.sh
#
# Production binaries are every executable the main tree builds outside
# tests/ (the tools, the benches and the examples) plus perfbench. Both
# trees are built into build-deadcode/ at -O0 with -ffunction-sections
# -fdata-sections and linked with --gc-sections, so each binary keeps
# just the functions it can reach. At -O2 a function inlined into all of
# its callers would read as unkept. Without -fdata-sections an object's
# read-only data is one section, so a switch's jump table, which points
# into its function, keeps that function whenever anything else keeps
# the section: ir::VerifyPlan read as kept that way.
#
# The check compares the `T` symbols of every libuctr_*.a (src/ and
# bench's harness library) with the symbols defined in the production
# binaries, demangles what is left and drops the allowlisted names.
set -euo pipefail

cd "$(dirname "$0")/.."

# Functions no production binary calls that tests need. Each is a
# qualified name without its parameter list.
allowlist=(
  # Seams that substitute a fake or reset a process-wide singleton.
  uctr::fault::RetryPolicy::set_sleep_fn     # retries run without sleeping
  uctr::fault::CircuitBreaker::set_clock_fn  # cool-downs run on a fake clock
  uctr::fault::FaultInjector::Disarm         # resets the process-wide injector
  uctr::fault::FaultInjector::set_metrics    # counts fires in a test registry
  uctr::net::Server::Shutdown                # stops a server a test started
  uctr::net::Client::ShutdownWrite           # half-closes to test drains
  # Observers that tests assert on.
  uctr::fault::CircuitBreaker::state         # breaker transition tests
  uctr::serve::Scheduler::EstimatedJobMicros # deadline-admission tests
  # References and oracles that tests compare production against.
  uctr::ir::VerifyPlan                       # lowered plans are well formed
  uctr::TemplateForm::Walk                   # reference for the bound plans
  uctr::sql::SelectStatement::ToString       # parse round-trip printer
  uctr::arith::Expression::ToString          # parse round-trip printer
  # Type names that pinned digests fold.
  uctr::ValueTypeToString                    # ir_test, interpreter_test
  uctr::ColumnTypeToString                   # hybrid_test
)

out=build-deadcode
configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}
configure . "$out/main"
configure perfbench "$out/perfbench"
cmake --build "$out/main" -j "$(nproc)" >/dev/null
cmake --build "$out/perfbench" --target perfbench -j "$(nproc)" >/dev/null

mapfile -t libs < <(find "$out/main" -name 'libuctr_*.a' \
  ! -path "$out/main/tests/*" | sort)
mapfile -t bins < <(find "$out/main" -type f -perm -u+x \
  ! -path '*/CMakeFiles/*' ! -path "$out/main/tests/*" | sort)
bins+=("$out/perfbench/perfbench")

export LC_ALL=C
kept=$(for b in "${bins[@]}"; do nm --defined-only "$b"; done \
  | awk '{print $NF}' | sort -u)
unkept=$(nm --defined-only "${libs[@]}" 2>/dev/null \
  | awk '$2 == "T" {print $3}' | sort -u | comm -23 - <(echo "$kept") \
  | c++filt | sort -u)
# A function is matched by its name without parameters or ABI tags, so an
# allowlist entry covers its overloads and constructor variants. An entry
# that no unkept function matches is reported too, so the list stays short.
report=$(echo "$unkept" | awk -v allow="${allowlist[*]}" '
  BEGIN { n = split(allow, a, " "); for (i = 1; i <= n; i++) ok[a[i]] = 1 }
  NF {
    name = $0; sub(/\(.*/, "", name); gsub(/\[abi:[^]]*\]/, "", name)
    if (name in ok) seen[name] = 1; else print "unkept: " $0
  }
  END {
    for (i = 1; i <= n; i++)
      if (!(a[i] in seen)) print "allowlisted but kept or gone: " a[i]
  }')

echo "${#libs[@]} libraries, ${#bins[@]} production binaries," \
  "${#allowlist[@]} allowlisted functions"
if [[ -n "$report" ]]; then
  echo "$report"
  echo "delete an unkept function, make it file-local, or allowlist a" \
    "test seam; drop an allowlist entry that is kept or gone"
  exit 1
fi
echo "every library function is kept by a production binary or allowlisted"
