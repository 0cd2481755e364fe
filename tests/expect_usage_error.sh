#!/bin/sh
# Checks that a tool refuses a command line carrying one bad flag as a
# usage error, before it does any work:
#   - it exits with STATUS, the tool's usage status (not a signal, and
#     not a run with defaults);
#   - stderr is one line, and that line names FLAG (so nothing was
#     trained, loaded, listened on or connected to first);
#   - PATH, a directory the command would create ("-" for none), is
#     absent afterwards.
#
#   expect_usage_error.sh STATUS FLAG PATH COMMAND [ARG...]
#
# stdin is /dev/null, and `timeout` bounds a tool that starts serving
# instead of refusing.
set -u
status=$1 flag=$2 path=$3
shift 3
command="$*"
[ "$path" = - ] || rm -rf "$path"
err=$(timeout 30 "$@" 2>&1 >/dev/null </dev/null)
rc=$?
fail() {
  printf 'expect_usage_error: %s\n  command: %s\n  exit: %s\n  stderr: %s\n' \
    "$1" "$command" "$rc" "$err" >&2
  exit 1
}
[ "$rc" -eq "$status" ] || fail "expected exit $status"
[ "$(printf '%s\n' "$err" | wc -l)" -eq 1 ] || fail "expected one stderr line"
printf '%s\n' "$err" | grep -qF -- "$flag" || fail "stderr does not name $flag"
[ "$path" = - ] || [ ! -e "$path" ] || fail "$path was created"
echo "refused: $err"
