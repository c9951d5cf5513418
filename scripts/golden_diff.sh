#!/usr/bin/env bash
# Runs one or more commands, concatenates their stdout and diffs it
# byte for byte against a tracked golden file. Fails if a command exits
# nonzero or any byte differs; the diff shows which lines moved.
#
# Usage:
#   golden_diff.sh GOLDEN CMD [ARG...] [-- CMD [ARG...]]...
#
# Regenerate a golden (run the same commands, redirect into the file)
# only for an intended output change.
set -uo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 GOLDEN CMD [ARG...] [-- CMD [ARG...]]..." >&2
  exit 2
fi
golden=$1
shift
out=$(mktemp)
trap 'rm -f "$out"' EXIT

status=0
cmd=()
for arg in "$@" --; do
  if [ "$arg" != -- ]; then
    cmd+=("$arg")
    continue
  fi
  if [ ${#cmd[@]} -gt 0 ]; then
    "${cmd[@]}" >>"$out"
    rc=$?
    if [ $rc -ne 0 ]; then
      echo "golden_diff: '${cmd[*]}' exited $rc" >&2
      status=1
    fi
  fi
  cmd=()
done

if ! diff -u "$golden" "$out"; then
  echo "golden_diff: stdout differs from $golden" >&2
  status=1
fi
exit "$status"
