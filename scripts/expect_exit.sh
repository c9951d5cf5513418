#!/usr/bin/env bash
# Runs a command and checks how it failed: its exit status must equal
# STATUS and its stderr must contain PATTERN (a fixed string). A check on
# the message alone would also pass an abort, whose terminate handler
# prints the exception's what() too; the status tells them apart.
#
# Usage:
#   expect_exit.sh STATUS PATTERN CMD [ARG...]
set -uo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 STATUS PATTERN CMD [ARG...]" >&2
  exit 2
fi
want=$1
pattern=$2
shift 2
err=$(mktemp)
trap 'rm -f "$err"' EXIT

"$@" >/dev/null 2>"$err"
rc=$?
cat "$err" >&2
if [ "$rc" -ne "$want" ]; then
  echo "expect_exit: '$*' exited $rc, want $want" >&2
  exit 1
fi
if ! grep -qF -- "$pattern" "$err"; then
  echo "expect_exit: stderr of '$*' lacks '$pattern'" >&2
  exit 1
fi
