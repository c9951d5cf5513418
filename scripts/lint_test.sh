#!/usr/bin/env bash
# Self-test for scripts/lint.sh: every rule in the registry must fire
# on its bad fixture tree (naming the offending fixture file) and stay
# silent — including honoring // lint:allow(...) suppressions — on the
# good tree. Run by CI next to the real lint pass; a rule without
# fixtures fails the coverage check, so new rules arrive tested.
set -u

cd "$(dirname "$0")/.."
LINT=scripts/lint.sh
BAD="$(pwd)/scripts/lint/fixtures/bad"
GOOD="$(pwd)/scripts/lint/fixtures/good"
fails=0

fail() {
  echo "lint_test FAIL: $1"
  fails=1
}

# expect_fires RULE NEEDLE: the rule must exit nonzero on the bad tree
# and its output must name NEEDLE (the fixture that seeded the hazard).
expect_fires() {
  local rule="$1" needle="$2" out
  out=$("$LINT" --root "$BAD" --only "$rule" 2>&1)
  if [ $? -eq 0 ]; then
    fail "rule '$rule' did not fire on $BAD"
    return
  fi
  if ! printf '%s\n' "$out" | grep -q "$needle"; then
    fail "rule '$rule' fired but did not name $needle:
$out"
  fi
}

# expect_clean RULE: the rule must exit zero on the good tree (real
# negatives and suppressed positives alike).
expect_clean() {
  local rule="$1" out
  out=$("$LINT" --root "$GOOD" --only "$rule" 2>&1)
  if [ $? -ne 0 ]; then
    fail "rule '$rule' fired on the good tree:
$out"
  fi
}

expect_fires raw-lock         raw_lock_bad.h
expect_fires comm-under-lock  comm_under_lock_bad.cpp
expect_fires raw-storage      raw_storage_bad.cpp
expect_fires serve-raw-buffer serve_raw_buffer_bad.cpp
expect_fires hot-permute      hot_permute_bad.cpp
expect_fires layers-direct-comm layers_direct_comm_bad.cpp
expect_fires libm-in-kernel   libm_in_kernel_bad.cpp
# env-knob-docs has two checks; each must fire on its own fixture.
expect_fires env-knob-docs    env_knob_docs_bad.cpp
expect_fires env-knob-docs    README.md
expect_fires inert-env-reader inert_env_reader_bad.cpp

for rule in $("$LINT" --list | awk '{print $1}'); do
  expect_clean "$rule"
done

# Registry coverage: every listed rule must have an expect_fires case
# above (i.e., a bad fixture whose name encodes the rule).
for rule in $("$LINT" --list | awk '{print $1}'); do
  slug=$(printf '%s' "$rule" | tr - _)
  if ! find "$BAD" -name "${slug}_bad.*" | grep -q .; then
    fail "rule '$rule' has no bad fixture (${slug}_bad.*)"
  fi
done

# Unknown rules are an error, not a silent no-op.
if "$LINT" --only no-such-rule >/dev/null 2>&1; then
  fail "--only with an unknown rule should exit nonzero"
fi

if [ "$fails" -eq 0 ]; then
  echo "lint_test: all rules fire on bad fixtures and stay clean on good."
fi
exit "$fails"
