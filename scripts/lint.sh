#!/usr/bin/env bash
# Custom greppable lint checks for hazards clang-tidy does not model in
# this codebase (thread-per-rank simulator; see DESIGN.md "Analysis
# layer"). Pure bash+grep+awk: runs on the minimal container image, no
# clang tooling needed.
#
# The checks form a declarative registry: every rule has a name, a
# scanned-file filter, a one-line rationale, and a matcher function
# `match_<rule>` that emits raw `file:line: message` hits. The driver
# owns everything else — file discovery, the `// lint:allow(<rule>)`
# suppression protocol (checked on the reported line, centrally), the
# grouped output, and the exit status. Adding a rule = adding one row
# to RULES plus one matcher function.
#
# Usage:
#   lint.sh                 run every rule over the repo
#   lint.sh --list          print the registry (name + rationale)
#   lint.sh --only RULE     run a single rule
#   lint.sh --root DIR      scan DIR instead of the repo root (the
#                           self-test points this at fixture trees;
#                           see scripts/lint_test.sh)
#
# Suppress a deliberate instance with a comment on the offending line:
#   // lint:allow(<rule-name>)
set -u

# ------------------------------------------------------------ registry
# name | rationale (shown in --list and in failure headers)
RULES=(
  "raw-lock|bare .lock() on a mutex-named variable: locks must be held through std::lock_guard / unique_lock / scoped_lock so an exception (poisoned barrier, ledger mismatch) cannot leave a mutex locked forever"
  "comm-under-lock|blocking collective/p2p/barrier while a lock guard is live: a rank blocking in a rendezvous while holding a lock deadlocks any peer that needs the same lock to reach its rendezvous"
  "raw-storage|tensor-scale float buffers allocated outside the pool: new float[] anywhere, or std::vector<float> in src/ outside src/tensor + src/memory — bulk float storage must come from Storage so the arena's stats see every buffer"
  "serve-raw-buffer|per-request buffer in src/serve off the pool arena (malloc, new[], byte/float vectors): serving state scales with concurrent sequences; KV blocks and decode scratch must be Tensors so bench_serve's numbers see every byte"
  "hot-permute|generic ops::/ag::permute on the model hot path (src/core, src/model, src/pipeline, src/train): it is an element-at-a-time gather; use the specialized blocked copies (ops::sbh_to_bhsd etc.)"
  "layers-direct-comm|direct collective wiring in src/core/layers.*: layers must route every TP/SP communication decision through the ParallelPlan strategy (env.plan()) — including core/collectives.h or calling Comm collectives / conjugate-pair helpers there re-hardwires the schedule the plan owns"
  "libm-in-kernel|libm std::exp / std::tanh / expf / tanhf in the kernel library (src/tensor/kernels.{h,cpp}): a libm call per element stops the fused GeLU and softmax epilogues from auto-vectorizing; use the file's libm-free tanh_f32 / exp_f32 bodies"
  "env-knob-docs|README.md and the MLS_* environment knobs drift apart: every \"MLS_*\" literal read in src/ must appear in README.md, and every MLS_* name in the first cell of a README table row must appear under src/, tests/, examples/, bench/, CMakeLists.txt or .github/workflows/"
  "inert-env-reader|an out-of-line T::from_env() defined in src/ that nothing calls: its environment reads never run, so the knobs it parses (and their README rows) do nothing while looking live — delete the reader or call it"
)

rule_names() {
  local row
  for row in "${RULES[@]}"; do printf '%s\n' "${row%%|*}"; done
}

rule_rationale() {
  local row
  for row in "${RULES[@]}"; do
    if [ "${row%%|*}" = "$1" ]; then
      printf '%s\n' "${row#*|}"
      return
    fi
  done
}

# ------------------------------------------------------------ matchers
# Each matcher reads the newline-separated scanned file list on stdin
# and emits raw hits as `file:line: message` (no indent, no
# suppression handling — the driver does both).

match_raw_lock() {
  # Variables named *mu / *mutex / *mtx (with optional trailing _)
  # must not be locked manually.
  xargs -r grep -nE '\b[A-Za-z_][A-Za-z0-9_]*(mu|mutex|mtx)_?\.lock\(\)' \
      /dev/null 2>/dev/null |
    awk -F: '{printf "%s:%s: raw mutex .lock() without a guard\n", $1, $2}'
}

match_comm_under_lock() {
  # Brace-depth scan: after a std::{lock_guard,unique_lock,scoped_lock}
  # declaration, any blocking comm call before the guard's scope closes
  # is flagged. Condvar waits are not comm calls and do not trip this.
  xargs -r awk '
    FNR == 1 { depth = 0; nlocks = 0 }
    {
      line = $0
      sub(/\/\/.*/, "", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      is_lock = (line ~ /std::(lock_guard|unique_lock|scoped_lock)[ \t]*</)
      is_comm = (line ~ /\.(all_reduce|all_gather|reduce_scatter|broadcast|barrier|recv|send)[ \t]*\(/ \
                 || line ~ /\.arrive_and_wait[ \t]*\(/)
      if (is_comm && nlocks > 0 && !is_lock)
        printf "%s:%d: blocking comm call while a lock guard is live\n", \
               FILENAME, FNR
      n = length(line)
      for (i = 1; i <= n; i++) {
        ch = substr(line, i, 1)
        if (ch == "{") depth++
        else if (ch == "}") {
          depth--
          while (nlocks > 0 && lockdepth[nlocks] > depth) nlocks--
        }
      }
      if (is_lock) { nlocks++; lockdepth[nlocks] = depth }
    }
  '
}

match_raw_storage() {
  # Comment text and string literals are stripped before matching. The
  # vector<float> arm applies only inside src/ (tests/bench/examples
  # may use host-side float lists freely) and exempts the pool itself.
  xargs -r awk '
    {
      line = $0
      sub(/\/\/.*/, "", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      hit = 0
      if (line ~ /(^|[^A-Za-z0-9_])new[ \t]+float[ \t]*\[/) hit = 1
      if (FILENAME ~ /(^|\/)src\// && FILENAME !~ /(^|\/)src\/(tensor|memory)\// \
          && line ~ /std::vector[ \t]*<[ \t]*float[ \t]*>/) hit = 1
      if (hit)
        printf "%s:%d: raw float buffer bypasses the pool allocator\n", \
               FILENAME, FNR
    }
  '
}

match_serve_raw_buffer() {
  # Stricter than raw-storage: also catches malloc/calloc and
  # byte-scale vectors, which in src/serve are per-sequence payloads
  # (KV, token scratch), not bookkeeping. Vectors of ids/indices/
  # doubles are fine.
  xargs -r awk '
    {
      line = $0
      sub(/\/\/.*/, "", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      hit = 0
      if (line ~ /(^|[^A-Za-z0-9_])(malloc|calloc|realloc)[ \t]*\(/) hit = 1
      if (line ~ /(^|[^A-Za-z0-9_])new[ \t]+(float|char|unsigned[ \t]+char|(std::)?uint8_t)[ \t]*\[/) hit = 1
      if (line ~ /std::vector[ \t]*<[ \t]*(float|char|unsigned[ \t]+char|(std::)?uint8_t)[ \t]*>/) hit = 1
      if (hit)
        printf "%s:%d: per-request buffer allocated off the pool arena\n", \
               FILENAME, FNR
    }
  '
}

match_hot_permute() {
  # Comm-layer staging keeps its generic calls (its files are filtered
  # out below); layers/models/pipeline must use the specialized layout
  # kernels.
  xargs -r grep -nE '\b(ops|ag)::permute[ \t]*\(' /dev/null 2>/dev/null |
    awk -F: '{printf "%s:%s: generic permute on a hot path\n", $1, $2}'
}

match_layers_direct_comm() {
  # The include is checked before string literals are blanked (it IS a
  # string); everything else is matched with comments/strings stripped.
  xargs -r awk '
    {
      line = $0
      sub(/\/\/.*/, "", line)
      if (line ~ /#include[ \t]*"core\/collectives\.h"/) {
        printf "%s:%d: layers must not include core/collectives.h (use env.plan())\n", \
               FILENAME, FNR
        next
      }
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      hit = 0
      if (line ~ /\.(i?all_reduce|i?all_gather|i?reduce_scatter|broadcast|barrier|i?send|i?recv)[ \t]*\(/) hit = 1
      if (line ~ /(^|[^A-Za-z0-9_])(copy_to_tensor_parallel|reduce_from_tensor_parallel|gather_from_sequence_parallel|scatter_to_sequence_parallel|sp_gathered_matmul)[ \t]*\(/) hit = 1
      if (hit)
        printf "%s:%d: direct collective call in layers; route it through the ParallelPlan\n", \
               FILENAME, FNR
    }
  '
}

match_libm_in_kernel() {
  # Word-bounded, with comments and string literals stripped, so
  # std::expm1, exp_f32 or a "std::exp" in a message do not trip it.
  xargs -r awk '
    {
      line = $0
      sub(/\/\/.*/, "", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      if (line ~ /std::(exp|tanh)([^A-Za-z0-9_]|$)/ \
          || line ~ /(^|[^A-Za-z0-9_])(expf|tanhf)([^A-Za-z0-9_]|$)/)
        printf "%s:%d: libm transcendental in the kernel library\n", \
               FILENAME, FNR
    }
  '
}

match_env_knob_docs() {
  # Check 1 (source -> README): each quoted MLS_* literal in a src/
  # file must be named, as a whole word, somewhere in README.md.
  grep -E '(^|/)src/' | xargs -r grep -noE '"MLS_[A-Z0-9_]+"' /dev/null \
      2>/dev/null |
    while IFS=: read -r file line lit; do
      knob="${lit//\"/}"
      grep -qwF -- "$knob" README.md 2>/dev/null ||
        printf '%s:%s: env knob %s is read here but not documented in README.md\n' \
            "$file" "$line" "$knob"
    done
  # Check 2 (README -> source): each MLS_* name in a table row's first
  # cell must still be read, set or exercised somewhere in the tree.
  [ -f README.md ] || return 0
  awk -F'|' '/^\|/ { print FNR "|" $2 }' README.md |
    while IFS='|' read -r line cell; do
      for knob in $(printf '%s\n' "$cell" | grep -oE 'MLS_[A-Z0-9_]+'); do
        grep -rqwF -- "$knob" src tests examples bench CMakeLists.txt \
            .github/workflows 2>/dev/null ||
          printf 'README.md:%s: %s is documented but nothing in the tree uses it\n' \
              "$line" "$knob"
      done
    done
}

match_inert_env_reader() {
  # A definition is a column-0 `Ret Class::from_env(` line in src/. A
  # call site is any other line naming `Class::from_env(`, or a bare
  # `from_env(` in the defining file (a call from another member);
  # `static Ret from_env();` declarations do not count. Comments and
  # string literals are stripped first.
  xargs -r awk '
    {
      line = $0
      sub(/\/\/.*/, "", line)
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      where = FILENAME ":" FNR
      if (FILENAME ~ /(^|\/)src\// \
          && line ~ /^[A-Za-z_][A-Za-z0-9_:<>]*[ \t]+([A-Za-z_][A-Za-z0-9_]*::)+from_env[ \t]*\(/) {
        cls = line
        sub(/::from_env.*/, "", cls)
        sub(/.*[^A-Za-z0-9_]/, "", cls)
        nd++; dcls[nd] = cls; dfile[nd] = FILENAME; dwhere[nd] = where
      }
      if (line ~ /static[^;]*from_env[ \t]*\([ \t]*\)[ \t]*;/) next
      rest = line
      while (match(rest, /[A-Za-z_][A-Za-z0-9_]*::from_env[ \t]*\(/)) {
        q = substr(rest, RSTART, RLENGTH)
        sub(/::.*/, "", q)
        qref[q] = qref[q] SUBSEP where
        rest = substr(rest, RSTART + RLENGTH)
      }
      if (line ~ /(^|[^:A-Za-z0-9_])from_env[ \t]*\(/)
        bref[FILENAME] = bref[FILENAME] SUBSEP where
    }
    function called_elsewhere(refs, self,    n, parts, i) {
      n = split(refs, parts, SUBSEP)
      for (i = 1; i <= n; i++)
        if (parts[i] != "" && parts[i] != self) return 1
      return 0
    }
    END {
      for (i = 1; i <= nd; i++) {
        if (called_elsewhere(qref[dcls[i]], dwhere[i])) continue
        if (called_elsewhere(bref[dfile[i]], dwhere[i])) continue
        printf "%s: %s::from_env() is defined but never called\n", \
               dwhere[i], dcls[i]
      }
    }
  '
}

# Per-rule file filter: which of the scanned files a rule looks at.
files_for_rule() {
  case "$1" in
    serve-raw-buffer) grep -E '(^|/)src/serve/' || true ;;
    hot-permute) grep -E '(^|/)src/(core|model|pipeline|train)/' || true ;;
    layers-direct-comm) grep -E '(^|/)src/core/layers' || true ;;
    # kernels.{h,cpp}, and any file later split out under kernels/.
    libm-in-kernel) grep -E '(^|/)src/tensor/kernels(\.h|\.cpp|/)' || true ;;
    *) cat ;;
  esac
}

# -------------------------------------------------------------- driver

# Drops hits whose reported source line carries the rule's
# lint:allow(...) suppression comment.
filter_suppressed() {
  local rule="$1" hit file line
  while IFS= read -r hit; do
    [ -z "$hit" ] && continue
    file="${hit%%:*}"
    line="${hit#*:}"
    line="${line%%:*}"
    if sed -n "${line}p" "$file" 2>/dev/null |
        grep -qF "lint:allow(${rule})"; then
      continue
    fi
    printf '%s\n' "$hit"
  done
}

run_rule() {
  local rule="$1" files hits
  files=$(printf '%s\n' "$FILES" | files_for_rule "$rule")
  [ -z "$files" ] && return 0
  hits=$(printf '%s\n' "$files" |
      "match_$(printf '%s' "$rule" | tr - _)" |
      filter_suppressed "$rule")
  [ -z "$hits" ] && return 0
  echo "lint: ${rule}: $(rule_rationale "$rule")"
  echo "      (suppress with // lint:allow(${rule}))"
  printf '%s\n' "$hits" | sed 's/^/  /'
  return 1
}

root="$(dirname "$0")/.."
only=""
while [ $# -gt 0 ]; do
  case "$1" in
    --list)
      while IFS= read -r name; do
        printf '%-18s %s\n' "$name" "$(rule_rationale "$name")"
      done < <(rule_names)
      exit 0
      ;;
    --only)
      only="$2"
      shift
      ;;
    --root)
      root="$2"
      shift
      ;;
    *)
      echo "usage: lint.sh [--list] [--only RULE] [--root DIR]" >&2
      exit 2
      ;;
  esac
  shift
done

cd "$root"
FILES=$(find src tests bench examples \( -name '*.cpp' -o -name '*.h' \) \
    2>/dev/null | sort)

status=0
while IFS= read -r name; do
  if [ -n "$only" ] && [ "$name" != "$only" ]; then continue; fi
  run_rule "$name" || status=1
done < <(rule_names)

if [ -n "$only" ] && ! rule_names | grep -qx "$only"; then
  echo "lint: unknown rule '$only' (see --list)" >&2
  exit 2
fi

if [ "$status" -eq 0 ]; then
  echo "lint: all checks clean."
fi
exit "$status"
