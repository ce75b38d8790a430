#!/usr/bin/env bash
# CLI surface smoke: drive `hgmine_cli follow` end to end and pin the
# flag and exit-code surface that `mine` and `follow` share:
#
#   * a file feed with --window/--slide/--report exits 0 and writes one
#     <p>.w<k>.json envelope per boundary, each `completed` with a
#     `stream` bound report;
#   * a feed whose item distribution shifts mid-stream, under
#     --max-queries, completes some boundaries and then trips: exit 3, a
#     `hgmine-checkpoint v1` file, stream bounds on the earlier
#     boundaries' envelopes, and a `checkpoint` section with no `bounds`
#     on the tripped one;
#   * stdin (`follow -` with --items) prints the same boundary lines as
#     the file feed;
#   * --metrics=- prints the stream bound report;
#   * usage errors exit 2 (missing --window, a --slide that does not
#     divide the window, a non-numeric --window, an unknown flag, and a
#     `mine --rules` confidence that is not a finite number in [0,1]);
#     I/O errors exit 1 (missing file, a feed shorter than one slide).
#
# Usage: scripts/cli_surface_smoke.sh [path-to-hgmine_cli]
set -eu
cd "$(dirname "$0")/.."

CLI="${1:-build/examples/hgmine_cli}"
if [ ! -x "$CLI" ]; then
  echo "cli_surface_smoke: $CLI is not an executable (build it first)" >&2
  exit 2
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "cli_surface_smoke: FAIL: $1" >&2
  exit 1
}

# Expect a specific exit code from a command that is allowed to fail.
expect_rc() {
  local want="$1"
  shift
  local rc=0
  "$@" > "$TMP/last.txt" 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "cli_surface_smoke: FAIL: '$*' exited $rc, want $want" >&2
    sed 's/^/  | /' "$TMP/last.txt" >&2
    exit 1
  fi
}

# 3000 rows: items 0-9 for the first 1500, items 10-19 after, each item
# present with probability 0.3 (Park-Miller LCG, exact in awk doubles).
awk 'BEGIN {
  x = 12345
  for (r = 0; r < 3000; r++) {
    base = (r < 1500) ? 0 : 10
    line = ""
    for (j = 0; j < 10; j++) {
      x = (x * 16807) % 2147483647
      if (x % 1000 < 300) line = line (line == "" ? "" : " ") (base + j)
    }
    if (line == "") line = base
    print line
  }
}' > "$TMP/shift.basket"

# --- 1. file feed: exit 0, one completed envelope per boundary.
"$CLI" follow "$TMP/shift.basket" 60 --window=1000 --slide=250 --items=20 \
  --report="$TMP/r.json" > "$TMP/file.txt" ||
  fail "file feed with --report did not exit 0"
boundaries="$(grep -c '^window [0-9]*: rows=' "$TMP/file.txt")"
[ "$boundaries" -ge 2 ] || fail "expected >= 2 boundaries, saw $boundaries"
reports="$(ls "$TMP"/r.w*.json | wc -l)"
[ "$reports" -eq "$boundaries" ] ||
  fail "$boundaries boundaries but $reports envelopes"
k=0
while [ "$k" -lt "$boundaries" ]; do
  env="$TMP/r.w$k.json"
  [ -s "$env" ] || fail "missing envelope $env"
  grep -q '"stop_reason": "completed"' "$env" ||
    fail "envelope w$k is not 'completed'"
  grep -q '"stream": ' "$env" || fail "envelope w$k has no stream bounds"
  k=$((k + 1))
done

# --- 2. budget trip after completed boundaries: exit 3 + checkpoint.
expect_rc 3 "$CLI" follow "$TMP/shift.basket" 60 --window=1000 --slide=250 \
  --items=20 --max-queries=100 --checkpoint="$TMP/cp.txt" \
  --report="$TMP/t.json"
done_before="$(grep -c '^window [0-9]*: rows=' "$TMP/last.txt" || true)"
[ "$done_before" -ge 1 ] ||
  fail "the budgeted run tripped before completing any boundary"
grep -q "^window $done_before: stopped early" "$TMP/last.txt" ||
  fail "the budgeted run did not report its tripped boundary"
[ -s "$TMP/cp.txt" ] || fail "budget trip did not write a checkpoint"
head -n 1 "$TMP/cp.txt" | grep -q 'hgmine-checkpoint v1' ||
  fail "checkpoint file is missing its format header"
k=0
while [ "$k" -lt "$done_before" ]; do
  grep -q '"stream": ' "$TMP/t.w$k.json" ||
    fail "completed boundary w$k has no stream bounds"
  k=$((k + 1))
done
tripped="$TMP/t.w$done_before.json"
[ -s "$tripped" ] || fail "the tripped boundary wrote no envelope"
grep -q '"checkpoint": {' "$tripped" ||
  fail "the tripped envelope has no checkpoint section"
grep -q '"bounds"' "$tripped" &&
  fail "the tripped envelope carries bounds from an earlier boundary" || true

# --- 3. stdin feed: the same boundary lines as the file feed.
"$CLI" follow - 60 --window=1000 --slide=250 --items=20 \
  < "$TMP/shift.basket" > "$TMP/stdin.txt" ||
  fail "stdin feed did not exit 0"
grep '^window ' "$TMP/file.txt" > "$TMP/file_windows.txt"
grep '^window ' "$TMP/stdin.txt" > "$TMP/stdin_windows.txt"
diff -q "$TMP/file_windows.txt" "$TMP/stdin_windows.txt" > /dev/null ||
  fail "stdin feed's boundary lines differ from the file feed's"

# --- 4. --metrics=- prints the stream bound report.
"$CLI" follow "$TMP/shift.basket" 60 --window=1000 --slide=250 --items=20 \
  --metrics=- > "$TMP/metrics.txt" || fail "--metrics=- did not exit 0"
grep -q 'stream bound report' "$TMP/metrics.txt" ||
  fail "--metrics=- printed no stream bound report"

# --- 5. error paths: contracted exit codes, no crash.
expect_rc 2 "$CLI" follow "$TMP/shift.basket" 60
expect_rc 2 "$CLI" follow "$TMP/shift.basket" 60 --window=1000 --slide=300
expect_rc 2 "$CLI" follow "$TMP/shift.basket" 60 --window=abc
expect_rc 2 "$CLI" follow "$TMP/shift.basket" 60 --window=1000 --no-such-flag
expect_rc 1 "$CLI" follow "$TMP/no-such-file.basket" 60 --window=1000
head -n 100 "$TMP/shift.basket" > "$TMP/short.basket"
expect_rc 1 "$CLI" follow "$TMP/short.basket" 60 --window=1000 --slide=250
for conf in nan inf -0.1; do
  expect_rc 2 "$CLI" mine "$TMP/shift.basket" 60 --rules "$conf"
done

echo "cli_surface_smoke: OK ($boundaries boundaries, trip after" \
  "$done_before, stdin matches file, error codes honored)"
