#!/usr/bin/env bash
# The pre-PR gate: lint wall + the full build/test matrix.
#
#   1. format + tidy          (scripts/lint.sh; skipped when clang absent)
#   2. plain build            -DHGMINE_WERROR=ON, full ctest
#   3. telemetry smoke        scripts/obs_smoke.sh + ctest -L obs on the
#                             plain build (Theorem-10 meter, trace shape)
#   4. shard determinism      ctest -L partition + -L sampling on the
#                             plain build (partition miner bit-identical
#                             to Apriori at every K and thread count)
#   5. robustness             ctest -L robustness on the plain build
#                             (budget trips, checkpoint/resume identity,
#                             the seeded chaos matrix, the CLI smoke)
#   6. stream identity        ctest -L stream on the plain build (every
#                             window boundary's streamed borders equal the
#                             batch re-mine, incl. trip + resume; repair
#                             beats re-mining in the perf smoke)
#   7. serving                ctest -L serve on the plain build
#                             (hgmine_serve daemon smoke: typed sheds,
#                             kill -9 + restart bit-identity, SIGTERM
#                             drain report; plus the serve unit and
#                             chaos suites)
#   8. perf smoke             ctest -L perf on the plain build
#                             (bench_partition / bench_stream /
#                             bench_serve --quick fixtures with their
#                             wall-clock budgets)
#   9. bench regression gate  scripts/bench_gate.sh: comparator self-test,
#                             then each --quick hgm.run_report envelope
#                             diffed against bench/baselines/ (counts
#                             exact, timings ratio-thresholded).  Skipped
#                             when python3 is not installed.
#  10. perfbench              the benchmark's own build and driver
#                             (perfbench/, which tier-1 never compiles):
#                             its stats unit tests, then every workload
#                             for one second, plus a traced quest_batch.
#                             Skipped when python3 is not installed.
#  11. audited build          -DHGMINE_AUDIT=ON, full ctest with every
#                             paper-contract auditor live
#  12. thread-safety          clang -Wthread-safety -Werror=thread-safety
#                             build (the `analyze` preset's configuration;
#                             compile-only).  Skipped when clang is not
#                             installed, like the lint stages.
#  13. invariant queries      clang-query rule selftest + the rules over
#                             src/ (scripts/lint_query_selftest.sh; also
#                             part of stage 1's lint.sh).  Skipped when
#                             clang-query is not installed.
#  14. ASan+UBSan build       HGMINE_SANITIZE=address
#  15. TSan build             HGMINE_SANITIZE=thread (parallel batch
#                             layer; full ctest includes the chaos and
#                             serve suites, so fault injection and the
#                             daemon's thread choreography run under
#                             TSan too)
#
# Stages 14 and 15 are skipped with --fast.  Build dirs are check-* so
# they never collide with a developer's build/.
#
# Usage: scripts/check.sh [--fast]

set -eu
cd "$(dirname "$0")/.."

FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

JOBS="$(nproc 2> /dev/null || echo 4)"

run_matrix_entry() {
  local name="$1"
  shift
  echo "==== check: $name ===="
  cmake -B "check-$name" -S . "$@" > /dev/null
  cmake --build "check-$name" -j "$JOBS" > /dev/null
  (cd "check-$name" && ctest --output-on-failure -j "$JOBS")
}

echo "==== check: lint wall ===="
if scripts/lint.sh build; then
  echo "lint: clean"
else
  code=$?
  if [ "$code" -eq 77 ]; then
    echo "lint: skipped (clang tools not installed)"
  else
    echo "lint: FAILED" >&2
    exit "$code"
  fi
fi

run_matrix_entry plain -DHGMINE_WERROR=ON

echo "==== check: telemetry smoke ===="
scripts/obs_smoke.sh check-plain/examples/hgmine_cli
(cd check-plain && ctest -L obs --output-on-failure -j "$JOBS")

echo "==== check: shard determinism ===="
(cd check-plain && ctest -L partition --output-on-failure -j "$JOBS")
(cd check-plain && ctest -L sampling --output-on-failure -j "$JOBS")

echo "==== check: robustness ===="
# Budget trips, checkpoint/resume bit-identity, the seeded chaos matrix,
# checkpoint parser hardening, and the CLI fault-tolerance smoke.
(cd check-plain && ctest -L robustness --output-on-failure -j "$JOBS")

echo "==== check: stream identity ===="
# Streamed Th / Bd+ / Bd- bit-identical to batch re-mining at every
# window boundary (including budget trip + resume), and the incremental
# repair beating per-window re-mining in the perf smoke.
(cd check-plain && ctest -L stream --output-on-failure)

echo "==== check: serving ===="
# hgmine_serve lifecycle: admission sheds typed, kill -9 + restart
# resumes sessions bit-identically, SIGTERM drain emits a valid final
# run report, and the in-process serve/chaos unit suites pass.  The TSan
# matrix entry below re-runs the same `serve`-labelled tests under
# -fsanitize=thread, so the worker/watchdog/checkpointer interleavings
# get a data-race replay too.
(cd check-plain && ctest -L serve --output-on-failure)

echo "==== check: perf smoke ===="
# bench_partition --quick: partition(K=4, T=4) must match Apriori's
# output exactly and finish within 1.2x its single-thread wall clock.
# bench_stream --quick: streamed borders identical to batch re-mining
# with the summed repair time beating the summed re-mine time.
(cd check-plain && ctest -L perf --output-on-failure)

echo "==== check: bench regression gate ===="
# bench_compare.py --self-test proves the comparator still flags a
# synthetic 2x slowdown and passes an identical pair; then the --quick
# envelope is diffed against the committed baseline (counts exact,
# timings ratio-thresholded).  Also runs under `ctest -L perf` above;
# repeated here as a named stage so a gate failure is unmistakable.
if command -v python3 > /dev/null 2>&1; then
  scripts/bench_gate.sh check-plain/bench/bench_partition \
    bench/baselines/BENCH_partition_quick.json
  scripts/bench_gate.sh check-plain/bench/bench_stream \
    bench/baselines/BENCH_stream_quick.json
else
  echo "bench gate: skipped (python3 not installed)"
fi

echo "==== check: perfbench ===="
# perfbench/ builds against src/ but is not part of the CMake tree above,
# so an src/ API change it uses (AprioriGen, AprioriOptions fields,
# PrefixCoverCache, ...) would otherwise only break the benchmark run.
# Any failed check inside a workload exits nonzero and fails this stage.
if command -v python3 > /dev/null 2>&1; then
  python3 -m unittest discover -s perfbench -p 'test_*.py'
  for workload in quest_batch long_borders stream_window serve_mixed; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 0
  done
  python3 perfbench/run.py --workload quest_batch --seed 1 --seconds 1 \
    --trace 1
else
  echo "perfbench: skipped (python3 not installed)"
fi

run_matrix_entry audit -DHGMINE_WERROR=ON -DHGMINE_AUDIT=ON

echo "==== check: thread-safety analysis ===="
if command -v clang++ > /dev/null 2>&1; then
  # Compile-only: the analysis is the product; the binaries are already
  # exercised by the other stages.
  cmake -B check-analyze -S . \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DHGMINE_THREAD_SAFETY=ON -DHGMINE_WERROR=ON > /dev/null
  cmake --build check-analyze -j "$JOBS" > /dev/null
  echo "thread-safety: clean"
else
  echo "thread-safety: skipped (clang not installed)"
fi

echo "==== check: invariant queries ===="
if scripts/lint_query_selftest.sh; then
  echo "invariant queries: rules fire and src/ is clean (see lint stage)"
else
  code=$?
  if [ "$code" -eq 77 ]; then
    echo "invariant queries: skipped (clang-query not installed)"
  else
    echo "invariant queries: FAILED" >&2
    exit "$code"
  fi
fi

if [ "$FAST" -eq 0 ]; then
  run_matrix_entry asan -DHGMINE_SANITIZE=address
  run_matrix_entry tsan -DHGMINE_SANITIZE=thread
else
  echo "==== check: sanitizer stages skipped (--fast) ===="
fi

echo "==== check: all stages passed ===="
