#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers.
#
#   tools/run_sanitized_tests.sh                 # asan+ubsan, then tsan
#   tools/run_sanitized_tests.sh address,undefined
#   tools/run_sanitized_tests.sh thread -R chaos # tsan, ctest filter
#   tools/run_sanitized_tests.sh address,undefined -L recovery
#       # the crash-recovery battery (persist_test's snapshot corruption
#       # sweep is written to run under asan/ubsan: every bit flip and
#       # truncation must fail cleanly, never read out of bounds)
#   tools/run_sanitized_tests.sh thread -L obs
#       # the observability battery; under tsan this exercises the
#       # flight recorder's lock-free snapshot-vs-writer protocol and the
#       # shared tracer/metrics sinks across node threads (the wall-clock
#       # obs_bench_smoke ratio gate is skipped in sanitized builds)
#   tools/run_sanitized_tests.sh thread -L repair
#       # the plan battery (decode and repair plans vs fresh Gaussian
#       # elimination, golden encode/re-encode/repair vectors, the
#       # batched re-encode property sweep, degraded reads); under tsan
#       # this exercises the shared-mutex plan cache -- one class, one
#       # instance for decode plans and one for repair plans -- from
#       # concurrent lookup threads
#   tools/run_sanitized_tests.sh thread -L "net|frontdoor|runtime|wire"
#       # the real-socket, front-door, threaded-runtime and codec batteries
#       # (DESIGN.md §5.3, §11, §12): codec round trips and copy counts,
#       # frame reassembly sweep and in-place framing, in-process
#       # daemons over loopback TCP that serve every connection on the
#       # automaton loop, hash-ring properties, the frontier-gated edge
#       # cache, cluster-config parsing, sessions through an in-process
#       # router under the consistency checkers, the multi-process
#       # SIGKILL/rejoin and router-restart chaos tests, and
#       # ThreadedCluster. Every loop thread -- each server's automaton
#       # loop in both runtimes, and the shards daemons and routers share
#       # through net::FrontEnd -- is one runtime::EventLoop, and every
#       # connection and link has one owner thread and no lock, so under
#       # tsan this exercises the wakeup protocol, every shard and
#       # automaton loop, peer and backend link, the automaton inbox, the
#       # shared edge cache, and every client session thread (the forked
#       # servers are instrumented too; tsan just cannot see across the
#       # processes)
#   tools/run_sanitized_tests.sh address,undefined -L "net|wire|recovery"
#       # every encoder and decoder: the codec, the socket framing (which
#       # reads the four bytes in front of a payload in its arena), and the
#       # WAL and snapshot formats with their corruption sweeps
#   tools/run_sanitized_tests.sh address,undefined -L protocol
#   tools/run_sanitized_tests.sh thread -L protocol
#       # the automaton battery (Algorithms 1-3): causalec_test,
#       # server_unit_test, gc_property_test, consistency_test, chaos_test,
#       # fault_injection_test, inqueue_liveness_test,
#       # cluster_integration_test, the chaos_smoke fuzz sweep and the
#       # transient_storage_smoke residency gate; run it after any change
#       # to how the Server encodes, announces dels or collects garbage
#   tools/run_sanitized_tests.sh --net-smoke
#       # fast path: the net, frontdoor, runtime and wire labels,
#       # asan+ubsan then tsan
#
# After an unfiltered run, each config additionally reruns the GF kernel
# differential suite once per tier available on this machine (scalar, then
# avx2 and gfni where the CPU has them), looping CAUSALEC_GF_KERNEL over
# `causalec_inspect --gf-tiers` -- so every tier's two kernels, xor and
# axpy_batch, get exercised as the *active* dispatch target under
# sanitizers, not only as a comparison inside the differential tests.
#
# Each sanitizer config gets its own build tree (build-san-<name>), so the
# regular build/ directory is never disturbed. Extra arguments after the
# sanitizer list are forwarded to ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

configs=()
if [[ $# -ge 1 && $1 == --net-smoke ]]; then
  # Fast path: the real-socket, front-door and threaded-runtime batteries,
  # which share one loop class, and the codec they all send through, under
  # both sanitizer configs.
  shift
  set -- -L "net|frontdoor|runtime|wire" "$@"
  configs=("address,undefined" "thread")
elif [[ $# -ge 1 && $1 != -* ]]; then
  configs=("$1")
  shift
else
  configs=("address,undefined" "thread")
fi

for san in "${configs[@]}"; do
  dir="build-san-${san//,/+}"
  echo "=== ${san}: configuring ${dir} ==="
  cmake -B "$dir" -S . -DCAUSALEC_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  echo "=== ${san}: building ==="
  cmake --build "$dir" -j "$(nproc)"
  echo "=== ${san}: testing ==="
  # halt_on_error makes a sanitizer report fail the test that produced it.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$dir" -j "$(nproc)" --output-on-failure "$@"

  # Kernel-tier sweep: rerun the GF kernel differential suite once per
  # tier *available on this machine* (causalec_inspect --gf-tiers asks the
  # dispatch layer, so an unavailable tier is never requested and the
  # fail-fast CAUSALEC_GF_KERNEL check stays quiet). This pins the forced-
  # dispatch path -- env parsing, set-tier plumbing, and each tier's xor
  # and axpy_batch as the *active* tier, not just as a comparison target
  # inside the differential tests. Skipped when the caller passed an
  # explicit ctest filter (e.g. -L net): their selection should run as
  # given.
  if [[ $# -eq 0 ]]; then
    echo "=== ${san}: kernel-tier sweep ==="
    tiers=$("$dir/tools/causalec_inspect" --gf-tiers)
    for tier in $tiers; do
      echo "=== ${san}: CAUSALEC_GF_KERNEL=${tier} ==="
      CAUSALEC_GF_KERNEL="$tier" \
      ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
      UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
      TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$dir" -j "$(nproc)" --output-on-failure \
          -R 'GfKernel'
    done
  fi
done
echo "=== all sanitizer configs passed ==="
