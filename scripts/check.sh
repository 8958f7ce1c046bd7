#!/usr/bin/env bash
# One-stop local gate: configure, build, run the test suite, and smoke the
# fleet and kernel benchmarks against their gates. Mirrors what CI runs.
#
#   scripts/check.sh             # release preset
#   scripts/check.sh tsan        # TSan build + `concurrency`-labeled tests
#                                # (includes the seeded fault-replay and
#                                # engine-equivalence determinism suites)
#   scripts/check.sh debug
#   scripts/check.sh asan        # ASan build + the full suite
#   scripts/check.sh ubsan       # UBSan build + the full suite
#   scripts/check.sh --soak      # TSan build + the seeded fault soak only
#   scripts/check.sh --chaos     # TSan build + the fleet chaos soak only
#
# Exits non-zero on the first failure.
set -euo pipefail

preset="${1:-release}"
soak_only=0
label="soak"
if [ "$preset" = "--soak" ]; then
  # Fault-tolerance gate (docs/ROBUSTNESS.md): run the seeded fault soak
  # under ThreadSanitizer. The soak drives the supervised realtime pipeline
  # through a hostile fault plan and asserts it neither deadlocks nor loses
  # a frame result.
  preset="tsan"
  soak_only=1
elif [ "$preset" = "--chaos" ]; then
  # Fleet supervision gate (docs/ROBUSTNESS.md, DESIGN.md §15): the fleet
  # chaos soak under ThreadSanitizer — gpu: hangs plus a stream: crash
  # against a supervised fleet, asserting quarantine -> backoff ->
  # re-admission, repeat determinism, and healthy-stream digest isolation.
  preset="tsan"
  soak_only=1
  label="chaos"
fi
repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

echo "==> configure (preset: $preset)"
cmake --preset "$preset"

echo "==> build"
cmake --build --preset "$preset" -j "$jobs"

if [ "$soak_only" = "1" ]; then
  echo "==> ctest ($label label, TSan)"
  ctest --test-dir build-tsan -L "$label" --output-on-failure -j "$jobs"
else
  echo "==> ctest"
  ctest --preset "$preset" -j "$jobs"
fi

if [ "$preset" = "tsan" ] && [ "$soak_only" = "0" ]; then
  # FleetGpu lookahead dispatches while granted streams still run, so real
  # thread interleavings reach the schedule: repeat the fleet determinism
  # suites to give a racy promise more than one chance to show.
  echo "==> ctest (fleet determinism, repeated, TSan)"
  ctest --test-dir build-tsan -R '^test_fleet(_soak)?$' \
    --repeat until-fail:3 --output-on-failure
fi

if [ "$preset" = "release" ]; then
  # Each bench_gate run checks absolute invariants always, and compares
  # directionally against a previous report when its *_BASELINE variable
  # points at one (only scale-invariant metrics across smoke/full scales).

  # Fleet consolidation gate (DESIGN.md §13): 8 streams through one shared
  # GPU must beat 8 sequential single-stream runs by >= 4x in pipeline time
  # without inflating any stream's p99 result latency past 2x solo.
  echo "==> bench_fleet --smoke"
  ./build/bench/bench_fleet --smoke --out=build/BENCH_FLEET.smoke.json
  echo "==> bench_gate (fleet)"
  python3 scripts/bench_gate.py build/BENCH_FLEET.smoke.json \
    ${BENCH_FLEET_BASELINE:+--baseline "$BENCH_FLEET_BASELINE"}

  # Fleet supervision gate (DESIGN.md §15): the chaos smoke's crashed
  # stream must recover >= 0.5x of its all-healthy served-frame rate
  # through quarantine -> backoff -> re-admission.
  echo "==> bench_fleet --chaos-smoke"
  ./build/bench/bench_fleet --chaos-smoke --out=build/BENCH_FLEET.chaos.json
  echo "==> bench_gate (fleet chaos)"
  python3 scripts/bench_gate.py build/BENCH_FLEET.chaos.json \
    ${BENCH_FLEET_CHAOS_BASELINE:+--baseline "$BENCH_FLEET_CHAOS_BASELINE"}

  # SIMD tier gate (DESIGN.md §14): sweeps every compiled ISA tier (the
  # "dispatched isa:" line shows what this host resolves to) and enforces
  # the AVX2-vs-scalar floors on pyramid build and LK when AVX2 is present.
  echo "==> bench_kernels --smoke"
  ./build/bench/bench_kernels --smoke --out=build/BENCH_KERNELS.smoke.json
  echo "==> bench_gate (kernels)"
  python3 scripts/bench_gate.py build/BENCH_KERNELS.smoke.json \
    ${BENCH_KERNELS_BASELINE:+--baseline "$BENCH_KERNELS_BASELINE"}
fi

echo "==> OK"
