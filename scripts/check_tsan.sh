#!/bin/sh
# Build the exec engine, discrete-event core, and correctness-subsystem
# tests under ThreadSanitizer and run them.
# The build and ctest steps are equivalent to `cmake --preset tsan &&
# cmake --build --preset tsan && ctest --preset tsan` on CMake >= 3.21
# (same targets, same label filter); spelled out here so they also work
# with the project's minimum CMake. The fuzz campaign below is extra.
set -e

cd "$(dirname "$0")/.."
cmake -B build-tsan -S . -DSKIPSIM_TSAN=ON
cmake --build build-tsan -j --target test_exec --target test_cluster \
    --target test_obs --target test_core --target test_check \
    --target test_scenario --target test_span --target skipctl
ctest --test-dir build-tsan -L "exec|core|check" --output-on-failure "$@"
# A fuzz campaign fanned over 8 workers: every case re-runs its engine
# on exec::Pool workers and byte-compares, so TSan sees the full
# parallel read/write surface of all three engines.
./build-tsan/examples/skipctl check --fuzz 200 --seed 1 --quick --jobs 8
