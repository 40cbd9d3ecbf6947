#!/usr/bin/env bash
# The repo's one-command CI gate, in three tiers:
#
#   1. tier-1: configure with -Werror (NICSCHED_WERROR=ON), build, full
#      ctest — the bar every change must hold. It runs every labelled slice
#      (perf, fault, rack, tenant, parallel, rdma, chaos) at full size, so no
#      label is re-run on its own.
#   2. sanitizer pass: the fault + chaos labels under NICSCHED_FAST=1 in a
#      separate ASan+UBSan build ($BUILD_DIR-asan) — the fault paths tear
#      down mid-flight state, so they get the sanitizer pass
#   3. thread-sanitizer pass: the parallel + chaos labels under
#      NICSCHED_FAST=1 in a ThreadSanitizer build ($BUILD_DIR-tsan, flags
#      passed straight through CMAKE_CXX_FLAGS/CMAKE_EXE_LINKER_FLAGS) — both
#      labels run the sharded engine across {1,2,4} shard threads
#
# Usage: tools/ci.sh [build-dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
# Builds and ctest run `-j "$(nproc)"`: a bare `-j` lets make start every
# compile at once, which a sanitizer build from scratch turns into a memory
# spike.

echo "==> tier-1: configure + build + full test suite"
cmake -B "$BUILD_DIR" -S . -DNICSCHED_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "==> sanitizer pass: fault + chaos labels under ASan+UBSan"
cmake -B "$BUILD_DIR-asan" -S . -DNICSCHED_SANITIZE=ON
cmake --build "$BUILD_DIR-asan" -j "$(nproc)"
(cd "$BUILD_DIR-asan" && NICSCHED_FAST=1 ctest -L 'fault|chaos' --output-on-failure)

echo "==> thread-sanitizer pass: parallel + chaos labels under TSan"
cmake -B "$BUILD_DIR-tsan" -S . -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build "$BUILD_DIR-tsan" -j "$(nproc)"
(cd "$BUILD_DIR-tsan" && NICSCHED_FAST=1 ctest -L 'parallel|chaos' --output-on-failure)

echo "==> ci.sh: all tiers green"
