#!/usr/bin/env bash
# The repo's one-command CI gate, in nine tiers:
#
#   1. tier-1: configure, build, full ctest — the bar every change must hold
#   2. perf smoke: perfbench's correctness gate on every workload, one host
#      second each, untraced and traced (model digest, replay, conservation,
#      traced == untraced); host-speed numbers are not gated here
#   3. fault smoke: one-seed conservation invariant, same NICSCHED_FAST tier
#   4. rack smoke: ToR dispatch tests + the rack_sweep shape checks, same tier
#   5. tenant smoke: tenant dispatch/shim/conservation tests + the
#      tenant_isolation interference checks, same NICSCHED_FAST tier
#   6. parallel smoke: the sharded-engine determinism tier (serial
#      bit-identity + shard-count digest invariance), same NICSCHED_FAST tier
#   7. rdma smoke: the RDMA-assisted dispatch tier (queue-pair + rain-server
#      unit tests, the dispatch-path ablation and rain_sweep shape checks),
#      same NICSCHED_FAST tier
#   8. chaos smoke: the rack-scale fault-tolerance tier (chaos storms +
#      the rack_failover acceptance demo) under NICSCHED_FAST=1, then the
#      fault + chaos labels again in a separate ASan+UBSan build
#      ($BUILD_DIR-asan) — the fault paths tear down mid-flight state, so
#      they get the sanitizer pass
#   9. thread-sanitizer pass: the parallel + chaos labels under NICSCHED_FAST=1
#      in a ThreadSanitizer build ($BUILD_DIR-tsan, flags passed straight
#      through CMAKE_CXX_FLAGS/CMAKE_EXE_LINKER_FLAGS) — both labels run the
#      sharded engine across {1,2,4} shard threads
#
# Usage: tools/ci.sh [build-dir]    (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
# Builds and ctest run `-j "$(nproc)"`: a bare `-j` lets make start every
# compile at once, which a sanitizer build from scratch turns into a memory
# spike.

echo "==> tier-1: configure + build + full test suite"
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "==> perf smoke (perfbench correctness, ctest -L perf)"
(cd "$BUILD_DIR" && ctest -L perf --output-on-failure)

echo "==> fault smoke (NICSCHED_FAST=1, ctest -L fault)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L fault --output-on-failure)

echo "==> rack smoke (NICSCHED_FAST=1, ctest -L rack)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L rack --output-on-failure)

echo "==> tenant smoke (NICSCHED_FAST=1, ctest -L tenant)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L tenant --output-on-failure)

echo "==> parallel smoke (NICSCHED_FAST=1, ctest -L parallel)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L parallel --output-on-failure)

echo "==> rdma smoke (NICSCHED_FAST=1, ctest -L rdma)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L rdma --output-on-failure)

echo "==> chaos smoke (NICSCHED_FAST=1, ctest -L chaos)"
(cd "$BUILD_DIR" && NICSCHED_FAST=1 ctest -L chaos --output-on-failure)

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
