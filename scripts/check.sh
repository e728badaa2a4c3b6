#!/usr/bin/env bash
# Full pre-merge check: release build + test suite, then sanitizer builds of
# the threaded-runtime tests -- TSan (the hot path is lock-striped and
# wakeup-throttled; this is the gate that keeps it honest), ASan (restart
# paths recycle queues/channels across epochs) and UBSan, the latter two
# also over the simulator's tests.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== Static analysis (lint.sh: clang-tidy + esp_lint) =="
scripts/lint.sh build-tidy

if command -v clang++ >/dev/null 2>&1; then
  echo "== Thread-safety build (clang++, -Werror=thread-safety) =="
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ -DESP_THREAD_SAFETY=ON >/dev/null
  cmake --build build-tsa -j "$JOBS"

  # Function-effect contracts need Clang 19+; probe the attribute before
  # spending a configure on it (the CMake option FATAL_ERRORs when forced on
  # an unsupporting compiler).
  if echo 'void f() [[clang::nonblocking]];' \
      | clang++ -x c++ -std=c++17 -fsyntax-only -Werror=unknown-attributes \
                -Werror=ignored-attributes - >/dev/null 2>&1; then
    echo "== Function-effects build (clang++, -Werror=function-effects) =="
    cmake -B build-effects -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DESP_FUNCTION_EFFECTS=ON >/dev/null
    cmake --build build-effects -j "$JOBS"
  else
    echo "== clang++ lacks function-effect analysis (needs Clang 19+); skipping that leg =="
  fi
else
  echo "== clang++ not found; skipping the thread-safety and function-effects legs (CI runs them) =="
fi

echo "== Release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== Alloc-counted Release build: zero-alloc regression tests =="
cmake -B build-alloc -S . -DCMAKE_BUILD_TYPE=Release -DESP_COUNT_ALLOCS=ON >/dev/null
cmake --build build-alloc -j "$JOBS" --target runtime_test
./build-alloc/tests/runtime_test --gtest_filter='AllocCounting.*'

echo "== ThreadSanitizer build of runtime_test + fanin_test =="
cmake -B build-tsan -S . -DESP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" --target runtime_test --target fanin_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/runtime_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/fanin_test

# The simulator's tests run under ASan and UBSan too: its event queue and
# per-task queues are index-based pools and rings.
SANITIZED_TESTS=(runtime_test fanin_test sim_test workloads_test integration_test)

echo "== AddressSanitizer build of ${SANITIZED_TESTS[*]} =="
cmake -B build-asan -S . -DESP_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS" ${SANITIZED_TESTS[@]/#/--target }
for t in "${SANITIZED_TESTS[@]}"; do
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" "./build-asan/tests/$t"
done

echo "== UndefinedBehaviorSanitizer build of ${SANITIZED_TESTS[*]} =="
cmake -B build-ubsan -S . -DESP_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j "$JOBS" ${SANITIZED_TESTS[@]/#/--target }
for t in "${SANITIZED_TESTS[@]}"; do
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" "./build-ubsan/tests/$t"
done

echo "All checks passed."
