// Lightweight always-on invariant checking.
//
// Simulator state-machine bugs silently corrupt statistics, so invariants are
// checked in release builds too; the predicates on hot paths are O(1).
#pragma once

#include <cstdio>
#include <cstdlib>

namespace capart::detail {

[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const char* msg) {
  std::fprintf(stderr, "capart check failed: %s\n  at %s:%d\n  %s\n", expr,
               file, line, msg);
  std::abort();
}

}  // namespace capart::detail

#define CAPART_CHECK(expr, msg)                                       \
  do {                                                                \
    if (!(expr)) [[unlikely]] {                                       \
      ::capart::detail::check_failed(#expr, __FILE__, __LINE__, msg); \
    }                                                                 \
  } while (false)

// Debug-only variant for per-access hot paths: argument validation that a
// caller bug would trip on the very first access does not need to be re-run
// millions of times per second in release builds (capart_bench, in
// bench/e2e, measures the hot path they would slow). Active in builds
// without NDEBUG and in sanitizer builds (CAPART_SANITIZE defines
// CAPART_ENABLE_DCHECKS); compiled out otherwise.
#if !defined(NDEBUG) || defined(CAPART_ENABLE_DCHECKS)
#define CAPART_DCHECK(expr, msg) CAPART_CHECK(expr, msg)
#define CAPART_DCHECKS_ENABLED 1
#else
#define CAPART_DCHECK(expr, msg) \
  do {                           \
  } while (false)
#define CAPART_DCHECKS_ENABLED 0
#endif

namespace capart {

/// Whether CAPART_DCHECK is active in this build — death tests on hot-path
/// argument validation gate their expectations on it.
inline constexpr bool kDchecksEnabled = CAPART_DCHECKS_ENABLED != 0;

}  // namespace capart
