// Portable vectorized tag probe for the set-associative caches.
//
// The cache core stores each set's tags as one contiguous array of 64-bit
// block numbers with kInvalidTag (~0) marking empty ways (see replacement.hpp
// for the sentinel's definition and cache_core.hpp for the layout), so the
// hit scan — the single hottest loop in the simulator — is a pure "first
// index equal to needle" search over a small dense array. That shape maps
// directly onto the packed 64-bit compare + movemask idiom every mainstream
// ISA provides; this header wraps it behind one function:
//
//   find_tag(tags, ways, needle) -> first matching way, or `ways` when absent
//
// Backends, selected at build time from predefined macros (first match wins):
//   * AVX2 (__AVX2__): 4 tags per compare (VPCMPEQQ + VMOVMSKPD)
//   * SSE2 (__SSE2__): 2 tags per compare; 64-bit equality is synthesized
//     from PCMPEQD and a 32-bit half swap, since PCMPEQQ is SSE4.1
//   * NEON (__ARM_NEON): 2 tags per compare (VCEQQ_U64)
//   * scalar fallback, also forced by -DCAPART_DISABLE_SIMD (CI proves the
//     non-SIMD build compiles and passes the same suites)
//
// Bit-identity by construction: a set holds at most one copy of a block, and
// every backend reports the FIRST matching index (blocks are scanned in way
// order; within a vector the lowest set mask bit wins via countr_zero), so
// hit/miss outcomes, victim choice and the probes telemetry derived from the
// returned index are exactly the scalar loop's. find_tag_scalar stays
// available in every build as the differential-test reference
// (tests/test_simd_differential.cpp fuzzes find_tag against it).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#if !defined(CAPART_DISABLE_SIMD)
#if defined(__AVX2__)
#include <immintrin.h>
#define CAPART_SIMD_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define CAPART_SIMD_SSE2 1
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#define CAPART_SIMD_NEON 1
#endif
#endif

namespace capart::mem::simd {

/// Reference implementation; always compiled, used by the differential tests
/// and as the fallback backend. Returns the first index in [0, ways) whose
/// tag equals `needle`, or `ways` when none does.
inline std::uint32_t find_tag_scalar(const std::uint64_t* tags,
                                     std::uint32_t ways,
                                     std::uint64_t needle) noexcept {
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (tags[w] == needle) return w;
  }
  return ways;
}

#if defined(CAPART_SIMD_AVX2)

inline constexpr std::string_view kSimdBackend = "avx2";

inline std::uint32_t find_tag(const std::uint64_t* tags, std::uint32_t ways,
                              std::uint64_t needle) noexcept {
  const __m256i n = _mm256_set1_epi64x(static_cast<long long>(needle));
  std::uint32_t w = 0;
  for (; w + 4 <= ways; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags + w));
    const int mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, n)));
    if (mask != 0) {
      return w + static_cast<std::uint32_t>(
                     std::countr_zero(static_cast<unsigned>(mask)));
    }
  }
  for (; w < ways; ++w) {
    if (tags[w] == needle) return w;
  }
  return ways;
}

#elif defined(CAPART_SIMD_SSE2)

inline constexpr std::string_view kSimdBackend = "sse2";

inline std::uint32_t find_tag(const std::uint64_t* tags, std::uint32_t ways,
                              std::uint64_t needle) noexcept {
  // PCMPEQQ is SSE4.1; under plain SSE2 a 64-bit lane is equal iff both of
  // its 32-bit halves compared equal, so AND the PCMPEQD result with its
  // half-swapped self and read one mask bit per 64-bit lane via MOVMSKPD.
  const __m128i n = _mm_set1_epi64x(static_cast<long long>(needle));
  std::uint32_t w = 0;
  for (; w + 2 <= ways; w += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w));
    const __m128i eq32 = _mm_cmpeq_epi32(v, n);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int mask = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    if (mask != 0) return w + ((mask & 1) != 0 ? 0u : 1u);
  }
  if (w < ways && tags[w] == needle) return w;
  return ways;
}

#elif defined(CAPART_SIMD_NEON)

inline constexpr std::string_view kSimdBackend = "neon";

inline std::uint32_t find_tag(const std::uint64_t* tags, std::uint32_t ways,
                              std::uint64_t needle) noexcept {
  const uint64x2_t n = vdupq_n_u64(needle);
  std::uint32_t w = 0;
  for (; w + 2 <= ways; w += 2) {
    const uint64x2_t eq = vceqq_u64(vld1q_u64(tags + w), n);
    if (vgetq_lane_u64(eq, 0) != 0) return w;
    if (vgetq_lane_u64(eq, 1) != 0) return w + 1;
  }
  if (w < ways && tags[w] == needle) return w;
  return ways;
}

#else

inline constexpr std::string_view kSimdBackend = "scalar";

inline std::uint32_t find_tag(const std::uint64_t* tags, std::uint32_t ways,
                              std::uint64_t needle) noexcept {
  return find_tag_scalar(tags, ways, needle);
}

#endif

/// The backend compiled into this build ("avx2" / "sse2" / "neon" /
/// "scalar"); capart_bench records it so perf numbers are attributable.
inline constexpr std::string_view backend_name() noexcept {
  return kSimdBackend;
}

}  // namespace capart::mem::simd
