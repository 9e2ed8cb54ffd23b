/**
 * @file
 * Vectorized tag-scan kernels for the cache lookup hot path.
 *
 * The replay engine resolves every captured LLC reference through one
 * tag-row scan; this header provides that scan as a compare+movemask
 * kernel over the packed per-set tag lane (SoA layout, see Cache) with
 * three dispatch layers:
 *
 *  - Compile time: AVX2 on x86-64 (emitted with a function-level
 *    `target("avx2")` attribute so the rest of the build stays
 *    baseline-ISA portable), NEON on aarch64, and a scalar bit-scan
 *    everywhere.  Defining CASIM_NO_SIMD (the CMake option of the same
 *    name) compiles the vector kernels out entirely.
 *  - Run time, per process: on x86-64 the AVX2 kernel is only selected
 *    when cpuid reports the extension, and setting the CASIM_NO_SIMD
 *    environment variable forces the scalar path on any ISA — that is
 *    the cross-checking knob tier1.sh and CI use.
 *  - Per lookup, under -DCASIM_PARANOID: Cache::findWay re-runs the
 *    scalar scan after the vector one and asserts the ways agree.
 *
 * Tags are 32-bit block numbers.  Tag rows are padded to kTagLanes
 * tags (pad lanes hold kTagInvalid and are never marked valid) so a
 * vector compare can always load full lanes without running off the
 * row.  The padding is applied on every build, vector or not, keeping
 * the tag-store layout identical across ISAs and the CASIM_NO_SIMD
 * settings.
 */

#ifndef CASIM_COMMON_SIMD_HH
#define CASIM_COMMON_SIMD_HH

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/types.hh"

#if !defined(CASIM_NO_SIMD) && defined(__x86_64__)
#define CASIM_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(CASIM_NO_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define CASIM_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace casim {
namespace simd {

/** Sentinel returned by the tag-scan kernels when no way matches. */
constexpr unsigned kNoWay = std::numeric_limits<unsigned>::max();

/**
 * Tag value of an empty way or pad lane.  Tags are 32-bit block
 * numbers, so a resident block's number is always below it (Cache
 * enforces the bound on every fill).
 */
constexpr std::uint32_t kTagInvalid =
    static_cast<std::uint32_t>(kBlockNumberLimit);

/**
 * Lane count tag rows are padded to.  Fixed at the widest supported
 * vector width (8 x 32-bit for AVX2) on every ISA so the layout never
 * depends on how the binary was built; with 64-byte aligned rows, a
 * row of up to 16 ways then sits in one host cache line.
 */
constexpr unsigned kTagLanes = 8;

/**
 * Lane count of the 64-bit argmin kernel (4 x 64-bit for AVX2):
 * argminU64Vector needs a multiple of it.
 */
constexpr unsigned kStampLanes = 4;

/** Row stride (in tag slots) for a `ways`-associative tag row. */
constexpr unsigned
tagRowStride(unsigned ways)
{
    return (ways + kTagLanes - 1) / kTagLanes * kTagLanes;
}

/**
 * True when the CASIM_NO_SIMD environment variable forces the scalar
 * tag scan (any non-empty value except "0").  Cached per process.
 */
inline bool
scalarForced()
{
    static const bool forced = [] {
        const char *env = std::getenv("CASIM_NO_SIMD");
        return env != nullptr && *env != '\0' &&
               std::strcmp(env, "0") != 0;
    }();
    return forced;
}

/**
 * Scalar reference kernel: scan the valid ways of one tag row for
 * `probe`.  This is also the cross-check oracle for the vector kernels.
 *
 * @param row   The set's packed row of 32-bit tags.
 * @param valid Bitmask of valid ways (bit w = row[w] live).
 * @param probe Tag searched for.
 * @return The matching way, or kNoWay.
 */
inline unsigned
findTagScalar(const std::uint32_t *row, std::uint64_t valid,
              std::uint32_t probe)
{
    while (valid != 0) {
        const unsigned way =
            static_cast<unsigned>(std::countr_zero(valid));
        if (row[way] == probe)
            return way;
        valid &= valid - 1;
    }
    return kNoWay;
}

#if CASIM_SIMD_AVX2

/** True when the CPU this process runs on supports AVX2. */
inline bool
haveAvx2()
{
    static const bool have = __builtin_cpu_supports("avx2") != 0;
    return have;
}

/**
 * AVX2 kernel: compare 8 tag lanes per step, accumulate every group's
 * movemask into one way bitmap, mask with the valid bits, and answer
 * with a single bit-scan.  Deliberately branchless: an early exit on
 * the matching group would mispredict on nearly every hit (the match
 * lands in a random group), costing more than the extra compares save.
 * `stride` must be a multiple of kTagLanes (see tagRowStride).
 */
__attribute__((target("avx2"))) inline unsigned
findTagAvx2(const std::uint32_t *row, unsigned stride,
            std::uint64_t valid, std::uint32_t probe)
{
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(probe));
    std::uint64_t hits = 0;
    for (unsigned base = 0; base < stride; base += 8) {
        const __m256i tags = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(row + base));
        const __m256i eq = _mm256_cmpeq_epi32(tags, needle);
        hits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(eq))))
                << base;
    }
    hits &= valid;
    return hits != 0 ? static_cast<unsigned>(std::countr_zero(hits))
                     : kNoWay;
}

#elif CASIM_SIMD_NEON

/**
 * NEON kernel: compare 4 tag lanes per step (32-bit lanes in a 128-bit
 * register), fold each group's match lanes into 4 bits with a
 * weighted horizontal add, accumulate them into one way bitmap, mask
 * with the valid bits, and answer with a single bit-scan.  Branchless
 * for the same reason as the AVX2 kernel: a data-dependent early exit
 * mispredicts on nearly every hit.  `stride` must be a multiple of
 * kTagLanes.
 */
inline unsigned
findTagNeon(const std::uint32_t *row, unsigned stride,
            std::uint64_t valid, std::uint32_t probe)
{
    static constexpr std::uint32_t kWeights[4] = {1, 2, 4, 8};
    const uint32x4_t weights = vld1q_u32(kWeights);
    const uint32x4_t needle = vdupq_n_u32(probe);
    std::uint64_t hits = 0;
    for (unsigned base = 0; base < stride; base += 4) {
        const uint32x4_t eq = vceqq_u32(vld1q_u32(row + base), needle);
        hits |= static_cast<std::uint64_t>(
                    vaddvq_u32(vandq_u32(eq, weights)))
                << base;
    }
    hits &= valid;
    return hits != 0 ? static_cast<unsigned>(std::countr_zero(hits))
                     : kNoWay;
}

#endif

/**
 * Scalar reference argmin: index of the smallest value, earliest index
 * winning ties.  `count` must be at least 1.  This is the semantics
 * (and the cross-check oracle) for the vector variant below, and the
 * exact search true-LRU victim selection performs over a set's stamps.
 */
inline unsigned
argminU64Scalar(const std::uint64_t *values, unsigned count)
{
    unsigned best = 0;
    std::uint64_t best_value = values[0];
    for (unsigned i = 1; i < count; ++i) {
        const bool better = values[i] < best_value;
        best_value = better ? values[i] : best_value;
        best = better ? i : best;
    }
    return best;
}

#if CASIM_SIMD_AVX2

/**
 * AVX2 argmin over 64-bit values: four strided running minima (with
 * their indices carried along by blends) and one scalar reduction at
 * the end.  No data-dependent branches, unlike the scalar scan, whose
 * "new minimum?" branch mispredicts its way through randomly ordered
 * values.  Unsigned order is obtained by biasing with the sign bit.
 * `count` must be a non-zero multiple of 4.
 */
__attribute__((target("avx2"))) inline unsigned
argminU64Avx2(const std::uint64_t *values, unsigned count)
{
    const __m256i bias =
        _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
    const __m256i four = _mm256_set1_epi64x(4);
    __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
    __m256i best_idx = idx;
    __m256i best_val = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(values)),
        bias);
    for (unsigned base = 4; base < count; base += 4) {
        idx = _mm256_add_epi64(idx, four);
        const __m256i val = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(values + base)),
            bias);
        // Strict less-than keeps the earliest index within each lane.
        const __m256i less = _mm256_cmpgt_epi64(best_val, val);
        best_val = _mm256_blendv_epi8(best_val, val, less);
        best_idx = _mm256_blendv_epi8(best_idx, idx, less);
    }
    std::uint64_t lane_val[4], lane_idx[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lane_val),
                        best_val);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lane_idx),
                        best_idx);
    unsigned best = 0;
    for (unsigned lane = 1; lane < 4; ++lane) {
        // The lanes still carry the sign-bit bias; undo it so the
        // unsigned compare below ranks them in the original order
        // (values at or above 1 << 63 would otherwise sort wrong).
        const std::uint64_t lhs = lane_val[lane] ^ (1ULL << 63);
        const std::uint64_t rhs = lane_val[best] ^ (1ULL << 63);
        if (lhs < rhs ||
            (lhs == rhs && lane_idx[lane] < lane_idx[best]))
            best = lane;
    }
    return static_cast<unsigned>(lane_idx[best]);
}

#endif

/**
 * Argmin dispatch mirroring findTagVector: callers must only take this
 * path when vectorTagScanEnabled() returned true and `count` is a
 * non-zero multiple of kStampLanes; anything else belongs on
 * argminU64Scalar.  (NEON has no 64-bit compare-and-blend win over the
 * scalar loop, so only AVX2 gets a kernel.)
 */
inline unsigned
argminU64Vector(const std::uint64_t *values, unsigned count)
{
#if CASIM_SIMD_AVX2
    return argminU64Avx2(values, count);
#else
    return argminU64Scalar(values, count);
#endif
}

/**
 * True when a vector kernel is compiled in, supported by this CPU, and
 * not disabled via the CASIM_NO_SIMD environment variable.  Cache
 * caches this per instance so the hot loop never re-checks.
 */
inline bool
vectorTagScanEnabled()
{
    if (scalarForced())
        return false;
#if CASIM_SIMD_AVX2
    return haveAvx2();
#elif CASIM_SIMD_NEON
    return true;
#else
    return false;
#endif
}

/**
 * The vector kernel for this build.  Callers must only invoke it when
 * vectorTagScanEnabled() returned true; in scalar-only builds it
 * degrades to the scalar scan so callers need no further guards.
 */
inline unsigned
findTagVector(const std::uint32_t *row, [[maybe_unused]] unsigned stride,
              std::uint64_t valid, std::uint32_t probe)
{
#if CASIM_SIMD_AVX2
    return findTagAvx2(row, stride, valid, probe);
#elif CASIM_SIMD_NEON
    return findTagNeon(row, stride, valid, probe);
#else
    return findTagScalar(row, valid, probe);
#endif
}

/**
 * Name of the tag-scan ISA this process resolves lookups with, as it
 * would be selected right now: "avx2", "neon", or "scalar".  Recorded
 * in BENCH_replay.json so throughput numbers are attributable.
 */
inline const char *
tagScanIsa()
{
    if (!vectorTagScanEnabled())
        return "scalar";
#if CASIM_SIMD_AVX2
    return "avx2";
#elif CASIM_SIMD_NEON
    return "neon";
#else
    return "scalar";
#endif
}

} // namespace simd
} // namespace casim

#endif // CASIM_COMMON_SIMD_HH
