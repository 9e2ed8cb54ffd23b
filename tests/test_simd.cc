/**
 * @file
 * Tests for the SIMD replay kernels: randomized property checks that
 * the vector tag scan and the vector argmin agree with their scalar
 * reference kernels across geometries.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/simd.hh"
#include "common/types.hh"

namespace casim {
namespace {

// ---------------------------------------------------------------------
// Kernel-level property tests.
// ---------------------------------------------------------------------

TEST(SimdTagScan, MatchesScalarAcrossWaysRandomized)
{
    // Exercises sub-vector-width (1, 2, 4), exactly-one-group (8),
    // multi-group (16, 24, 32) and non-multiple-of-lanes (12) row
    // widths.
    Rng rng(0x51);
    for (const unsigned ways : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u}) {
        const unsigned stride = simd::tagRowStride(ways);
        ASSERT_EQ(stride % simd::kTagLanes, 0u);
        std::vector<std::uint32_t> row(stride, simd::kTagInvalid);
        for (int trial = 0; trial < 2000; ++trial) {
            // A small tag alphabet forces frequent matches, duplicate
            // tags across ways, and matches hidden behind clear valid
            // bits.
            for (unsigned w = 0; w < ways; ++w)
                row[w] = static_cast<std::uint32_t>(rng.below(8));
            const std::uint64_t valid =
                rng.below(1ULL << ways) & ((1ULL << ways) - 1);
            const auto probe = static_cast<std::uint32_t>(rng.below(8));
            const unsigned scalar =
                simd::findTagScalar(row.data(), valid, probe);
            const unsigned vector =
                simd::findTagVector(row.data(), stride, valid, probe);
            ASSERT_EQ(vector, scalar)
                << "ways=" << ways << " valid=" << valid
                << " probe=" << probe;
        }
    }
}

TEST(SimdTagScan, PadLanesNeverMatch)
{
    // Pad lanes hold kTagInvalid; a probe can never equal a resident
    // tag of that value (fills refuse it), but even a valid mask that
    // (illegally) covered pad lanes must not produce a way beyond the
    // real ones for any real probe.
    for (const unsigned ways : {1u, 2u, 12u}) {
        const unsigned stride = simd::tagRowStride(ways);
        std::vector<std::uint32_t> row(stride, simd::kTagInvalid);
        for (unsigned w = 0; w < ways; ++w)
            row[w] = w + 1;
        const std::uint64_t valid = (1ULL << ways) - 1;
        for (unsigned w = 0; w < ways; ++w) {
            EXPECT_EQ(
                simd::findTagVector(row.data(), stride, valid, w + 1),
                w);
        }
        EXPECT_EQ(simd::findTagVector(row.data(), stride, valid,
                                      ways + 1),
                  simd::kNoWay);
    }
}

TEST(SimdArgmin, MatchesScalarRandomized)
{
    // The AVX2 argmin biases values by the sign bit to get unsigned
    // order out of signed compares; hammer the boundary with values
    // around 1 << 63 as well as plain small ones, and force ties so
    // the earliest-index rule is exercised.
    Rng rng(0xa7);
    for (const unsigned count : {4u, 8u, 12u, 16u, 32u, 64u}) {
        std::vector<std::uint64_t> values(count);
        for (int trial = 0; trial < 2000; ++trial) {
            for (auto &v : values) {
                switch (rng.below(4)) {
                  case 0:
                    v = rng.below(4); // dense ties
                    break;
                  case 1:
                    v = (1ULL << 63) + rng.below(4) - 2;
                    break;
                  case 2:
                    v = ~0ULL - rng.below(2);
                    break;
                  default:
                    v = rng.below(~0ULL);
                    break;
                }
            }
            const unsigned scalar =
                simd::argminU64Scalar(values.data(), count);
            const unsigned vector =
                simd::argminU64Vector(values.data(), count);
            ASSERT_EQ(vector, scalar) << "count=" << count;
        }
    }
}

} // namespace
} // namespace casim
