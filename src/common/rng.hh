/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload generators, random
 * replacement, set-dueling leader selection) draws from Rng so that every
 * experiment is exactly reproducible from its seed.  The core generator is
 * xoshiro256** (Blackman & Vigna), seeded through splitmix64.
 */

#ifndef CASIM_COMMON_RNG_HH
#define CASIM_COMMON_RNG_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace casim {

/** splitmix64 step; also useful as a standalone integer mixer. */
constexpr std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mixing hash (finalizer of splitmix64). */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Spread a block address, whose low bits are zero after alignment,
 * uniformly over an open-addressing table (one splitmix64 step).
 */
constexpr std::uint64_t
mixAddr(std::uint64_t block)
{
    return mix64(block + 0x9e3779b97f4a7c15ULL);
}

/**
 * xoshiro256** generator with convenience distributions.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x5eed)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        casim_assert(bound > 0, "Rng::below(0)");
        // Lemire's nearly-divisionless method.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (lo < threshold) {
                m = static_cast<__uint128_t>(next()) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        casim_assert(lo <= hi, "Rng::range with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial with success probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * Zipf-distributed sampler over {0, ..., n-1} with exponent s.
 *
 * Precomputes the CDF once; sampling inverts it with a guide table
 * (Chen and Asau's indexed search) in expected O(1).  Used by workload
 * generators to model hot shared structures (locks, root nodes,
 * popular hash buckets).
 */
class ZipfSampler
{
  public:
    /**
     * @param n      Number of items (rank 0 is the hottest).
     * @param s      Zipf exponent; s = 0 degenerates to uniform.
     */
    ZipfSampler(std::size_t n, double s) : cdf_(n), guide_(n)
    {
        casim_assert(n > 0 && n <= 0xffffffffu,
                     "ZipfSampler domain size ", n, " out of range");
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf_[i] = sum;
        }
        for (auto &c : cdf_)
            c /= sum;
        // guide_[j]: the first rank whose CDF reaches j / n.  The last
        // entry is sum / sum == 1.0 exactly, so the scan stops in range.
        std::size_t rank = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const double edge =
                static_cast<double>(j) / static_cast<double>(n);
            while (cdf_[rank] < edge)
                ++rank;
            guide_[j] = static_cast<std::uint32_t>(rank);
        }
    }

    /** Draw one rank using randomness from rng. */
    std::size_t sample(Rng &rng) const { return rankOf(rng.uniform()); }

    /**
     * The smallest rank whose CDF reaches u, or the last rank if none
     * does — exactly what a binary search of the CDF returns, for
     * every u.
     */
    std::size_t
    rankOf(double u) const
    {
        const std::size_t last = cdf_.size() - 1;
        const auto bucket = std::min(
            static_cast<std::size_t>(u * static_cast<double>(cdf_.size())),
            last);
        std::size_t rank = guide_[bucket];
        // Rounding in u * n can pick the bucket above u's; stepping
        // back first makes the forward scan exact from any start.
        while (rank > 0 && cdf_[rank - 1] >= u)
            --rank;
        while (rank < last && cdf_[rank] < u)
            ++rank;
        return rank;
    }

    /** The cumulative distribution, cdf()[i] = P(rank <= i). */
    const std::vector<double> &cdf() const { return cdf_; }

    /** Number of items in the domain. */
    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
};

} // namespace casim

#endif // CASIM_COMMON_RNG_HH
