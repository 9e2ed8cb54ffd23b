/**
 * @file
 * Unit tests for the common substrate: RNG, bitops, stats, tables,
 * options.
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/options.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace casim {
namespace {

TEST(Bitops, PowerOfTwoDetection)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(1ULL << 40));
    EXPECT_FALSE(isPowerOf2((1ULL << 40) + 1));
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2((1ULL << 33) + 5), 33u);
}

TEST(Bitops, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(Bitops, BitExtraction)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffu);
    EXPECT_EQ(bits(0xdeadbeef, 0, 4), 0xfu);
    EXPECT_EQ(bits(~0ULL, 0, 64), ~0ULL);
}

TEST(Bitops, PopCount)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(0b1011), 3u);
    EXPECT_EQ(popCount(~0ULL), 64u);
}

TEST(Types, BlockAlignment)
{
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockNumber(128), 2u);
}

TEST(Rng, Determinism)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformCoversUnitInterval)
{
    Rng rng(11);
    double min = 1.0, max = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        min = std::min(min, u);
        max = std::max(max, u);
    }
    EXPECT_LT(min, 0.01);
    EXPECT_GT(max, 0.99);
}

TEST(Rng, ChanceIsCalibrated)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / double(trials), 0.25, 0.01);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(17);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    auto resorted = v;
    std::sort(resorted.begin(), resorted.end());
    EXPECT_EQ(resorted, sorted);
}

TEST(Zipf, UniformWhenExponentZero)
{
    Rng rng(19);
    ZipfSampler zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 800);
}

TEST(Zipf, HeadHotterThanTail)
{
    Rng rng(23);
    ZipfSampler zipf(1000, 1.0);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[999] * 10);
}

/** The reference inversion: binary search of the CDF. */
std::size_t
binarySearchRank(const ZipfSampler &zipf, double u)
{
    const auto &cdf = zipf.cdf();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return it == cdf.end() ? cdf.size() - 1
                           : static_cast<std::size_t>(it - cdf.begin());
}

TEST(Zipf, GuideTableMatchesBinarySearch)
{
    Rng rng(29);
    const std::pair<std::size_t, double> shapes[] = {
        {1, 1.0},   {2, 0.5},   {10, 0.0},     {100, 0.7},
        {1000, 1.0}, {4096, 1.2}, {24576, 0.99}, {777, 3.0}};
    for (const auto &[n, s] : shapes) {
        const ZipfSampler zipf(n, s);
        const auto check = [&](double u) {
            ASSERT_EQ(zipf.rankOf(u), binarySearchRank(zipf, u))
                << "n " << n << " s " << s << " u " << u;
        };
        for (int i = 0; i < 100000; ++i)
            check(rng.uniform());
        // Every bucket boundary j / n and its neighbours, where the
        // guide entry and the rounding of u * n meet.
        for (std::size_t j = 0; j <= n; ++j) {
            const double edge =
                static_cast<double>(j) / static_cast<double>(n);
            check(std::nextafter(edge, 0.0));
            if (edge < 1.0) {
                check(edge);
                check(std::nextafter(edge, 1.0));
            }
        }
        // The CDF values themselves, and u at the ends of [0, 1).
        for (const double c : zipf.cdf()) {
            if (c < 1.0) {
                check(c);
                check(std::nextafter(c, 0.0));
                check(std::nextafter(c, 1.0));
            }
        }
        check(0.0);
        check(std::nextafter(1.0, 0.0));
    }
}

TEST(Zipf, SampleDrawsTheGuideTableRank)
{
    // sample() consumes exactly one uniform draw and inverts it.
    Rng a(31), b(31);
    const ZipfSampler zipf(500, 0.8);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(zipf.sample(a), binarySearchRank(zipf, b.uniform()));
}

TEST(Stats, CounterBasics)
{
    stats::StatGroup group("g");
    auto &ctr = group.addCounter("events", "things that happened");
    EXPECT_EQ(ctr.value(), 0u);
    ++ctr;
    ctr += 4;
    EXPECT_EQ(ctr.value(), 5u);
    group.reset();
    EXPECT_EQ(ctr.value(), 0u);
}

TEST(Stats, CounterVector)
{
    stats::StatGroup group;
    auto &vec = group.addVector("v", "labelled", {"a", "b", "c"});
    vec.add(0);
    vec.add(2, 10);
    EXPECT_EQ(vec.value(0), 1u);
    EXPECT_EQ(vec.value(1), 0u);
    EXPECT_EQ(vec.value(2), 10u);
    EXPECT_EQ(vec.total(), 11u);
}

TEST(Stats, DistributionMoments)
{
    stats::StatGroup group;
    auto &dist = group.addDistribution("d", "samples");
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        dist.sample(x);
    EXPECT_EQ(dist.count(), 8u);
    EXPECT_DOUBLE_EQ(dist.mean(), 5.0);
    EXPECT_DOUBLE_EQ(dist.min(), 2.0);
    EXPECT_DOUBLE_EQ(dist.max(), 9.0);
    EXPECT_NEAR(dist.stddev(), 2.0, 1e-9);
}

TEST(Stats, HistogramBucketing)
{
    stats::StatGroup group;
    auto &hist = group.addHistogram("h", "hist", {1.0, 10.0, 100.0});
    hist.sample(0.5);
    hist.sample(1.0);
    hist.sample(5.0);
    hist.sample(1000.0, 3);
    EXPECT_EQ(hist.bucket(0), 2u); // <= 1
    EXPECT_EQ(hist.bucket(1), 1u); // <= 10
    EXPECT_EQ(hist.bucket(2), 0u); // <= 100
    EXPECT_EQ(hist.bucket(3), 3u); // overflow
    EXPECT_EQ(hist.total(), 6u);
}

TEST(Stats, FormulaEvaluatesLive)
{
    stats::StatGroup group;
    auto &ctr = group.addCounter("n", "");
    auto &formula = group.addFormula(
        "double_n", "", [&]() { return 2.0 * ctr.value(); });
    ctr += 3;
    EXPECT_DOUBLE_EQ(formula.value(), 6.0);
}

TEST(Stats, FindByName)
{
    stats::StatGroup group("pre");
    group.addCounter("x", "");
    EXPECT_NE(group.find("pre.x"), nullptr);
    EXPECT_EQ(group.find("x"), nullptr);
}

TEST(Stats, DumpContainsNamesAndDescriptions)
{
    stats::StatGroup group("llc");
    auto &ctr = group.addCounter("hits", "demand hits");
    ctr += 42;
    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("llc.hits"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
    EXPECT_NE(os.str().find("demand hits"), std::string::npos);
}

TEST(Table, AlignedOutput)
{
    TablePrinter table("Demo", {"app", "x", "y"});
    table.addRow({"canneal", "1.0", "2.0"});
    table.addRow("mean", {1.0, 2.0}, 2);
    std::ostringstream os;
    table.print(os);
    EXPECT_NE(os.str().find("Demo"), std::string::npos);
    EXPECT_NE(os.str().find("canneal"), std::string::npos);
    EXPECT_NE(os.str().find("1.00"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    TablePrinter table("T", {"a", "b"});
    table.addRow({"r1", "5"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nr1,5\n");
}

TEST(Table, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Options, ParsesKeyValues)
{
    const char *argv[] = {"prog", "--threads=4", "--scale=0.5",
                          "--verbose", "positional"};
    Options options(5, argv);
    EXPECT_EQ(options.getUint("threads", 8), 4u);
    EXPECT_DOUBLE_EQ(options.getDouble("scale", 1.0), 0.5);
    EXPECT_TRUE(options.getBool("verbose", false));
    EXPECT_FALSE(options.getBool("quiet", false));
    EXPECT_EQ(options.getString("missing", "dflt"), "dflt");
    ASSERT_EQ(options.positional().size(), 1u);
    EXPECT_EQ(options.positional()[0], "positional");
}

TEST(Options, BooleanSpellings)
{
    const char *argv[] = {"prog", "--a=true", "--b=0", "--c=yes"};
    Options options(4, argv);
    EXPECT_TRUE(options.getBool("a", false));
    EXPECT_FALSE(options.getBool("b", true));
    EXPECT_TRUE(options.getBool("c", false));
}

TEST(Mix64, IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    // Consecutive inputs should differ in many bits.
    const auto diff = mix64(100) ^ mix64(101);
    EXPECT_GT(popCount(diff), 16u);
}

} // namespace
} // namespace casim
