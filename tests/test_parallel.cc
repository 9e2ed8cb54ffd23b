/**
 * @file
 * Tests for the deterministic parallel experiment runner: ordered
 * result collection, serial-path inlining, exception propagation, and
 * bit-identical parallel vs serial workload capture.
 */

#include <atomic>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "sim/capture_cache.hh"
#include "sim/experiment.hh"
#include "sim/parallel.hh"

namespace casim {
namespace {

StudyConfig
tinyStudy()
{
    StudyConfig config;
    config.workload.threads = 4;
    config.workload.scale = 0.02;
    config.workload.seed = 11;
    config.hierarchy.numCores = 4;
    config.hierarchy.l1 = CacheGeometry{4 * 1024, 4, kBlockBytes};
    config.llcSmallBytes = 64 * 1024;
    config.llcLargeBytes = 128 * 1024;
    config.llcWays = 8;
    return config;
}

TEST(ParallelRunner, MapCollectsResultsInIndexOrder)
{
    ParallelRunner runner(4);
    const auto out = runner.map<int>(
        100, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(ParallelRunner, SingleJobRunsInlineInIndexOrder)
{
    // jobs <= 1 must be the exact serial code path: no worker threads,
    // tasks executed on the caller in ascending index order.
    for (const unsigned jobs : {0u, 1u}) {
        ParallelRunner runner(jobs);
        EXPECT_EQ(runner.jobs(), 1u);
        std::vector<std::size_t> order;
        runner.run(8, [&](std::size_t i) {
            EXPECT_EQ(std::this_thread::get_id(),
                      std::this_thread::get_id());
            order.push_back(i);
        });
        ASSERT_EQ(order.size(), 8u);
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i);
    }
}

TEST(ParallelRunner, SingleJobStaysOnCallerThread)
{
    ParallelRunner runner(1);
    const auto caller = std::this_thread::get_id();
    runner.run(4, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ParallelRunner, PropagatesFirstTaskException)
{
    ParallelRunner runner(4);
    std::atomic<unsigned> executed{0};
    EXPECT_THROW(
        runner.run(32,
                   [&](std::size_t i) {
                       ++executed;
                       if (i == 7)
                           throw std::runtime_error("cell 7 failed");
                   }),
        std::runtime_error);
    // The batch drains fully before the error is rethrown, so the
    // runner is reusable afterwards.
    EXPECT_EQ(executed.load(), 32u);
    const auto out =
        runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.back(), 3);
}

TEST(ParallelRunner, SerialExceptionDrainsWholeBatch)
{
    // jobs == 1 must share the parallel path's semantics: the whole
    // batch drains before the first exception is rethrown, so the
    // task counters agree across jobs values.
    ParallelRunner runner(1);
    unsigned executed = 0;
    EXPECT_THROW(
        runner.run(32,
                   [&](std::size_t i) {
                       ++executed;
                       if (i == 7)
                           throw std::runtime_error("cell 7 failed");
                   }),
        std::runtime_error);
    EXPECT_EQ(executed, 32u);
    const auto out =
        runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.back(), 3);
}

TEST(ParallelRunner, NestedRunExecutesInline)
{
    // A task that fans out on its own runner (a sharded replay inside
    // an experiment cell) must not enqueue into the batch it is part
    // of: the nested run() executes inline on the worker.
    ParallelRunner runner(4);
    std::atomic<unsigned> inner{0};
    runner.run(4, [&](std::size_t) {
        const auto worker = std::this_thread::get_id();
        runner.run(8, [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), worker);
            ++inner;
        });
    });
    EXPECT_EQ(inner.load(), 32u);
    const auto *reentries = dynamic_cast<const stats::Counter *>(
        runner.stats().find("runner.reentries"));
    ASSERT_NE(reentries, nullptr);
    EXPECT_EQ(reentries->value(), 4u);
}

TEST(ParallelRunner, RunsInlineOnOneJobOrFromItsOwnTasks)
{
    ParallelRunner single(1);
    ParallelRunner runner(4);
    ParallelRunner other(2);
    EXPECT_TRUE(single.runsInline());
    EXPECT_FALSE(runner.runsInline());
    std::atomic<unsigned> own{0}, foreign{0};
    runner.run(4, [&](std::size_t) {
        own += runner.runsInline();
        foreign += other.runsInline();
    });
    // Inside its own tasks the runner nests inline; another runner
    // still fans out from there.
    EXPECT_EQ(own.load(), 4u);
    EXPECT_EQ(foreign.load(), 0u);
    EXPECT_FALSE(runner.runsInline());
}

TEST(ParallelRunner, NestedRunWorksWithSingleJob)
{
    ParallelRunner runner(1);
    unsigned inner = 0;
    std::vector<std::size_t> order;
    runner.run(3, [&](std::size_t i) {
        order.push_back(i);
        runner.run(2, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner, 6u);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order.back(), 2u);
}

TEST(ParallelRunner, NestedRunPropagatesExceptions)
{
    ParallelRunner runner(4);
    std::atomic<unsigned> inner{0};
    EXPECT_THROW(runner.run(2,
                            [&](std::size_t) {
                                runner.run(4, [&](std::size_t i) {
                                    ++inner;
                                    if (i == 1)
                                        throw std::runtime_error("x");
                                });
                            }),
                 std::runtime_error);
    // The nested batches drain fully before rethrowing, and the outer
    // batch drains its remaining tasks, so the runner stays reusable.
    EXPECT_EQ(inner.load(), 8u);
    const auto out =
        runner.map<int>(4, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EQ(out.back(), 3);
}

TEST(ParallelRunner, ConcurrentTopLevelRunsShareThePool)
{
    // Several threads submitting batches to one runner at the same
    // time (concurrent daemon batches do this): every batch completes
    // with every task executed exactly once.
    ParallelRunner runner(4);
    std::atomic<int> total{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t)
        submitters.emplace_back([&] {
            for (int round = 0; round < 8; ++round)
                runner.run(16, [&](std::size_t) { ++total; });
        });
    for (auto &thread : submitters)
        thread.join();
    EXPECT_EQ(total.load(), 3 * 8 * 16);
}

TEST(ParallelRunner, ConcurrentRunsKeepErrorsPerBatch)
{
    // A throwing batch from one submitter must not poison another
    // submitter's concurrent batches: errors belong to the batch that
    // raised them.
    ParallelRunner runner(4);
    std::thread thrower([&] {
        for (int round = 0; round < 16; ++round)
            EXPECT_THROW(runner.run(8,
                                    [](std::size_t i) {
                                        if (i == 3)
                                            throw std::runtime_error(
                                                "poisoned batch");
                                    }),
                         std::runtime_error);
    });
    for (int round = 0; round < 16; ++round) {
        const auto out = runner.map<int>(
            8, [](std::size_t i) { return static_cast<int>(i); });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i));
    }
    thrower.join();
}

TEST(ParallelRunner, RunnerIsReusableAcrossBatches)
{
    ParallelRunner runner(3);
    for (int batch = 0; batch < 5; ++batch) {
        std::atomic<int> sum{0};
        runner.run(10, [&](std::size_t i) {
            sum += static_cast<int>(i);
        });
        EXPECT_EQ(sum.load(), 45);
    }
}

TEST(ParallelRunner, ParallelCaptureMatchesSerial)
{
    // The tentpole guarantee: fanning the capture of all workloads out
    // to a pool yields bit-identical results to the serial loop.
    const StudyConfig config = tinyStudy();
    CaptureCache serial_cache;
    const auto serial = captureAllWorkloads(config, serial_cache);

    ParallelRunner runner(4);
    CaptureCache parallel_cache;
    const auto parallel =
        captureAllWorkloads(config, parallel_cache, runner);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t w = 0; w < serial.size(); ++w) {
        const CapturedWorkload &a = serial[w];
        const CapturedWorkload &b = parallel[w];
        EXPECT_EQ(b.stream.name(), a.stream.name());
        EXPECT_EQ(b.demandAccesses, a.demandAccesses);
        EXPECT_EQ(b.hierarchy.llcMisses, a.hierarchy.llcMisses);
        EXPECT_EQ(b.hierarchy.llcHits, a.hierarchy.llcHits);
        EXPECT_EQ(b.hierarchy.sharing.sharedHits,
                  a.hierarchy.sharing.sharedHits);
        ASSERT_EQ(b.stream.size(), a.stream.size());
        for (std::size_t i = 0; i < a.stream.size(); i += 61) {
            ASSERT_EQ(b.stream[i].block, a.stream[i].block);
            ASSERT_EQ(b.stream[i].core, a.stream[i].core);
        }
    }
}

} // namespace
} // namespace casim
