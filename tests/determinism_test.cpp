/**
 * @file
 * Determinism guarantees: identical seeds yield byte-identical
 * programs and event streams, and every parallel harness in the
 * repo (sweep engine, fuzz harness) produces output independent of
 * its job count.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "driver/sweep_runner.hpp"
#include "program/program_builder.hpp"
#include "program/trace_io.hpp"
#include "testing/differential.hpp"
#include "testing/fuzz_harness.hpp"
#include "testing/invariant_sink.hpp"
#include "testing/random_program.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

using testing::fnvEvent;
using testing::fnvOffset;
using testing::FuzzOptions;
using testing::FuzzSummary;
using testing::GenSpec;
using testing::generateProgram;
using testing::resultFingerprint;
using testing::runFuzz;

/** Hash the (id, taken) stream of up to `events` executor events. */
std::uint64_t
streamHashOf(const Program &prog, std::uint64_t seed,
             std::uint64_t events)
{
    class Hash : public PerEventSink
    {
      public:
        using PerEventSink::PerEventSink;

        bool
        onEvent(const ExecEvent &ev) override
        {
            h = fnvEvent(h, ev.block->id(), ev.takenBranch);
            return true;
        }
        std::uint64_t h = fnvOffset;
    };
    Hash sink(prog);
    Executor exec(prog, seed);
    exec.run(events, sink);
    return sink.h;
}

TEST(DeterminismTest, SaveProgramIsByteIdenticalAcrossBuilds)
{
    // Workload builders and the fuzz generator must both be pure
    // functions of their seeds.
    for (const WorkloadInfo &w : workloadSuite()) {
        std::ostringstream a, b;
        saveProgram(w.build(42), a);
        saveProgram(w.build(42), b);
        EXPECT_EQ(a.str(), b.str()) << w.name;
    }
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const GenSpec spec = GenSpec::fromSeed(seed);
        std::ostringstream a, b;
        saveProgram(generateProgram(spec), a);
        saveProgram(generateProgram(spec), b);
        EXPECT_EQ(a.str(), b.str()) << "fuzz seed " << seed;
    }
}

TEST(DeterminismTest, ExecutorStreamIsSeedDeterministic)
{
    // An unbiased conditional inside a long-running loop: the
    // executor's RNG provably shapes the stream on every iteration
    // (a loop-only program would be branch-deterministic and make
    // this test vacuous).
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId b0 = b.block(2);
    const BlockId b1 = b.block(3);
    const BlockId b2 = b.block(2);
    const BlockId b3 = b.block(1);
    b.condTo(b0, b2, CondBehavior::bernoulli(0.5));
    b.loopTo(b2, b0, 1'000'000'000, 1'000'000'000);
    b.halt(b3);
    b.setEntry(b0);
    (void)b1;
    const Program prog = b.build();
    const std::uint64_t h1 = streamHashOf(prog, 99, 20'000);
    const std::uint64_t h2 = streamHashOf(prog, 99, 20'000);
    EXPECT_EQ(h1, h2);
    // A different executor seed must (overwhelmingly) change the
    // stream — otherwise the hash is vacuous.
    const std::uint64_t h3 = streamHashOf(prog, 100, 20'000);
    EXPECT_NE(h1, h3);
}

TEST(DeterminismTest, SweepResultsIdenticalAcrossJobCounts)
{
    std::vector<const WorkloadInfo *> workloads;
    for (const WorkloadInfo &w : workloadSuite()) {
        workloads.push_back(&w);
        if (workloads.size() == 2)
            break;
    }
    std::vector<Algorithm> algos(std::begin(allSelectors),
                                 std::end(allSelectors));
    SimOptions base;
    base.maxEvents = 20'000;
    base.seed = 7;
    const std::vector<SweepCell> cells =
        SweepRunner::makeGrid(workloads, algos, base, 42);

    const std::vector<SimResult> serial = SweepRunner(1).run(cells);
    const std::vector<SimResult> parallel = SweepRunner(8).run(cells);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(resultFingerprint(serial[i]),
                  resultFingerprint(parallel[i]))
            << "cell " << i;
}

TEST(DeterminismTest, FuzzSummaryIdenticalAcrossJobCounts)
{
    FuzzOptions opts;
    opts.seeds = 6;
    opts.startSeed = 1;
    opts.events = 3'000;
    opts.shrink = false;

    opts.jobs = 1;
    const FuzzSummary serial = runFuzz(opts);
    opts.jobs = 8;
    const FuzzSummary parallel = runFuzz(opts);

    EXPECT_EQ(serial.seedsRun, parallel.seedsRun);
    EXPECT_EQ(serial.failures, parallel.failures);
    ASSERT_EQ(serial.detail.size(), parallel.detail.size());
    for (std::size_t i = 0; i < serial.detail.size(); ++i) {
        EXPECT_EQ(serial.detail[i].seed, parallel.detail[i].seed);
        EXPECT_EQ(serial.detail[i].error, parallel.detail[i].error);
    }
}

} // namespace
} // namespace rsel
