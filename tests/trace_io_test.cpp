/**
 * @file
 * Tests for program serialization and trace record/replay: the
 * trace-driven front door external tools (Pin/DynamoRIO clients)
 * would use.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dynopt/dynopt_system.hpp"
#include "program/trace_io.hpp"
#include "support/error.hpp"
#include "testing/differential.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

class TraceIoSuiteTest : public ::testing::TestWithParam<const char *>
{};

TEST_P(TraceIoSuiteTest, ProgramRoundTripsExactly)
{
    const WorkloadInfo *w = findWorkload(GetParam());
    ASSERT_NE(w, nullptr);
    Program original = w->build(42);

    std::stringstream file;
    saveProgram(original, file);
    Program loaded = loadProgram(file);

    ASSERT_EQ(loaded.blocks().size(), original.blocks().size());
    ASSERT_EQ(loaded.functions().size(), original.functions().size());
    EXPECT_EQ(loaded.entry(), original.entry());
    EXPECT_EQ(loaded.phaseLengths(), original.phaseLengths());
    for (std::size_t i = 0; i < original.blocks().size(); ++i) {
        const BasicBlock &a = original.blocks()[i];
        const BasicBlock &b = loaded.blocks()[i];
        EXPECT_EQ(a.startAddr(), b.startAddr());
        EXPECT_EQ(a.sizeBytes(), b.sizeBytes());
        EXPECT_EQ(a.instCount(), b.instCount());
        EXPECT_EQ(a.terminator(), b.terminator());
        EXPECT_EQ(a.takenTarget(), b.takenTarget());
        EXPECT_EQ(a.func(), b.func());
    }
    for (std::size_t i = 0; i < original.functions().size(); ++i)
        EXPECT_EQ(loaded.functions()[i].name,
                  original.functions()[i].name);
}

TEST_P(TraceIoSuiteTest, ExecutionMatchesAfterRoundTrip)
{
    const WorkloadInfo *w = findWorkload(GetParam());
    Program original = w->build(42);
    std::stringstream file;
    saveProgram(original, file);
    Program loaded = loadProgram(file);

    // Behaviours must round-trip too: identical seeds produce
    // identical streams.
    class Ids : public PerEventSink
    {
      public:
        using PerEventSink::PerEventSink;

        bool
        onEvent(const ExecEvent &ev) override
        {
            ids.push_back(ev.block->id());
            return true;
        }
        std::vector<BlockId> ids;
    };
    Executor e1(original, 17), e2(loaded, 17);
    Ids s1(original), s2(loaded);
    e1.run(30'000, s1);
    e2.run(30'000, s2);
    EXPECT_EQ(s1.ids, s2.ids);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TraceIoSuiteTest,
    ::testing::Values("gzip", "gcc", "eon", "perlbmk", "vortex"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

TEST(TraceIoTest, RecordedTraceReplaysIdentically)
{
    Program p = buildGzip(42);

    // Record 200k events while simulating under NET.
    std::stringstream traceFile;
    class Tee : public BatchSink
    {
      public:
        Tee(BatchSink &a, BatchSink &b) : a_(a), b_(b) {}
        std::size_t
        onBatch(const EventBatch &batch) override
        {
            a_.onBatch(batch);
            return b_.onBatch(batch);
        }

      private:
        BatchSink &a_;
        BatchSink &b_;
    };

    DynOptSystem live(p);
    live.useNet();
    TraceWriter writer(traceFile, p);
    Tee tee(writer, live);
    Executor exec(p, 7);
    exec.run(200'000, tee);
    SimResult liveResult = live.finish();
    writer.finish(); // seal the trace before replaying it
    EXPECT_EQ(writer.eventCount(), 200'000u);

    // Replay the trace into a fresh system: identical metrics.
    DynOptSystem replayed(p);
    replayed.useNet();
    TraceReplayer replayer(p, traceFile);
    EXPECT_EQ(replayer.run(400'000, replayed), 200'000u);
    SimResult replayResult = replayed.finish();

    EXPECT_EQ(replayResult.regionCount, liveResult.regionCount);
    EXPECT_EQ(replayResult.expansionInsts, liveResult.expansionInsts);
    EXPECT_EQ(replayResult.regionTransitions,
              liveResult.regionTransitions);
    EXPECT_EQ(replayResult.cachedInsts, liveResult.cachedInsts);
    EXPECT_EQ(replayResult.coverSet90, liveResult.coverSet90);
    EXPECT_EQ(replayResult.exitDominatedRegions,
              liveResult.exitDominatedRegions);
}

TEST(TraceIoTest, ReplayerCanPause)
{
    Program p = buildNestedLoops();
    std::stringstream traceFile;
    TraceWriter writer(traceFile, p);
    Executor exec(p, 7);
    exec.run(1'000, writer);
    writer.finish();

    class Count : public BatchSink
    {
      public:
        std::size_t
        onBatch(const EventBatch &batch) override
        {
            n += batch.size();
            return batch.size();
        }
        std::uint64_t n = 0;
    };
    Count sink;
    TraceReplayer replayer(p, traceFile);
    EXPECT_EQ(replayer.run(300, sink), 300u);
    EXPECT_EQ(replayer.run(10'000, sink), 700u);
    EXPECT_EQ(replayer.run(10, sink), 0u); // exhausted
    EXPECT_EQ(sink.n, 1'000u);
    EXPECT_TRUE(replayer.atEnd());
}

namespace {

class NullSink : public BatchSink
{
  public:
    std::size_t
    onBatch(const EventBatch &batch) override
    {
        return batch.size();
    }
};

/** Record `events` raw executor events of `p`, sealed. */
std::string
recordTrace(const Program &p, std::uint64_t seed, std::uint64_t events)
{
    std::ostringstream os;
    TraceWriter writer(os, p);
    Executor exec(p, seed);
    exec.run(events, writer);
    writer.finish();
    return os.str();
}

} // namespace

TEST(TraceIoTest, TruncatedTraceIsFatalNamingByteOffset)
{
    Program p = buildNestedLoops();
    const std::string full = recordTrace(p, 7, 1'000);

    // Chop the one-byte end-of-trace marker: the stream now ends at
    // an event boundary but without the marker.
    {
        std::istringstream is(full.substr(0, full.size() - 1));
        TraceReplayer replayer(p, is);
        NullSink sink;
        try {
            replayer.run(10'000, sink);
            FAIL() << "truncated trace replayed without error";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("byte offset"),
                      std::string::npos)
                << e.what();
        }
    }

    // Cut mid-event: drop the marker AND leave a dangling
    // continuation byte (high bit set), i.e. a cut mid-LEB128.
    {
        std::string cut = full.substr(0, full.size() - 1);
        cut += static_cast<char>(0x80);
        std::istringstream is(cut);
        TraceReplayer replayer(p, is);
        NullSink sink;
        try {
            replayer.run(10'000, sink);
            FAIL() << "mid-LEB128 cut replayed without error";
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("mid-LEB128"), std::string::npos)
                << what;
            EXPECT_NE(what.find("byte offset"), std::string::npos)
                << what;
        }
    }
}

TEST(TraceIoTest, MalformedInputsAreFatal)
{
    Program p = buildNestedLoops();
    {
        std::stringstream bad("not-a-program\n");
        EXPECT_THROW(loadProgram(bad), FatalError);
    }
    {
        std::stringstream bad("BADMAGIC\n");
        EXPECT_THROW(TraceReplayer(p, bad), FatalError);
    }
    {
        // Valid header, garbage block id.
        std::stringstream trace;
        trace << "RSTR1 4\n"; // matching block count
        trace.put(static_cast<char>(0xff));
        trace.put(static_cast<char>(0x7f)); // id 16383
        TraceReplayer replayer(p, trace);
        NullSink sink;
        EXPECT_THROW(replayer.run(10, sink), FatalError);
    }
    {
        // A trace recorded against a different program.
        std::stringstream trace;
        trace << "RSTR1 9999\n";
        EXPECT_THROW(TraceReplayer(p, trace), FatalError);
    }
    {
        // An out-of-range instruction size must not truncate.
        std::stringstream bad;
        bad << "rsel-program 1\n"
            << "function main\n"
            << "block 1 300 halt\n";
        EXPECT_THROW(loadProgram(bad), FatalError);
    }
    {
        // A conditional block without a behaviour line.
        std::stringstream bad;
        bad << "rsel-program 1\n"
            << "function main\n"
            << "block 1 4 cond 0\n"
            << "block 1 4 halt\n";
        EXPECT_THROW(loadProgram(bad), FatalError);
    }
}

// Property: for EVERY shipped selector — not just NET — replaying a
// recorded trace yields a SimResult identical field-for-field to the
// live run that produced the stream.
TEST(TraceIoTest, ReplayMatchesLiveUnderEverySelector)
{
    Program p = buildGzip(42);
    const std::uint64_t seed = 7, events = 60'000;
    const std::string trace = recordTrace(p, seed, events);

    for (const Algorithm algo : allSelectors) {
        SimOptions opts;
        opts.maxEvents = events;
        opts.seed = seed;

        DynOptSystem live(p);
        attachAlgorithm(live, algo, opts);
        Executor exec(p, seed);
        exec.run(events, live);
        const SimResult liveResult = live.finish();

        DynOptSystem replayed(p);
        attachAlgorithm(replayed, algo, opts);
        std::istringstream is(trace);
        TraceReplayer replayer(p, is);
        EXPECT_EQ(replayer.run(events, replayed), events)
            << algorithmName(algo);
        const SimResult replayResult = replayed.finish();

        EXPECT_EQ(testing::resultFingerprint(replayResult),
                  testing::resultFingerprint(liveResult))
            << algorithmName(algo);
    }
}

// The trace is a function of the stream alone: recording through
// TraceWriter at any batch size writes the same bytes, and replaying
// at any batch size gives the same SimResult.
TEST(TraceIoTest, RecordAndReplayAreBatchSizeInvariant)
{
    Program p = buildGzip(42);
    const std::uint64_t seed = 7, events = 40'000;
    constexpr std::size_t sizes[] = {1, 257, 4096};

    std::vector<std::string> traces;
    for (const std::size_t bs : sizes) {
        std::ostringstream os;
        TraceWriter writer(os, p);
        Executor exec(p, seed);
        EXPECT_EQ(exec.run(events, writer, bs), events);
        writer.finish();
        EXPECT_EQ(writer.eventCount(), events);
        traces.push_back(os.str());
    }
    for (const std::string &t : traces)
        EXPECT_EQ(t, traces.front());

    for (const Algorithm algo : {Algorithm::Net, Algorithm::LeiCombined}) {
        SCOPED_TRACE(algorithmName(algo));
        std::vector<std::string> fps;
        for (const std::size_t bs : sizes) {
            DynOptSystem sys(p);
            attachAlgorithm(sys, algo);
            std::istringstream is(traces.front());
            TraceReplayer replayer(p, is);
            EXPECT_EQ(replayer.run(events + 1, sys, bs), events);
            EXPECT_TRUE(replayer.atEnd());
            fps.push_back(testing::resultFingerprint(sys.finish()));
        }
        for (const std::string &fp : fps)
            EXPECT_EQ(fp, fps.front());
    }
}

} // namespace
} // namespace rsel
