/**
 * @file
 * Unit tests for the Executor: branch resolution, loops, calls,
 * phases, determinism.
 */

#include <gtest/gtest.h>

#include "program/executor.hpp"
#include "program/program_builder.hpp"

namespace rsel {

/** A looping program mixing loops, calls and random branches. */
Program buildProgramForDeterminism();

namespace {

/** Sink that records the sequence of executed block ids. */
class RecordingSink : public PerEventSink
{
  public:
    using PerEventSink::PerEventSink;

    bool
    onEvent(const ExecEvent &ev) override
    {
        ids.push_back(ev.block->id());
        taken.push_back(ev.takenBranch);
        return true;
    }

    std::vector<BlockId> ids;
    std::vector<bool> taken;
};

Program
straightLineProgram()
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    b.block(2);
    b.block(2);
    const BlockId last = b.block(2);
    b.halt(last);
    return b.build();
}

TEST(ExecutorTest, StraightLineRunsToHalt)
{
    Program p = straightLineProgram();
    Executor exec(p, 1);
    RecordingSink sink(p);
    const std::uint64_t n = exec.run(100, sink);
    EXPECT_EQ(n, 3u);
    EXPECT_TRUE(exec.finished());
    EXPECT_EQ(sink.ids, (std::vector<BlockId>{0, 1, 2}));
    EXPECT_FALSE(sink.taken[0]); // entry is not a taken branch
    EXPECT_FALSE(sink.taken[1]); // fall-through
    // A finished executor delivers nothing more.
    EXPECT_EQ(exec.run(10, sink), 0u);
}

TEST(ExecutorTest, LoopTripCountsAreExact)
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId head = b.block(1);
    const BlockId latch = b.block(1);
    b.loopTo(latch, head, 5, 5);
    const BlockId out = b.block(1);
    b.halt(out);
    Program p = b.build();

    Executor exec(p, 1);
    RecordingSink sink(p);
    exec.run(1000, sink);
    // 5 iterations of (head, latch), then the exit block.
    ASSERT_EQ(sink.ids.size(), 11u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(sink.ids[2 * i], head);
        EXPECT_EQ(sink.ids[2 * i + 1], latch);
    }
    EXPECT_EQ(sink.ids.back(), out);
}

TEST(ExecutorTest, LoopRearmsOnReentry)
{
    // Outer loop runs the inner loop twice; inner must re-arm.
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId outerHead = b.block(1);
    const BlockId innerHead = b.block(1);
    const BlockId innerLatch = b.block(1);
    b.loopTo(innerLatch, innerHead, 3, 3);
    const BlockId outerLatch = b.block(1);
    b.loopTo(outerLatch, outerHead, 2, 2);
    const BlockId out = b.block(1);
    b.halt(out);
    Program p = b.build();

    Executor exec(p, 1);
    RecordingSink sink(p);
    exec.run(1000, sink);
    // Per outer iteration: outerHead + 3*(innerHead,innerLatch) +
    // outerLatch = 8 events; 2 iterations + final halt block.
    EXPECT_EQ(sink.ids.size(), 2u * 8u + 1u);
}

TEST(ExecutorTest, CallAndReturnFollowTheStack)
{
    ProgramBuilder b(1);
    const FuncId callee = b.beginFunction("callee");
    const BlockId body = b.block(1);
    b.ret(body);
    b.beginFunction("main");
    const BlockId site = b.block(1);
    b.callTo(site, callee);
    const BlockId after = b.block(1);
    b.halt(after);
    Program p = b.build();

    Executor exec(p, 1);
    RecordingSink sink(p);
    exec.run(100, sink);
    EXPECT_EQ(sink.ids, (std::vector<BlockId>{site, body, after}));
    EXPECT_TRUE(sink.taken[1]); // call transfer
    EXPECT_TRUE(sink.taken[2]); // return transfer
}

TEST(ExecutorTest, ReturnPastEntryFrameEndsProgram)
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId x = b.block(1);
    b.ret(x);
    Program p = b.build();
    Executor exec(p, 1);
    RecordingSink sink(p);
    EXPECT_EQ(exec.run(100, sink), 1u);
    EXPECT_TRUE(exec.finished());
}

TEST(ExecutorTest, BernoulliBranchMatchesProbability)
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId split = b.block(1);
    const BlockId fall = b.block(1);
    const BlockId target = b.block(1);
    b.condTo(split, target, CondBehavior::bernoulli(0.25));
    b.jumpTo(fall, split);
    b.jumpTo(target, split);
    Program p = b.build();

    Executor exec(p, 3);
    RecordingSink sink(p);
    exec.run(30000, sink);
    int taken = 0, total = 0;
    for (std::size_t i = 0; i + 1 < sink.ids.size(); ++i) {
        if (sink.ids[i] == split) {
            ++total;
            taken += sink.ids[i + 1] == target ? 1 : 0;
        }
    }
    EXPECT_NEAR(static_cast<double>(taken) / total, 0.25, 0.03);
}

TEST(ExecutorTest, IndirectDispatchFollowsWeights)
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId sw = b.block(1);
    const BlockId c0 = b.block(1);
    const BlockId c1 = b.block(1);
    b.jumpTo(c0, sw);
    b.jumpTo(c1, sw);
    IndirectBehavior ib;
    ib.targets = {c0, c1};
    ib.weightsByPhase = {{1.0, 4.0}};
    b.indirectJump(sw, std::move(ib));
    Program p = b.build();

    Executor exec(p, 5);
    RecordingSink sink(p);
    exec.run(20000, sink);
    int n0 = 0, n1 = 0;
    for (std::size_t i = 0; i + 1 < sink.ids.size(); ++i) {
        if (sink.ids[i] == sw) {
            n0 += sink.ids[i + 1] == c0 ? 1 : 0;
            n1 += sink.ids[i + 1] == c1 ? 1 : 0;
        }
    }
    EXPECT_NEAR(static_cast<double>(n1) / (n0 + n1), 0.8, 0.03);
}

TEST(ExecutorTest, PhasesModulateBranchBias)
{
    ProgramBuilder b(1);
    b.beginFunction("main");
    const BlockId split = b.block(1);
    const BlockId fall = b.block(1);
    const BlockId target = b.block(1);
    // Phase 0: never taken. Phase 1: always taken.
    b.condTo(split, target, CondBehavior::phased({0.0, 1.0}));
    b.jumpTo(fall, split);
    b.jumpTo(target, split);
    b.setPhaseLengths({1000, 1000});
    Program p = b.build();

    Executor exec(p, 7);
    RecordingSink sink(p);
    exec.run(900, sink); // stay strictly inside phase 0
    for (std::size_t i = 0; i + 1 < sink.ids.size(); ++i) {
        if (sink.ids[i] == split) {
            EXPECT_EQ(sink.ids[i + 1], fall);
        }
    }
    EXPECT_EQ(exec.currentPhase(), 0u);

    exec.run(1000, sink); // cross into phase 1
    EXPECT_EQ(exec.currentPhase(), 1u);
    // The tail of the stream must now take the branch.
    bool sawTaken = false;
    for (std::size_t i = sink.ids.size() - 200; i + 1 < sink.ids.size();
         ++i) {
        if (sink.ids[i] == split) {
            EXPECT_EQ(sink.ids[i + 1], target);
            sawTaken = true;
        }
    }
    EXPECT_TRUE(sawTaken);
}

TEST(ExecutorTest, DeterministicForSameSeed)
{
    Program p = buildProgramForDeterminism();
    Executor a(p, 11), b2(p, 11);
    RecordingSink sa(p), sb(p);
    a.run(5000, sa);
    b2.run(5000, sb);
    EXPECT_EQ(sa.ids, sb.ids);
}

TEST(ExecutorTest, ResetRestartsCleanly)
{
    Program p = buildProgramForDeterminism();
    Executor a(p, 11);
    RecordingSink s1(p);
    a.run(2000, s1);
    a.reset(11);
    EXPECT_FALSE(a.finished());
    EXPECT_EQ(a.executedBlocks(), 0u);
    RecordingSink s2(p);
    a.run(2000, s2);
    EXPECT_EQ(s1.ids, s2.ids);
}

TEST(ExecutorTest, SinkCanStopEarlyAndResume)
{
    Program p = straightLineProgram();

    class StopAfterOne : public PerEventSink
    {
      public:
        using PerEventSink::PerEventSink;

        bool
        onEvent(const ExecEvent &ev) override
        {
            ids.push_back(ev.block->id());
            return false;
        }
        std::vector<BlockId> ids;
    };

    // Bounded one event at a time, the run resumes exactly where the
    // last one stopped: the successor is resolved before run()
    // returns, so nothing is produced past the stop point.
    Executor exec(p, 1);
    StopAfterOne sink(p);
    EXPECT_EQ(exec.run(1, sink), 1u);
    EXPECT_EQ(exec.executedBlocks(), 1u);
    EXPECT_EQ(exec.run(1, sink), 1u);
    EXPECT_EQ(exec.run(1, sink), 1u);
    EXPECT_EQ(sink.ids, (std::vector<BlockId>{0, 1, 2}));
    EXPECT_TRUE(exec.finished());
    EXPECT_EQ(exec.run(1, sink), 0u);

    // Unbounded, a false mid-batch stops the run and drops the rest
    // of the batch the producer already advanced past.
    Executor whole(p, 1);
    StopAfterOne first(p);
    EXPECT_EQ(whole.run(100, first), 1u);
    EXPECT_EQ(first.ids, (std::vector<BlockId>{0}));
    EXPECT_EQ(whole.executedBlocks(), 3u);
    EXPECT_TRUE(whole.finished());
}

} // namespace

Program
buildProgramForDeterminism()
{
    ProgramBuilder b(2);
    const FuncId helper = b.beginFunction("helper");
    const BlockId h = b.block(2);
    b.ret(h);
    b.beginFunction("main");
    const BlockId head = b.block(2);
    const BlockId split = b.block(1);
    const BlockId thenSide = b.block(2);
    const BlockId site = b.block(1);
    b.callTo(site, helper);
    const BlockId latch = b.block(1);
    b.condTo(split, site, CondBehavior::bernoulli(0.5));
    b.jumpTo(thenSide, latch);
    b.loopTo(latch, head, 3, 17);
    const BlockId out = b.block(1);
    b.jumpTo(out, head); // endless: trips resample on re-entry
    return b.build();
}

} // namespace rsel
