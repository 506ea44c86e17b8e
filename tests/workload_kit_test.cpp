/**
 * @file
 * Unit tests for the workload construction kit and motif generators
 * — the machinery all twelve synthetic workloads are assembled from.
 */

#include <gtest/gtest.h>

#include "program/executor.hpp"
#include <set>

#include "support/error.hpp"
#include "workloads/workload_kit.hpp"
#include "workloads/workload_motifs.hpp"

namespace rsel {
namespace {

/** Record executed block ids. */
class Record : public PerEventSink
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

TEST(WorkloadKitTest, DiamondRejoinsAtNextBlock)
{
    WorkloadKit kit(1);
    kit.beginFunction("main");
    auto loop = kit.loopBegin(2);
    kit.diamond(0.5, 2, 3, 3);
    kit.loopEnd(loop, 2, 4, 4);
    kit.halt(1);
    Program p = kit.build();

    // Blocks: head, split, then, else, latch, halt.
    ASSERT_EQ(p.blocks().size(), 6u);
    const BasicBlock &split = p.block(1);
    const BasicBlock &thenSide = p.block(2);
    const BasicBlock &elseSide = p.block(3);
    const BasicBlock &latch = p.block(4);
    EXPECT_EQ(split.terminator(), BranchKind::CondDirect);
    EXPECT_EQ(split.takenTarget(), elseSide.startAddr());
    EXPECT_EQ(thenSide.terminator(), BranchKind::Jump);
    EXPECT_EQ(thenSide.takenTarget(), latch.startAddr());
    EXPECT_EQ(elseSide.fallThroughAddr(), latch.startAddr());
}

TEST(WorkloadKitTest, IfThenSkipTargetsJoin)
{
    WorkloadKit kit(1);
    kit.beginFunction("main");
    kit.straight(2);
    kit.ifThen(0.8, 2, 4);
    const BlockId join = kit.straight(2);
    kit.halt(1);
    Program p = kit.build();

    const BasicBlock &split = p.block(1);
    EXPECT_EQ(split.terminator(), BranchKind::CondDirect);
    EXPECT_EQ(split.takenTarget(), p.block(join).startAddr());
    // The then-side falls through into the join.
    EXPECT_EQ(p.block(2).fallThroughAddr(), p.block(join).startAddr());
}

TEST(WorkloadKitTest, CallIfReturnsToJoin)
{
    WorkloadKit kit(1);
    const FuncId leaf = makeLeaf(kit, "leaf", 3, false);
    kit.beginFunction("main");
    kit.straight(2);
    kit.callIf(0.5, 2, 2, leaf);
    const BlockId join = kit.straight(2);
    kit.halt(1);
    Program p = kit.build();

    // Find the call site: the block with a Call terminator.
    const BasicBlock *site = nullptr;
    for (const BasicBlock &b : p.blocks())
        if (b.terminator() == BranchKind::Call)
            site = &b;
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->fallThroughAddr(), p.block(join).startAddr());
    EXPECT_EQ(site->takenTarget(),
              p.block(p.function(leaf).entry).startAddr());
}

TEST(WorkloadKitTest, CallFromTwoSitesGivesEntryTwoPredecessors)
{
    WorkloadKit kit(1);
    const FuncId leaf = makeLeaf(kit, "leaf", 3, false);
    kit.beginFunction("main");
    auto loop = kit.loopBegin(2);
    kit.callFromTwoSites(0.5, 2, 2, leaf);
    kit.loopEnd(loop, 2, 1000, 1000);
    kit.halt(1);
    Program p = kit.build();

    // Two distinct call sites must target the leaf entry.
    int sites = 0;
    const Addr leafEntry = p.block(p.function(leaf).entry).startAddr();
    for (const BasicBlock &b : p.blocks())
        if (b.terminator() == BranchKind::Call &&
            b.takenTarget() == leafEntry)
            ++sites;
    EXPECT_EQ(sites, 2);

    // Both sites actually execute.
    Executor exec(p, 5);
    Record sink(p);
    exec.run(20'000, sink);
    std::vector<int> counts(p.blocks().size(), 0);
    for (BlockId id : sink.ids)
        ++counts[id];
    int executedSites = 0;
    for (const BasicBlock &b : p.blocks())
        if (b.terminator() == BranchKind::Call &&
            b.takenTarget() == leafEntry && counts[b.id()] > 0)
            ++executedSites;
    EXPECT_EQ(executedSites, 2);
}

TEST(WorkloadKitTest, SwitchCasesAllRejoin)
{
    WorkloadKit kit(1);
    kit.beginFunction("main");
    auto loop = kit.loopBegin(2);
    kit.switchStmt(2, {3, 3, 3}, {1.0, 1.0, 1.0});
    kit.loopEnd(loop, 2, 500, 500);
    kit.halt(1);
    Program p = kit.build();

    Executor exec(p, 5);
    Record sink(p);
    exec.run(5'000, sink);
    std::vector<int> counts(p.blocks().size(), 0);
    for (BlockId id : sink.ids)
        ++counts[id];
    // Every case block executes with a flat weighting.
    int executedCases = 0;
    for (const BasicBlock &b : p.blocks())
        if (b.terminator() == BranchKind::Jump && counts[b.id()] > 100)
            ++executedCases;
    EXPECT_GE(executedCases, 3);
}

TEST(WorkloadMotifTest, KernelShapeFollowsSpec)
{
    WorkloadKit kit(1);
    const FuncId leaf = makeLeaf(kit, "leaf", 3, false);
    KernelSpec spec;
    spec.callee = leaf;
    spec.nestedInner = true;
    spec.unbiasedProb = 0.5;
    const FuncId kernel = makeKernel(kit, "kernel", spec);
    kit.beginFunction("main");
    auto loop = kit.loopBegin(2);
    kit.call(2, kernel);
    kit.loopForever(loop, 2);
    Program p = kit.build();

    // The kernel contains calls to the leaf (two sites), an inner
    // loop (a backward conditional), and the shared continue-arm
    // (a block jumping back into the kernel).
    const Function &kf = p.function(kernel);
    int callSites = 0, backwardConds = 0, backJumps = 0;
    for (BlockId id = kf.firstBlock; id < kf.lastBlock; ++id) {
        const BasicBlock &b = p.block(id);
        if (b.terminator() == BranchKind::Call)
            ++callSites;
        if (b.terminator() == BranchKind::CondDirect &&
            b.takenTarget() <= b.lastInstAddr())
            ++backwardConds;
        if (b.terminator() == BranchKind::Jump &&
            b.takenTarget() <= b.lastInstAddr())
            ++backJumps;
    }
    EXPECT_EQ(callSites, 2);     // two-site leaf call
    EXPECT_GE(backwardConds, 2); // inner + outer latches
    EXPECT_GE(backJumps, 1);     // the continue-arm

    // And it runs: the kernel must return to main's loop.
    Executor exec(p, 9);
    Record sink(p);
    const std::uint64_t n = exec.run(50'000, sink);
    EXPECT_EQ(n, 50'000u);
}

TEST(WorkloadMotifTest, ColdUtilVariantsDiffer)
{
    WorkloadKit kit(1);
    const auto cold = makeColdPeriphery(kit, "x", 4);
    kit.beginFunction("main");
    auto loop = kit.loopBegin(2);
    for (FuncId f : cold)
        kit.call(2, f);
    kit.loopForever(loop, 2);
    Program p = kit.build();

    ASSERT_EQ(cold.size(), 4u);
    // The four variants have distinct block counts (distinct shapes).
    std::set<std::uint32_t> sizes;
    for (FuncId f : cold) {
        const Function &fn = p.function(f);
        sizes.insert(fn.lastBlock - fn.firstBlock);
    }
    EXPECT_GE(sizes.size(), 3u);

    Executor exec(p, 3);
    Record sink(p);
    EXPECT_EQ(exec.run(10'000, sink), 10'000u);
}

TEST(WorkloadKitTest, UnresolvedJoinsAreCaught)
{
    WorkloadKit kit(1);
    kit.beginFunction("main");
    kit.straight(2);
    kit.ifThen(0.5, 2, 3); // pending skip never resolved
    EXPECT_THROW(kit.build(), PanicError);
}

} // namespace
} // namespace rsel
