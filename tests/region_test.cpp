/**
 * @file
 * Unit tests for Region: step semantics, exit stubs, cycle spanning.
 */

#include <gtest/gtest.h>

#include "program/program.hpp"
#include "runtime/region.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

std::vector<const BasicBlock *>
pathOf(const Program &p, std::initializer_list<BlockId> ids)
{
    std::vector<const BasicBlock *> path;
    for (BlockId id : ids)
        path.push_back(&p.block(id));
    return path;
}

TEST(RegionTest, TraceFootprint)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    Region r = Region::makeTrace(0, pathOf(p, {Ids::a, Ids::b, Ids::d}));
    EXPECT_EQ(r.kind(), Region::Kind::Trace);
    EXPECT_EQ(r.entryAddr(), p.block(Ids::a).startAddr());
    EXPECT_EQ(r.instCount(), 3u + 3u + 2u);
    EXPECT_EQ(r.byteSize(), p.block(Ids::a).sizeBytes() +
                                p.block(Ids::b).sizeBytes() +
                                p.block(Ids::d).sizeBytes());
    EXPECT_TRUE(r.containsBlock(Ids::b));
    EXPECT_FALSE(r.containsBlock(Ids::l));
}

TEST(RegionTest, TraceStepFollowsRecordedPath)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    Region r = Region::makeTrace(0, pathOf(p, {Ids::a, Ids::b, Ids::d}));

    std::size_t pos = 0;
    EXPECT_EQ(r.step(pos, p.block(Ids::b), false), RegionStep::Internal);
    EXPECT_EQ(pos, 1u);
    EXPECT_EQ(r.step(pos, p.block(Ids::d), false), RegionStep::Internal);
    EXPECT_EQ(pos, 2u);
    // The call leaves the trace.
    EXPECT_EQ(r.step(pos, p.block(Ids::e), true), RegionStep::Exit);
    EXPECT_EQ(pos, 2u); // unchanged on exit
}

TEST(RegionTest, TraceStepExitsOnPathDivergence)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    std::size_t pos = 0;
    // Executing the other side of the unbiased branch exits at once.
    EXPECT_EQ(r.step(pos, p.block(Ids::b), false), RegionStep::Exit);
}

TEST(RegionTest, TraceBranchToTopRestartsCycle)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    EXPECT_TRUE(r.spansCycle()); // F jumps back to A

    std::size_t pos = 0;
    ASSERT_EQ(r.step(pos, p.block(Ids::c), true), RegionStep::Internal);
    ASSERT_EQ(r.step(pos, p.block(Ids::d), false), RegionStep::Internal);
    ASSERT_EQ(r.step(pos, p.block(Ids::f), true), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::a), true),
              RegionStep::CycleRestart);
    EXPECT_EQ(pos, 0u);
}

TEST(RegionTest, TraceExitStubCount)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    // Trace A C D F spanning the cycle:
    //  A: cond taken->C (inline), fall->B (stub)            = 1
    //  C: falls through to D (inline)                       = 0
    //  D: cond taken->F (inline), fall->E (stub)            = 1
    //  F: jump to A = branch to top (linked, no stub)       = 0
    Region r =
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    EXPECT_EQ(r.exitStubCount(), 2u);
    EXPECT_TRUE(r.spansCycle());

    // Trace B D F (the tail-duplicated second trace):
    //  B: jump to D (inline)                                = 0
    //  D: cond taken->F (inline), fall->E (stub)            = 1
    //  F: jump to A (off-trace target, stub)                = 1
    Region r2 = Region::makeTrace(1, pathOf(p, {Ids::b, Ids::d, Ids::f}));
    EXPECT_EQ(r2.exitStubCount(), 2u);
    EXPECT_FALSE(r2.spansCycle());
}

TEST(RegionTest, IndirectTerminatorsAlwaysNeedAStub)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;
    // Trace E F: F returns (indirect) — one stub even though the
    // trace ends there; E falls through to F inline.
    Region r = Region::makeTrace(0, pathOf(p, {Ids::e, Ids::f}));
    EXPECT_EQ(r.exitStubCount(), 1u);
}

TEST(RegionTest, MultiPathMembershipKeepsControl)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    Region r = Region::makeMultiPath(
        0, pathOf(p, {Ids::a, Ids::b, Ids::c, Ids::d, Ids::f}));
    EXPECT_EQ(r.kind(), Region::Kind::MultiPath);

    std::size_t pos = 0;
    // Both sides of the unbiased branch stay inside.
    EXPECT_EQ(r.step(pos, p.block(Ids::b), false), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::d), true), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::f), true), RegionStep::Internal);
    EXPECT_EQ(r.step(pos, p.block(Ids::a), true),
              RegionStep::CycleRestart);
    EXPECT_EQ(pos, 0u);
    // The rare side exits.
    ++pos; // move off the entry
    EXPECT_EQ(r.step(pos, p.block(Ids::e), false), RegionStep::Exit);
}

TEST(RegionTest, MultiPathStubsExcludeInternalTargets)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    // Region {A,B,C,D,F}:
    //  A: both directions internal                          = 0
    //  B: jump D internal                                   = 0
    //  C: falls to D internal                               = 0
    //  D: taken->F internal, fall->E outside                = 1
    //  F: jump A internal (cycle)                           = 0
    Region r = Region::makeMultiPath(
        0, pathOf(p, {Ids::a, Ids::b, Ids::c, Ids::d, Ids::f}));
    EXPECT_EQ(r.exitStubCount(), 1u);
    EXPECT_TRUE(r.spansCycle());

    // Compare: two single-path traces need 4 stubs for the same hot
    // code (2 + 2 above) — the paper's Figure 4 reduction.
    Region t1 =
        Region::makeTrace(1, pathOf(p, {Ids::a, Ids::c, Ids::d, Ids::f}));
    Region t2 = Region::makeTrace(2, pathOf(p, {Ids::b, Ids::d, Ids::f}));
    EXPECT_GT(t1.exitStubCount() + t2.exitStubCount(),
              r.exitStubCount());
}

// The member table is open-addressed, so members collide in it and
// are found by probing. Random member sets of a large program (a
// regular stride of ids would hash without any collision) must be
// looked up right: members keep control at their own position,
// non-members exit.
TEST(RegionTest, MultiPathMemberTableFindsEveryMember)
{
    Program p = buildGcc(1);
    ASSERT_GT(p.blocks().size(), 200u);
    Rng rng(3);
    for (int round = 0; round < 20; ++round) {
        std::vector<const BasicBlock *> members;
        for (const BasicBlock &b : p.blocks())
            if (rng.nextBool(0.4))
                members.push_back(&b);
        ASSERT_FALSE(members.empty());
        std::swap(members.front(), members[rng.nextBelow(members.size())]);
        Region r = Region::makeMultiPath(0, members);

        std::vector<std::size_t> posOf(p.blocks().size(), SIZE_MAX);
        for (std::size_t i = 0; i < members.size(); ++i)
            posOf[members[i]->id()] = i;
        for (const BasicBlock &b : p.blocks()) {
            const bool member = posOf[b.id()] != SIZE_MAX;
            EXPECT_EQ(r.containsBlock(b.id()), member) << b.id();
            std::size_t pos = 1;
            const RegionStep step = r.step(pos, b, false);
            if (!member) {
                EXPECT_EQ(step, RegionStep::Exit) << b.id();
                EXPECT_EQ(pos, 1u);
            } else if (posOf[b.id()] == 0) {
                EXPECT_EQ(step, RegionStep::CycleRestart) << b.id();
                EXPECT_EQ(pos, 0u);
            } else {
                EXPECT_EQ(step, RegionStep::Internal) << b.id();
                EXPECT_EQ(pos, posOf[b.id()]) << b.id();
            }
        }
    }
}

TEST(RegionTest, RejectsDuplicateBlocks)
{
    Program p = buildUnbiasedBranch();
    using Ids = UnbiasedBranchIds;
    EXPECT_THROW(
        Region::makeTrace(0, pathOf(p, {Ids::a, Ids::c, Ids::a})),
        PanicError);
    EXPECT_THROW(Region::makeTrace(0, {}), PanicError);
}

} // namespace
} // namespace rsel
