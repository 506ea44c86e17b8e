/**
 * @file
 * Unit tests for the metrics layer: cover sets, ratios, the
 * Section 4.1 exit-domination analysis, and the collector's
 * recently-seen filters.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "dynopt/dynopt_system.hpp"
#include "metrics/metrics_collector.hpp"
#include "selection/net_selector.hpp"
#include "support/random.hpp"
#include "workloads/scenarios.hpp"

namespace rsel {
namespace {

SimResult
makeResultWithExecutions(std::vector<std::uint64_t> perRegion,
                         std::uint64_t interpreted)
{
    SimResult r;
    for (std::size_t i = 0; i < perRegion.size(); ++i) {
        RegionStats stats;
        stats.id = static_cast<RegionId>(i);
        stats.executedInsts = perRegion[i];
        r.regions.push_back(stats);
        r.cachedInsts += perRegion[i];
    }
    r.interpretedInsts = interpreted;
    r.totalInsts = r.cachedInsts + interpreted;
    r.regionCount = perRegion.size();
    return r;
}

TEST(CoverSetTest, PicksSmallestSet)
{
    // 100 total executed; regions cover 50, 30, 15; interpreter 5.
    SimResult r = makeResultWithExecutions({50, 30, 15}, 5);
    EXPECT_EQ(r.coverSet(0.50), 1u);
    EXPECT_EQ(r.coverSet(0.80), 2u);
    EXPECT_EQ(r.coverSet(0.90), 3u); // 50+30=80 < 90, need 3rd
    EXPECT_EQ(r.coverSet(0.95), 3u);
}

TEST(CoverSetTest, OrderIndependent)
{
    SimResult a = makeResultWithExecutions({15, 50, 30}, 5);
    SimResult b = makeResultWithExecutions({50, 30, 15}, 5);
    EXPECT_EQ(a.coverSet(0.90), b.coverSet(0.90));
}

TEST(CoverSetTest, SaturationWhenRegionsCannotCover)
{
    SimResult r = makeResultWithExecutions({10, 10}, 80);
    EXPECT_EQ(r.coverSet(0.90), 2u); // all regions, still short
}

TEST(SimResultTest, RatioHelpers)
{
    SimResult r;
    r.totalInsts = 200;
    r.cachedInsts = 150;
    r.interpretedInsts = 50;
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.75);

    r.regionCount = 4;
    r.spanningRegions = 1;
    EXPECT_DOUBLE_EQ(r.spannedCycleRatio(), 0.25);

    r.regionExecutions = 10;
    r.cycleTerminations = 4;
    EXPECT_DOUBLE_EQ(r.executedCycleRatio(), 0.4);

    r.expansionInsts = 100;
    EXPECT_DOUBLE_EQ(r.avgRegionInsts(), 25.0);
    r.exitDominatedRegions = 1;
    EXPECT_DOUBLE_EQ(r.exitDominatedRegionRatio(), 0.25);
    r.exitDominatedDupInsts = 7;
    EXPECT_DOUBLE_EQ(r.exitDominatedDupRatio(), 0.07);

    r.estimatedCacheBytes = 1000;
    r.peakObservedTraceBytes = 60;
    EXPECT_DOUBLE_EQ(r.observedMemoryRatio(), 0.06);
}

TEST(SimResultTest, DegenerateDenominators)
{
    SimResult r;
    EXPECT_DOUBLE_EQ(r.hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.spannedCycleRatio(), 0.0);
    EXPECT_DOUBLE_EQ(r.executedCycleRatio(), 0.0);
    EXPECT_DOUBLE_EQ(r.avgRegionInsts(), 0.0);
    EXPECT_DOUBLE_EQ(r.observedMemoryRatio(), 0.0);
}

TEST(ExitDominationTest, Figure2TracesAreExitDominated)
{
    // NET on the interprocedural cycle: trace 2 (E F L) begins at
    // the sole exit of trace 1 (A B D), whose call block D is the
    // only executed predecessor of E — textbook exit domination.
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 60'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Net, opts);
    ASSERT_EQ(r.regionCount, 2u);
    EXPECT_EQ(r.exitDominatedRegions, 1u);
    // The two traces share no blocks, so no duplication.
    EXPECT_EQ(r.exitDominatedDupInsts, 0u);
}

TEST(ExitDominationTest, LeiSpanningTraceHasNoDomination)
{
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 60'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Lei, opts);
    ASSERT_EQ(r.regionCount, 1u);
    EXPECT_EQ(r.exitDominatedRegions, 0u);
}

TEST(ExitDominationTest, DuplicationCountedOnSharedBlocks)
{
    // NET on Figure 4: the second trace (B D F) is entered only
    // from the first trace's exit at A and duplicates D and F.
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 200'000;
    opts.seed = 9;
    SimResult r = simulate(p, Algorithm::Net, opts);
    ASSERT_GE(r.regionCount, 2u);
    EXPECT_GE(r.exitDominatedRegions, 1u);
    // D (2 insts) and F (2 insts) shared with the dominator.
    EXPECT_GE(r.exitDominatedDupInsts, 4u);
}

TEST(ExitDominationTest, MultiplePredecessorsBlockDomination)
{
    // A region entered from two different earlier regions' exits is
    // not exit-dominated (condition 2 of the definition).
    Program p = buildUnbiasedBranch(1, 0.5, 0.05);
    SimOptions opts;
    opts.maxEvents = 200'000;
    opts.seed = 9;
    SimResult comb = simulate(p, Algorithm::NetCombined, opts);
    // The combined region holds all hot blocks; at most the rare E
    // path could form a dominated region later.
    EXPECT_LE(comb.exitDominatedRegions, comb.regionCount);
}

TEST(SimResultTest, ConservationClosesOnRealRunsAndFlagsTampering)
{
    Program p = buildNestedLoops();
    SimOptions opts;
    opts.maxEvents = 50'000;
    for (Algorithm algo : allSelectors) {
        SimResult r = simulate(p, algo, opts);
        EXPECT_EQ(r.conservationError(), "") << algorithmName(algo);

        // Each broken identity must be named, not silently passed.
        SimResult bad = r;
        bad.cachedInsts += 1;
        EXPECT_NE(bad.conservationError(), "");
        bad = r;
        bad.regionCount += 1;
        EXPECT_NE(bad.conservationError(), "");
        if (!r.regions.empty()) {
            bad = r;
            bad.regions[0].executedInsts += 1;
            EXPECT_NE(bad.conservationError(), "");
        }
    }
}

// The collector's edge and region-link filters are sized from the
// program (64 slots for one block, 4096 for 4096 blocks), and only
// skip inserts that would be no-ops. One stream with far more
// distinct keys than 64 slots, fed to the smallest and the largest
// filter, must give the same profile.
TEST(MetricsCollectorTest, FilterSizeNeverChangesTheProfile)
{
    MetricsCollector small(1);
    MetricsCollector large(4096);
    constexpr BlockId blocks = 100;
    constexpr RegionId regions = 40;
    std::set<std::pair<BlockId, BlockId>> edges;
    std::set<std::pair<RegionId, RegionId>> links;
    std::uint64_t transitions = 0;
    Rng rng(7);
    BlockId src = 0;
    RegionId from = 0;
    for (int i = 0; i < 50'000; ++i) {
        // Mostly a short walk (repeated keys hit the filters), now
        // and then a jump anywhere (new keys evict filter slots).
        const BlockId dst = rng.nextBool(0.8)
                                ? (src + 1 + rng.nextBelow(3)) % blocks
                                : static_cast<BlockId>(rng.nextBelow(blocks));
        small.onEdge(src, dst);
        large.onEdge(src, dst);
        edges.emplace(src, dst);
        src = dst;
        if (i % 3 == 0) {
            const RegionId to = static_cast<RegionId>(
                rng.nextBool(0.7) ? (from + 1) % 4
                                  : rng.nextBelow(regions));
            if (to != from) {
                small.onRegionTransition(from, to);
                large.onRegionTransition(from, to);
                links.emplace(from, to);
                ++transitions;
            }
            from = to;
        }
    }
    ASSERT_GT(edges.size(), 64u * 8);
    ASSERT_GT(links.size(), 64u);

    for (BlockId a = 0; a < blocks; ++a) {
        for (BlockId b = 0; b < blocks; ++b) {
            const bool seen = edges.count({a, b}) != 0;
            EXPECT_EQ(small.sawEdge(a, b), seen) << a << " -> " << b;
            EXPECT_EQ(large.sawEdge(a, b), seen) << a << " -> " << b;
        }
    }

    Program p = buildNestedLoops();
    CodeCache cache;
    NetSelector selector(p, cache, NetConfig{});
    const SimResult rs = small.finalize(p, cache, selector);
    const SimResult rl = large.finalize(p, cache, selector);
    EXPECT_EQ(rs.interRegionLinks, links.size());
    EXPECT_EQ(rl.interRegionLinks, links.size());
    EXPECT_EQ(rs.regionTransitions, transitions);
    EXPECT_EQ(rl.regionTransitions, transitions);
}

} // namespace
} // namespace rsel
