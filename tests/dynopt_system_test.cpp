/**
 * @file
 * Unit tests for the DynOptSystem driver: interpreter/cache state
 * machine, transitions, linking, cache-exit events, custom
 * selectors.
 */

#include <gtest/gtest.h>

#include "dynopt/dynopt_system.hpp"
#include "program/program_builder.hpp"
#include "testing/differential.hpp"
#include "workloads/scenarios.hpp"
#include "workloads/workloads.hpp"

namespace rsel {
namespace {

/**
 * A trivial selector for driver-contract tests: selects a single
 * fixed trace the first time a chosen block is interpreted.
 */
class OneShotSelector : public RegionSelector
{
  public:
    OneShotSelector(std::vector<const BasicBlock *> trace)
        : trace_(std::move(trace))
    {}

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &ev) override
    {
        events.push_back(ev);
        if (!emitted_ && ev.block->id() == trace_.front()->id()) {
            emitted_ = true;
            RegionSpec spec;
            spec.kind = Region::Kind::Trace;
            spec.blocks = trace_;
            return spec;
        }
        return std::nullopt;
    }

    std::size_t maxLiveCounters() const override { return 0; }
    std::string name() const override { return "one-shot"; }

    std::vector<SelectorEvent> events;

  private:
    std::vector<const BasicBlock *> trace_;
    bool emitted_ = false;
};

TEST(DynOptSystemTest, JumpsIntoRegionEmittedAtCurrentBlock)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;

    DynOptSystem system(p);
    OneShotSelector *sel = nullptr;
    system.useCustom([&](const Program &prog, const CodeCache &) {
        auto s = std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{
                &prog.block(Ids::a), &prog.block(Ids::b),
                &prog.block(Ids::d)});
        sel = s.get();
        return s;
    });

    Executor exec(p, 1);
    exec.run(60, system);
    SimResult r = system.finish();

    // The region exists and the very first A event entered it (the
    // spec's entry equalled the current block), so A's instructions
    // were counted as cached.
    ASSERT_EQ(r.regionCount, 1u);
    EXPECT_GT(r.cachedInsts, 0u);
    ASSERT_FALSE(sel->events.empty());
    EXPECT_EQ(sel->events.front().block->id(), Ids::a);
}

TEST(DynOptSystemTest, CacheExitEventsAreFlagged)
{
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;

    DynOptSystem system(p);
    OneShotSelector *sel = nullptr;
    system.useCustom([&](const Program &prog, const CodeCache &) {
        auto s = std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{
                &prog.block(Ids::a), &prog.block(Ids::b),
                &prog.block(Ids::d)});
        sel = s.get();
        return s;
    });

    Executor exec(p, 1);
    exec.run(60, system);
    system.finish();

    // Every exit from the trace lands on the callee entry E with
    // the fromCacheExit flag and a synthesized taken-branch source.
    bool sawExit = false;
    for (const SelectorEvent &ev : sel->events) {
        if (ev.fromCacheExit) {
            sawExit = true;
            EXPECT_EQ(ev.block->id(), Ids::e);
            EXPECT_TRUE(ev.viaTaken);
            EXPECT_NE(ev.branchAddr, invalidAddr);
        }
    }
    EXPECT_TRUE(sawExit);
}

TEST(DynOptSystemTest, RegionTransitionsExcludeInterpreterExits)
{
    // With only one region (A B D) cached, control repeatedly
    // leaves the cache to the interpreter and re-enters: that is
    // zero region transitions by the paper's definition.
    Program p = buildInterproceduralCycle();
    using Ids = InterprocCycleIds;

    DynOptSystem system(p);
    system.useCustom([&](const Program &prog, const CodeCache &) {
        return std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{
                &prog.block(Ids::a), &prog.block(Ids::b),
                &prog.block(Ids::d)});
    });
    Executor exec(p, 1);
    exec.run(600, system);
    SimResult r = system.finish();
    EXPECT_EQ(r.regionCount, 1u);
    EXPECT_EQ(r.regionTransitions, 0u);
    EXPECT_GT(r.regionExecutions, 50u);
}

TEST(DynOptSystemTest, LinkedRegionsCountTransitions)
{
    Program p = buildInterproceduralCycle();
    SimOptions opts;
    opts.maxEvents = 6'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Net, opts);
    ASSERT_EQ(r.regionCount, 2u);
    // Steady state: two transitions per loop iteration (T1 -> T2 ->
    // T1), 6 events per iteration, selection starts around
    // iteration 50.
    EXPECT_GT(r.regionTransitions, 1'500u);
    EXPECT_LT(r.regionTransitions, 2'001u);
}

TEST(DynOptSystemTest, HitRateSplitsInterpretedAndCached)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    SimOptions opts;
    opts.maxEvents = 100'000;
    opts.seed = 1;
    SimResult r = simulate(p, Algorithm::Lei, opts);
    EXPECT_EQ(r.totalInsts, r.cachedInsts + r.interpretedInsts);
    EXPECT_GT(r.hitRate(), 0.95);
    EXPECT_LT(r.hitRate(), 1.0); // warm-up interpreted something
}

TEST(DynOptSystemTest, FinishClosesInFlightExecution)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    DynOptSystem system(p);
    system.useLei();
    Executor exec(p, 1);
    exec.run(50'000, system);
    SimResult r = system.finish();
    // The per-region execution counts sum to the global count,
    // including the execution still in flight when finish() runs.
    std::uint64_t entries = 0;
    for (const RegionStats &reg : r.regions)
        entries += reg.executions;
    EXPECT_EQ(entries, r.regionExecutions);
}

TEST(DynOptSystemTest, CustomSelectorSeesOnlyInterpretedBlocks)
{
    Program p = buildNestedLoops(1, 4, 1000000);
    using Ids = NestedLoopIds;

    DynOptSystem system(p);
    OneShotSelector *sel = nullptr;
    system.useCustom([&](const Program &prog, const CodeCache &) {
        auto s = std::make_unique<OneShotSelector>(
            std::vector<const BasicBlock *>{&prog.block(Ids::b)});
        sel = s.get();
        return s;
    });
    Executor exec(p, 1);
    exec.run(20'000, system);
    SimResult r = system.finish();

    // Once [B] is cached, B events execute from the cache except
    // the fall-through entries from A (the interpreter only checks
    // taken branches), so interpreted-B events must all be
    // non-taken entries.
    ASSERT_EQ(r.regionCount, 1u);
    bool sawInterpretedB = false;
    std::size_t idx = 0;
    bool afterEmit = false;
    for (const SelectorEvent &ev : sel->events) {
        if (ev.block->id() == Ids::b) {
            if (afterEmit) {
                sawInterpretedB = true;
                EXPECT_FALSE(ev.viaTaken && !ev.fromCacheExit)
                    << "taken branch to a cached entry must enter "
                       "the cache, not the interpreter (event "
                    << idx << ")";
            }
            afterEmit = true; // first B event emitted the region
        }
        ++idx;
    }
    EXPECT_TRUE(sawInterpretedB);
}

/** Forwards to a real selector and counts every call it receives. */
class CountingSelector : public RegionSelector
{
  public:
    explicit CountingSelector(std::unique_ptr<RegionSelector> inner)
        : inner_(std::move(inner))
    {}

    std::optional<RegionSpec>
    onInterpreted(const SelectorEvent &ev) override
    {
        ++calls;
        return inner_->onInterpreted(ev);
    }

    std::optional<RegionSpec>
    onCacheEnter(const BasicBlock &entry) override
    {
        ++calls;
        return inner_->onCacheEnter(entry);
    }

    void
    onCacheDisruption(CacheDisruption kind) override
    {
        ++calls;
        inner_->onCacheDisruption(kind);
    }

    std::size_t maxLiveCounters() const override
    {
        return inner_->maxLiveCounters();
    }
    std::uint64_t peakObservedTraceBytes() const override
    {
        return inner_->peakObservedTraceBytes();
    }
    std::uint64_t markSweepRegions() const override
    {
        return inner_->markSweepRegions();
    }
    std::uint64_t markSweepMultiIterRegions() const override
    {
        return inner_->markSweepMultiIterRegions();
    }
    std::string name() const override { return inner_->name(); }

    std::uint64_t calls = 0;

  private:
    std::unique_ptr<RegionSelector> inner_;
};

/**
 * Drives a system one event at a time (a reused one-event batch) and
 * checks every event ran interpreted.
 */
struct InterpretedOnlySink : PerEventSink
{
    InterpretedOnlySink(const Program &p, DynOptSystem &s)
        : PerEventSink(p), system(s)
    {
    }

    bool
    onEvent(const ExecEvent &ev) override
    {
        one.clear();
        one.push(ev.block->id(), ev.takenBranch, ev.branchAddr);
        system.onBatch(one);
        insts += ev.block->instCount();
        if (system.lastStep().where != StepTrace::Where::Interpreted)
            ++cached;
        return true;
    }

    DynOptSystem &system;
    EventBatch one;
    std::uint64_t insts = 0;
    std::uint64_t cached = 0;
};

TEST(DynOptSystemTest, DegradeToInterpretationMidRun)
{
    const Program p = findWorkload("gzip")->build(42);
    constexpr std::uint64_t seed = 7;
    constexpr std::uint64_t totalEvents = 400'000;

    // squeeze: empty the cache (setCacheCapacity(1) evicts every
    // region) just before the degrade, so the region in flight is no
    // longer in the cache when the degrade lands.
    for (const auto &[leiComb, squeeze] :
         {std::pair{false, false}, std::pair{true, false},
          std::pair{false, true}, std::pair{true, true}}) {
        SCOPED_TRACE(leiComb ? "LEI+comb" : "NET");
        SCOPED_TRACE(squeeze ? "cache emptied before the degrade"
                             : "cache live at the degrade");
        CountingSelector *sel = nullptr;
        const auto attach = [&](DynOptSystem &system) {
            system.useCustom([&](const Program &prog,
                                 const CodeCache &cache) {
                std::unique_ptr<RegionSelector> inner;
                if (leiComb) {
                    LeiConfig cfg;
                    cfg.combine = true;
                    inner = std::make_unique<LeiSelector>(prog, cache,
                                                          cfg);
                } else {
                    inner = std::make_unique<NetSelector>(prog, cache,
                                                          NetConfig{});
                }
                auto s =
                    std::make_unique<CountingSelector>(std::move(inner));
                sel = s.get();
                return s;
            });
        };

        // The degrade point: the first event past warm-up that leaves
        // a region in flight. Finishing there gives the counts the
        // degraded runs must keep.
        std::uint64_t degradeAt = 150'000;
        SimResult atDegrade;
        {
            DynOptSystem system(p);
            attach(system);
            Executor exec(p, seed);
            exec.run(degradeAt, system);
            while (system.lastStep().where != StepTrace::Where::Cached) {
                ASSERT_EQ(exec.run(1, system), 1u);
                ++degradeAt;
            }
            atDegrade = system.finish();
        }

        // Batch size 1 runs first: its events after the degrade go
        // through InterpretedOnlySink, which checks each one and sums
        // their instructions.
        std::uint64_t instsAfter = 0;
        std::vector<std::string> fingerprints;
        for (const std::size_t batchSize : {1, 257, 4096}) {
            SCOPED_TRACE("batch size " + std::to_string(batchSize));
            DynOptSystem system(p);
            attach(system);
            Executor exec(p, seed);
            InterpretedOnlySink after(p, system);
            exec.run(degradeAt, system, batchSize);
            ASSERT_EQ(system.lastStep().where, StepTrace::Where::Cached);
            if (squeeze) {
                system.setCacheCapacity(1);
                ASSERT_EQ(system.cache().liveRegionCount(), 0u);
            }

            system.degradeToInterpretation();
            EXPECT_TRUE(system.interpretOnly());
            const std::uint64_t callsAtDegrade = sel->calls;
            if (batchSize == 1) {
                exec.run(totalEvents - degradeAt, after, batchSize);
                EXPECT_EQ(after.cached, 0u);
                instsAfter = after.insts;
            } else {
                exec.run(totalEvents - degradeAt, system, batchSize);
                EXPECT_EQ(system.lastStep().where,
                          StepTrace::Where::Interpreted);
            }
            const SimResult r = system.finish();
            EXPECT_EQ(sel->calls, callsAtDegrade);
            EXPECT_EQ(r.events, totalEvents);
            EXPECT_EQ(r.cachedInsts, atDegrade.cachedInsts);
            EXPECT_EQ(r.regionExecutions, atDegrade.regionExecutions);
            EXPECT_EQ(r.interpretedInsts,
                      atDegrade.interpretedInsts + instsAfter);
            fingerprints.push_back(testing::resultFingerprint(r));
        }
        for (const std::string &fp : fingerprints)
            EXPECT_EQ(fp, fingerprints.front());
    }
}

} // namespace
} // namespace rsel
