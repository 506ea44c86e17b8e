/**
 * @file
 * Online metric collection for a simulated dynamic optimizer.
 *
 * The DynOptSystem feeds the collector one call per executed block
 * plus region lifecycle events; finalize() folds in the static cache
 * contents and selector-side counters and runs the exit-domination
 * analysis (paper Section 4.1) over the dynamic edge profile.
 *
 * Threading: a collector belongs to exactly one DynOptSystem and is
 * confined to the thread driving it — it holds no static or global
 * state, so any number of collectors may run concurrently. Cross-run
 * aggregation happens only on finished SimResults (see
 * SimResult::mergeFrom), never on live collectors.
 */

#ifndef RSEL_METRICS_METRICS_COLLECTOR_HPP
#define RSEL_METRICS_METRICS_COLLECTOR_HPP

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "metrics/sim_result.hpp"
#include "selection/selector.hpp"

namespace rsel {

class Program;
class CodeCache;

/** Accumulates run metrics; produces a SimResult. */
class MetricsCollector
{
  public:
    /**
     * Record an executed control-flow edge (any kind). The profile
     * is a *set* per destination, so recording is idempotent; a
     * small direct-mapped filter of recently recorded edges skips
     * the hash-set insert for the overwhelmingly common repeated
     * edge without changing the recorded profile.
     */
    void
    onEdge(BlockId src, BlockId dst)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(src) << 32) | dst;
        std::uint64_t &slot =
            edgeSeen_[(key * 0x9E3779B97F4A7C15ull) >> edgeSeenShift];
        if (slot == key + 1)
            return; // already recorded (insert would be a no-op)
        slot = key + 1; // +1 keeps key 0 distinct from "empty"
        recordEdge(src, dst);
    }

    // The per-block and region-lifecycle notifications below run
    // once per dynamic event on the simulation's hottest path, so
    // they are defined inline: DynOptSystem's batch loop folds them
    // into plain counter updates instead of cross-library calls.

    /** A block executed in the interpreter. */
    void
    onInterpretedBlock(const BasicBlock &block)
    {
        interpInsts_ += block.instCount();
    }

    /** A block executed from the code cache. */
    void
    onCachedBlock(const BasicBlock &block, RegionId region)
    {
        cachedInsts_ += block.instCount();
        perRegion(region).insts += block.instCount();
    }

    /** A region execution began (entry or cycle restart). */
    void
    onRegionEntered(RegionId region)
    {
        ++entries_;
        ++perRegion(region).entries;
    }

    /** A direct jump between two distinct cached regions. */
    void
    onRegionTransition(RegionId from, RegionId to)
    {
        ++transitions_;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(from) << 32) | to;
        // Same trick as onEdge: linkPairs_ is a set, so a repeated
        // pair's insert is a no-op — a direct-mapped filter of
        // recent pairs skips the hash insert for the common case of
        // control bouncing between the same two regions.
        std::uint64_t &slot =
            linkSeen_[(key * 0x9E3779B97F4A7C15ull) >>
                      edgeSeenShift];
        if (slot == key + 1)
            return;
        slot = key + 1;
        linkPairs_.insert(key);
    }

    /** One dynamic block event was consumed. */
    void onEvent() { ++events_; }

    /** `n` dynamic block events were consumed (batch bulk form). */
    void addEvents(std::uint64_t n) { events_ += n; }

    /**
     * A run of cached execution inside one region: `insts` guest
     * instructions executed inside `region`, with `restarts`
     * cycle-restarts (each ends one region execution by cycle and
     * immediately begins the next). The dispatch loop accumulates a
     * region run locally and folds it in with one call.
     */
    void
    addCachedRun(RegionId region, std::uint64_t insts,
                 std::uint64_t restarts)
    {
        cachedInsts_ += insts;
        entries_ += restarts;
        cycleTerminations_ += restarts;
        PerRegion &pr = perRegion(region);
        pr.insts += insts;
        pr.entries += restarts;
        pr.cycleEnds += restarts;
    }

    /** Testing probe: true if onEdge(src, dst) was ever recorded. */
    bool sawEdge(BlockId src, BlockId dst) const;

    /**
     * Produce the final result.
     * @param prog     the simulated program.
     * @param cache    the final code cache.
     * @param selector the selector (for profiling-overhead metrics).
     */
    SimResult finalize(const Program &prog, const CodeCache &cache,
                       const RegionSelector &selector) const;

  private:
    struct PerRegion
    {
        std::uint64_t insts = 0;
        std::uint64_t entries = 0;
        std::uint64_t cycleEnds = 0;
    };

    PerRegion &
    perRegion(RegionId region)
    {
        if (region >= regions_.size())
            regions_.resize(region + 1);
        return regions_[region];
    }

    /**
     * Exit-domination analysis. For each region S: S is
     * exit-dominated if the only executed predecessor of its entry
     * outside S is a block of an earlier region R whose transfer to
     * S's entry exits R. Returns the count and the duplicated
     * instructions between each dominated region and its dominator.
     */
    void analyzeExitDomination(const Program &prog,
                               const CodeCache &cache,
                               SimResult &result) const;

    /** True if R keeps control when `from` transfers to `to`. */
    static bool isInternalTransfer(const Region &r,
                                   const BasicBlock &from,
                                   const BasicBlock &to);

    /** Slow path of onEdge(): the authoritative set insert. */
    void recordEdge(BlockId src, BlockId dst);

    static constexpr std::size_t edgeSeenSlots = 4096;
    static constexpr unsigned edgeSeenShift = 52; // 64 - log2(slots)

    /** Direct-mapped recently-recorded-edge filter: key+1 or 0. */
    std::vector<std::uint64_t> edgeSeen_ =
        std::vector<std::uint64_t>(edgeSeenSlots, 0);

    /** Direct-mapped recently-seen region-link filter: key+1 or 0. */
    std::vector<std::uint64_t> linkSeen_ =
        std::vector<std::uint64_t>(edgeSeenSlots, 0);

    std::uint64_t events_ = 0;
    std::uint64_t interpInsts_ = 0;
    std::uint64_t cachedInsts_ = 0;
    std::uint64_t transitions_ = 0;
    std::uint64_t entries_ = 0;
    std::uint64_t cycleTerminations_ = 0;
    std::vector<PerRegion> regions_;
    /** entry block -> executed predecessor blocks. */
    std::unordered_map<BlockId, std::unordered_set<BlockId>> preds_;
    /** Distinct (from, to) region pairs that transitioned — the
     *  links a real cache maintains (paper footnote 9). */
    std::unordered_set<std::uint64_t> linkPairs_;
};

} // namespace rsel

#endif // RSEL_METRICS_METRICS_COLLECTOR_HPP
