/**
 * @file
 * Code-cache regions: linear traces and combined multi-path regions.
 *
 * A region is a single-entry unit of cached, optimized code. Two
 * kinds exist, mirroring the paper:
 *
 *  - `Trace`: an interprocedural superblock — one path of basic
 *    blocks laid out consecutively. Control stays inside only along
 *    the recorded path, or by branching back to the trace top
 *    (spanning a cycle). Every other potential continuation needs an
 *    exit stub.
 *  - `MultiPath`: a trace-combination region — a single-entry CFG of
 *    blocks with split and join points. Control stays inside for any
 *    transfer whose target block is a member; exits targeting member
 *    blocks have been replaced by edges (paper Figure 13, line 16).
 */

#ifndef RSEL_RUNTIME_REGION_HPP
#define RSEL_RUNTIME_REGION_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "isa/basic_block.hpp"
#include "support/error.hpp"

namespace rsel {

class Program;

/** Index of a region in its CodeCache, in selection order. */
using RegionId = std::uint32_t;

/** Sentinel for "no region". */
constexpr RegionId invalidRegion =
    std::numeric_limits<RegionId>::max();

/** Result of advancing execution by one block inside a region. */
enum class RegionStep : std::uint8_t {
    Internal,     ///< Control stays in the region.
    CycleRestart, ///< Control branched back to the region top.
    Exit,         ///< Control left the region.
};

/**
 * The step decision of one region, held by value: the fields it
 * reads are copies, so a dispatch loop keeps them in registers across
 * its own stores instead of reloading them through the region after
 * every metric or I-cache update. Obtained from Region::cursor() and
 * valid while the region lives (regions are never destroyed before
 * their cache).
 */
struct RegionCursor
{
    /** Member block ids in region order (Region::blockIds()). */
    const BlockId *ids;
    /** Number of member blocks. */
    std::size_t count;
    /** Guest address of the region entry. */
    Addr entryAddr;
    /** Block id -> index, for a multi-path region; nullptr for a
     *  trace, which needs only `ids`. */
    const std::unordered_map<BlockId, std::size_t> *members;

    /** Region::step without the position bounds check. */
    RegionStep
    step(std::size_t &pos, const BasicBlock &next, bool taken) const
    {
        // Defined inline: this is the once-per-cached-block decision
        // of the simulation's hottest loop, and the trace fast path
        // is two compares against precomputed values.
        if (members == nullptr) {
            // Trace. Branch back to the top: the spanned-cycle link.
            if (taken && next.startAddr() == entryAddr) {
                pos = 0;
                return RegionStep::CycleRestart;
            }
            // The recorded path, laid out consecutively.
            if (pos + 1 < count && next.id() == ids[pos + 1]) {
                ++pos;
                return RegionStep::Internal;
            }
            return RegionStep::Exit;
        }

        // MultiPath: any transfer to a member block stays inside.
        auto it = members->find(next.id());
        if (it == members->end())
            return RegionStep::Exit;
        if (next.startAddr() == entryAddr) {
            pos = 0;
            return RegionStep::CycleRestart;
        }
        pos = it->second;
        return RegionStep::Internal;
    }
};

/**
 * An immutable code-cache region. Construction precomputes the
 * instruction/byte footprint, the exit-stub count, and whether the
 * region statically spans a cycle.
 */
class Region
{
  public:
    enum class Kind : std::uint8_t { Trace, MultiPath };

    /**
     * Build a linear trace from a recorded path.
     * @param id     region id assigned by the cache.
     * @param path   blocks in recorded execution order; non-empty,
     *               no duplicates.
     */
    static Region makeTrace(RegionId id,
                            std::vector<const BasicBlock *> path);

    /**
     * Build a multi-path region.
     * @param id     region id assigned by the cache.
     * @param blocks member blocks; the first is the region entry.
     */
    static Region makeMultiPath(RegionId id,
                                std::vector<const BasicBlock *> blocks);

    /** Region kind. */
    Kind kind() const { return kind_; }

    /** Region id (selection order). */
    RegionId id() const { return id_; }

    /** Guest address of the region entry (cached at build time). */
    Addr entryAddr() const { return entryAddr_; }

    /** The entry block. */
    const BasicBlock &entryBlock() const { return *blocks_.front(); }

    /**
     * Member blocks. For a trace: in recorded path order. For a
     * multi-path region: entry first, rest unordered.
     */
    const std::vector<const BasicBlock *> &blocks() const
    {
        return blocks_;
    }

    /** True if the block is a member of the region. */
    bool containsBlock(BlockId id) const
    {
        return memberIndex_.count(id) != 0;
    }

    /**
     * Member block ids, parallel to blocks(): a contiguous stripe so
     * the execution fast path compares ids without chasing the
     * per-block pointers.
     */
    const std::vector<BlockId> &blockIds() const { return blockIds_; }

    /**
     * The region's step decision by value (see RegionCursor), for
     * loops that advance through many blocks of one region.
     */
    RegionCursor
    cursor() const
    {
        return RegionCursor{blockIds_.data(), blockIds_.size(),
                            entryAddr_,
                            kind_ == Kind::MultiPath ? &memberIndex_
                                                     : nullptr};
    }

    /**
     * Advance execution within the region.
     *
     * @param pos   in/out: index into blocks() of the current block.
     *              Reset to 0 on CycleRestart; unchanged on Exit.
     * @param next  the block that executed next in the real stream.
     * @param taken whether it was reached by a taken branch.
     */
    RegionStep
    step(std::size_t &pos, const BasicBlock &next, bool taken) const
    {
        RSEL_ASSERT(pos < blocks_.size(),
                    "region position out of range");
        return cursor().step(pos, next, taken);
    }

    /** Number of guest instructions copied into this region. */
    std::uint64_t instCount() const { return instCount_; }

    /** Guest code bytes copied into this region. */
    std::uint64_t byteSize() const { return byteSize_; }

    /** Number of exit stubs the region requires. */
    std::uint32_t exitStubCount() const { return exitStubs_; }

    /**
     * True if the region includes a branch to its own top, i.e. it
     * statically spans a cycle (paper's spanned-cycle metric).
     */
    bool spansCycle() const { return spansCycle_; }

  private:
    Region(Kind kind, RegionId id,
           std::vector<const BasicBlock *> blocks);

    void computeFootprint();
    void computeStubs();

    Kind kind_;
    RegionId id_;
    std::vector<const BasicBlock *> blocks_;
    /** Ids of blocks_, same order (fast-path compare stripe). */
    std::vector<BlockId> blockIds_;
    /** block id -> index into blocks_. */
    std::unordered_map<BlockId, std::size_t> memberIndex_;
    Addr entryAddr_ = invalidAddr;
    std::uint64_t instCount_ = 0;
    std::uint64_t byteSize_ = 0;
    std::uint32_t exitStubs_ = 0;
    bool spansCycle_ = false;
};

} // namespace rsel

#endif // RSEL_RUNTIME_REGION_HPP
