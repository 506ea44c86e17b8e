#include "testing/invariant_sink.hpp"

#include <deque>
#include <unordered_set>

namespace rsel {
namespace testing {

namespace {

std::string
blockDesc(const BasicBlock *b)
{
    if (!b)
        return "<none>";
    return "block " + std::to_string(b->id()) + " (" +
           branchKindName(b->terminator()) + ")";
}

} // namespace

InvariantSink::InvariantSink(const Program &prog, DynOptSystem &system)
    : PerEventSink(prog), prog_(prog), system_(system), oracle_(prog)
{
    one_.reserve(1);
}

void
InvariantSink::violate(const std::string &invariant,
                       const std::string &detail) const
{
    throw InvariantViolation("invariant \"" + invariant +
                             "\" violated at event " +
                             std::to_string(events_) + ": " + detail);
}

void
InvariantSink::checkStream(const ExecEvent &ev) const
{
    const BasicBlock &cur = *ev.block;
    if (prevHalted_)
        violate("stream-legality",
                "event delivered after a Halt block");
    if (!prev_) {
        if (cur.id() != prog_.entry())
            violate("stream-legality",
                    "stream does not start at the program entry (got " +
                        blockDesc(&cur) + ")");
        if (ev.takenBranch)
            violate("stream-legality",
                    "first event flagged as a taken branch");
        return;
    }
    if (!oracle_.legalEdge(*prev_, cur))
        violate("stream-legality",
                blockDesc(prev_) + " -> " + blockDesc(&cur) +
                    " is not a CFG edge");
    if (ev.takenBranch) {
        if (ev.branchAddr != prev_->lastInstAddr())
            violate("stream-legality",
                    "taken-branch address does not name the previous "
                    "block's terminator (" +
                        blockDesc(prev_) + " -> " + blockDesc(&cur) +
                        ")");
    } else {
        if (cur.startAddr() != prev_->fallThroughAddr())
            violate("stream-legality",
                    "not-taken event does not land on the previous "
                    "block's fall-through (" +
                        blockDesc(prev_) + " -> " + blockDesc(&cur) +
                        ")");
    }
}

void
InvariantSink::checkDisposition(const ExecEvent &ev)
{
    const StepTrace &st = system_.lastStep();
    if (st.where == StepTrace::Where::Interpreted) {
        interpretedInsts_ += ev.block->instCount();
        return;
    }
    const CodeCache &cache = system_.cache();
    if (st.region >= cache.regionCount())
        violate("transparency", "cached step names unknown region " +
                                    std::to_string(st.region));
    const Region &r = cache.region(st.region);
    if (st.pos >= r.blocks().size())
        violate("transparency",
                "cached step position " + std::to_string(st.pos) +
                    " out of range for region " +
                    std::to_string(st.region));
    if (r.blocks()[st.pos] != ev.block)
        violate("transparency",
                "region " + std::to_string(st.region) + " executed " +
                    blockDesc(r.blocks()[st.pos]) +
                    " where the architectural stream has " +
                    blockDesc(ev.block));
    if (st.enteredRegion && st.pos != 0)
        violate("transparency",
                "region entry did not start at the region top");
    cachedInsts_ += ev.block->instCount();
}

void
InvariantSink::checkRegion(const Region &region) const
{
    const std::vector<const BasicBlock *> &blocks = region.blocks();
    if (blocks.empty())
        violate("region-legality", "region " +
                                       std::to_string(region.id()) +
                                       " has no blocks");
    std::unordered_set<BlockId> seen;
    for (const BasicBlock *b : blocks)
        if (!seen.insert(b->id()).second)
            violate("region-legality",
                    "region " + std::to_string(region.id()) +
                        " contains " + blockDesc(b) + " twice");

    if (region.kind() == Region::Kind::Trace) {
        // A trace must be one connected path of real CFG edges.
        for (std::size_t i = 0; i + 1 < blocks.size(); ++i)
            if (!oracle_.legalEdge(*blocks[i], *blocks[i + 1]))
                violate("region-legality",
                        "trace region " + std::to_string(region.id()) +
                            " breaks between " + blockDesc(blocks[i]) +
                            " and " + blockDesc(blocks[i + 1]));
        return;
    }

    // Multi-path: every member must be reachable from the entry
    // through CFG edges that stay within the member set.
    std::unordered_set<BlockId> reached{blocks.front()->id()};
    std::deque<const BasicBlock *> frontier{blocks.front()};
    while (!frontier.empty()) {
        const BasicBlock *from = frontier.front();
        frontier.pop_front();
        for (const BasicBlock *to : blocks) {
            if (reached.count(to->id()))
                continue;
            if (oracle_.legalEdge(*from, *to)) {
                reached.insert(to->id());
                frontier.push_back(to);
            }
        }
    }
    for (const BasicBlock *b : blocks)
        if (!reached.count(b->id()))
            violate("region-legality",
                    "multi-path region " + std::to_string(region.id()) +
                        ": " + blockDesc(b) +
                        " unreachable from the region entry");
}

void
InvariantSink::checkNewRegions()
{
    const CodeCache &cache = system_.cache();
    while (checkedRegions_ < cache.regionCount())
        checkRegion(cache.region(
            static_cast<RegionId>(checkedRegions_++)));
}

bool
InvariantSink::onEvent(const ExecEvent &ev)
{
    checkStream(ev);
    hash_ = fnvEvent(hash_, ev.block->id(), ev.takenBranch);
    ++events_;
    insts_ += ev.block->instCount();

    one_.clear();
    one_.push(ev.block->id(), ev.takenBranch, ev.branchAddr);
    system_.onBatch(one_);

    checkDisposition(ev);
    checkNewRegions();
    prev_ = ev.block;
    prevHalted_ = ev.block->terminator() == BranchKind::Halt;
    return true;
}

SimResult
InvariantSink::finish()
{
    SimResult res = system_.finish();
    auto expect = [this](const char *what, std::uint64_t got,
                         std::uint64_t want) {
        if (got != want)
            violate("conservation",
                    std::string(what) + ": result has " +
                        std::to_string(got) +
                        ", independent count is " +
                        std::to_string(want));
    };
    expect("events", res.events, events_);
    expect("total instructions", res.totalInsts, insts_);
    expect("cached instructions", res.cachedInsts, cachedInsts_);
    expect("interpreted instructions", res.interpretedInsts,
           interpretedInsts_);
    const std::string closure = res.conservationError();
    if (!closure.empty())
        violate("conservation", closure);
    return res;
}

} // namespace testing
} // namespace rsel
