#include "runtime/region.hpp"

#include <unordered_set>

#include "support/error.hpp"

namespace rsel {

Region::Region(Kind kind, RegionId id,
               std::vector<const BasicBlock *> blocks)
    : kind_(kind), id_(id), blocks_(std::move(blocks))
{
    RSEL_ASSERT(!blocks_.empty(), "a region needs at least one block");
    entryAddr_ = blocks_.front()->startAddr();
    blockIds_.reserve(blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const BasicBlock *b = blocks_[i];
        blockIds_.push_back(b->id());
        const bool inserted =
            memberIndex_.emplace(b->id(), i).second;
        RSEL_ASSERT(inserted, "duplicate block in region");
    }
    computeFootprint();
    computeStubs();
}

Region
Region::makeTrace(RegionId id, std::vector<const BasicBlock *> path)
{
    return Region(Kind::Trace, id, std::move(path));
}

Region
Region::makeMultiPath(RegionId id,
                      std::vector<const BasicBlock *> blocks)
{
    return Region(Kind::MultiPath, id, std::move(blocks));
}

void
Region::computeFootprint()
{
    for (const BasicBlock *b : blocks_) {
        instCount_ += b->instCount();
        byteSize_ += b->sizeBytes();
    }
}

void
Region::computeStubs()
{
    // Every potential continuation that leaves the region needs an
    // exit stub. Indirect transfers always need one stub for the
    // mispredicted-target path, even when the recorded target stays
    // inside.
    //
    // A trace keeps control along the recorded path (block i to
    // block i+1) and along any direct branch back to its top (the
    // link that spans a cycle). A multi-path region keeps control
    // for any transfer whose target block is a member: exits
    // targeting member blocks were replaced by edges (Figure 13,
    // line 16).
    std::unordered_set<Addr> memberAddrs;
    if (kind_ == Kind::MultiPath)
        for (const BasicBlock *b : blocks_)
            memberAddrs.insert(b->startAddr());

    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        const BasicBlock *b = blocks_[i];
        auto staysInside = [&](Addr target) {
            if (kind_ == Kind::MultiPath)
                return memberAddrs.count(target) != 0;
            return target == entryAddr_ ||
                   (i + 1 < blocks_.size() &&
                    target == blocks_[i + 1]->startAddr());
        };
        auto needStubFor = [&](Addr target) {
            if (!staysInside(target))
                return true;
            if (target == entryAddr_)
                spansCycle_ = true;
            return false;
        };

        switch (b->terminator()) {
          case BranchKind::CondDirect:
            if (needStubFor(b->takenTarget()))
                ++exitStubs_;
            if (needStubFor(b->fallThroughAddr()))
                ++exitStubs_;
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            if (needStubFor(b->takenTarget()))
                ++exitStubs_;
            break;
          case BranchKind::None:
            if (needStubFor(b->fallThroughAddr()))
                ++exitStubs_;
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall:
          case BranchKind::Return:
            ++exitStubs_;
            break;
          case BranchKind::Halt:
            break;
        }
    }
}

} // namespace rsel
