#include "dynopt/dynopt_system.hpp"

#include <algorithm>

#include "analysis/region_verifier.hpp"
#include "support/error.hpp"

namespace rsel {

DynOptSystem::DynOptSystem(const Program &prog, CacheLimits limits,
                           ICacheConfig icache)
    : prog_(prog), cache_(limits), metrics_(prog.blocks().size()),
      icache_(icache)
{}

DynOptSystem &
DynOptSystem::useNet(NetConfig cfg)
{
    selector_ = std::make_unique<NetSelector>(prog_, cache_, cfg);
    return *this;
}

DynOptSystem &
DynOptSystem::useLei(LeiConfig cfg)
{
    selector_ = std::make_unique<LeiSelector>(prog_, cache_, cfg);
    leiMaxTraceInsts_ = cfg.maxTraceInsts;
    return *this;
}

DynOptSystem &
DynOptSystem::enableVerifyOnSubmit()
{
    verify_ = true;
    return *this;
}

DynOptSystem &
DynOptSystem::armFaults(const resilience::FaultPlan &plan,
                        std::uint64_t seedOverride)
{
    RSEL_ASSERT(prevBlock_ == nullptr && !finished_,
                "faults must be armed before the first event");
    if (plan.armed())
        injector_ = std::make_unique<resilience::FaultInjector>(
            plan, seedOverride);
    return *this;
}

void
DynOptSystem::throwOnNewErrors(std::size_t before, RegionId id)
{
    const std::string first = verifyDiag_.firstErrorAfter(before);
    if (first.empty())
        return;
    throw analysis::VerifyError(
        "static verifier rejected region " + std::to_string(id) +
        " from selector " + selector_->name() + ": " + first);
}

void
DynOptSystem::verifySpec(const RegionSpec &spec)
{
    analysis::RegionVerifyContext ctx;
    ctx.prog = &prog_;
    ctx.cache = &cache_;
    ctx.selector = selector_->name();
    ctx.maxTraceInsts = leiMaxTraceInsts_;
    ctx.id = cache_.nextRegionId();
    const std::size_t before = verifyDiag_.diagnostics().size();
    analysis::RegionVerifier(analysisMgr_)
        .runOnSpec(spec, ctx, verifyDiag_);
    throwOnNewErrors(before, ctx.id);
}

void
DynOptSystem::verifyInstalled(const Region &region)
{
    analysis::RegionVerifyContext ctx;
    ctx.prog = &prog_;
    ctx.cache = &cache_;
    ctx.selector = selector_->name();
    ctx.maxTraceInsts = leiMaxTraceInsts_;
    ctx.id = region.id();
    const std::size_t before = verifyDiag_.diagnostics().size();
    analysis::RegionVerifier(analysisMgr_)
        .runOnRegion(region, ctx, verifyDiag_);
    throwOnNewErrors(before, ctx.id);
}

DynOptSystem &
DynOptSystem::useBoa(BoaConfig cfg)
{
    selector_ = std::make_unique<BoaSelector>(prog_, cache_, cfg);
    return *this;
}

DynOptSystem &
DynOptSystem::useWrs(WrsConfig cfg)
{
    selector_ = std::make_unique<WrsSelector>(prog_, cache_, cfg);
    return *this;
}

void
DynOptSystem::installRegion(RegionSpec spec)
{
    // Verify first so a malformed spec surfaces as a named pass
    // diagnostic instead of tripping the runtime assertions below.
    if (verify_)
        verifySpec(spec);
    RSEL_ASSERT(!spec.blocks.empty(), "selector emitted an empty region");
    RSEL_ASSERT(cache_.lookup(spec.blocks.front()->startAddr()) == nullptr,
                "selector emitted a region at an already-cached entry");
    Region region =
        spec.kind == Region::Kind::Trace
            ? Region::makeTrace(cache_.nextRegionId(),
                                std::move(spec.blocks))
            : Region::makeMultiPath(cache_.nextRegionId(),
                                    std::move(spec.blocks));

    // Lay the region out contiguously after everything selected so
    // far, trailed by its exit stubs (DynamoRIO's placement). A
    // bounded cache would reuse evicted space; the monotone layout
    // is a conservative locality model.
    RegionLayout layout;
    layout.base = nextLayoutAddr_;
    layout.blockOffsets.reserve(region.blocks().size());
    std::uint32_t offset = 0;
    for (const BasicBlock *b : region.blocks()) {
        layout.blockOffsets.push_back(offset);
        offset += static_cast<std::uint32_t>(b->sizeBytes());
    }
    nextLayoutAddr_ += offset + region.exitStubCount() *
                                    cache_.limits().stubBytes;
    layouts_.push_back(std::move(layout));

    const RegionId id = cache_.insert(std::move(region));
    if (verify_)
        verifyInstalled(cache_.region(id));
}

void
DynOptSystem::injectEventFaults()
{
    const resilience::FaultInjector::Tick tick = injector_->onEvent();
    if (tick.invalidate) {
        // Self-modifying code: a store hits one block; every cached
        // region that copied its bytes is stale. The victim block is
        // drawn from the event stream, so it is identical across
        // selectors at the same event index. A region currently in
        // flight keeps executing — its object stays alive, exactly
        // like an evicted region — and only future lookups miss.
        const BlockId victim = static_cast<BlockId>(
            injector_->pickVictim(prog_.blocks().size()));
        const std::size_t dropped = cache_.invalidateBlock(victim);
        ++recovery_.faultsInjected;
        ++recovery_.blockInvalidations;
        recovery_.regionsInvalidated += dropped;
        if (dropped != 0)
            selector_->onCacheDisruption(CacheDisruption::Invalidation);
    }
    if (tick.flush) {
        ++recovery_.faultsInjected;
        ++recovery_.flushStorms;
        if (cache_.liveRegionCount() != 0) {
            cache_.flushAll();
            selector_->onCacheDisruption(CacheDisruption::Flush);
        }
    }
    if (tick.reset) {
        ++recovery_.faultsInjected;
        ++recovery_.selectorResets;
        selector_->onCacheDisruption(CacheDisruption::Reset);
    }
}

bool
DynOptSystem::submitRegion(RegionSpec spec)
{
    if (!injector_) {
        installRegion(std::move(spec));
        return true;
    }
    RSEL_ASSERT(!spec.blocks.empty(),
                "selector emitted an empty region");
    const Addr entry = spec.blocks.front()->startAddr();
    EntranceState &state = entrances_[entry];
    if (state.blacklisted) {
        // Degraded to pure interpretation: the spec is dropped and
        // the entrance never re-enters the translation pipeline.
        ++recovery_.blacklistSuppressed;
        return false;
    }
    if (state.failures != 0 && interpEvents_ < state.backoffUntil) {
        ++recovery_.backoffSuppressed;
        return false;
    }
    if (injector_->translationFails()) {
        ++recovery_.faultsInjected;
        ++recovery_.translationFailures;
        ++state.failures;
        if (state.failures > injector_->plan().retryBudget) {
            state.blacklisted = true;
            ++recovery_.blacklistedEntrances;
        } else {
            // Exponential backoff on the interpreted-event clock:
            // base << (failures - 1), capped so the shift stays
            // defined for generous retry budgets.
            const std::uint32_t shift =
                std::min<std::uint32_t>(state.failures - 1, 32);
            state.backoffUntil =
                interpEvents_ +
                (injector_->plan().backoffEvents << shift);
        }
        return false;
    }
    installRegion(std::move(spec));
    if (state.failures != 0) {
        // Recovered: the retry after earlier failures succeeded.
        ++recovery_.retries;
        state.failures = 0;
        state.backoffUntil = 0;
    }
    return true;
}

void
DynOptSystem::enterRegion(const Region &region, const BasicBlock &block)
{
    curRegion_ = &region;
    regionPos_ = 0;
    lastStep_.where = StepTrace::Where::Cached;
    lastStep_.region = region.id();
    lastStep_.pos = 0;
    lastStep_.enteredRegion = true;
    metrics_.onRegionEntered(region.id());
    metrics_.onCachedBlock(block, region.id());
    // The entry block sits at the region's base.
    icache_.fetchRange(layouts_[region.id()].base,
                       static_cast<std::uint32_t>(block.sizeBytes()));
}

template <bool Armed>
void
DynOptSystem::processEvent(const ExecEvent &ev)
{
    metrics_.onEvent();
    const BasicBlock *from = prevBlock_;
    if (from != nullptr) {
        // Note: prevBlock_ deliberately survives cache disruptions
        // (flush / reset / invalidation). The edge from -> ev.block
        // is an architectural fact — faults perturb cache state,
        // never the guest's control flow — so clearing it would
        // under-count real predecessors and skew the exit-domination
        // analysis. Regression: fault_injection_test
        // EdgeAccountingSpansDisruptions.
        metrics_.onEdge(from->id(), ev.block->id());
    }
    prevBlock_ = ev.block;

    // Deterministic fault injection, compiled out of the disarmed
    // instantiation. Faults fire on the event clock, before the
    // event is dispatched, so every selector sees the same cache
    // disruptions at the same event indices.
    if constexpr (Armed)
        injectEventFaults();

    // Interpreted taken branch to a cached entry enters the cache
    // (Section 2.1); the selector is told so it can stop a trace
    // that reached the start of another trace. After
    // degradeToInterpretation() the cache stays empty, so this
    // never fires.
    if (ev.takenBranch) {
        if (const Region *r = cache_.lookupEntry(ev.block->id())) {
            if (auto spec = selector_->onCacheEnter(r->entryBlock())) {
                submitRegion(std::move(*spec));
                // Re-resolve: in a bounded cache the insert may
                // have evicted (or flushed) the region we were
                // about to enter.
                r = cache_.lookupEntry(ev.block->id());
            }
            if (r != nullptr) {
                enterRegion(*r, *ev.block);
                return;
            }
            // Evicted under us: fall through to the interpreter.
        }
    }
    interpret(ev, from, false);
}

void
DynOptSystem::interpret(const ExecEvent &ev, const BasicBlock *from,
                        bool fromCacheExit)
{
    if (!interpretOnly_) {
        // Let the selector observe the block. A block reached
        // through a cache exit counts as a taken transfer (the stub
        // jump), with the exiting block's branch as the source.
        SelectorEvent sev;
        sev.block = ev.block;
        sev.fromCacheExit = fromCacheExit;
        if (ev.takenBranch) {
            sev.viaTaken = true;
            sev.branchAddr = ev.branchAddr;
        } else if (fromCacheExit && from != nullptr) {
            sev.viaTaken = true;
            sev.branchAddr = from->lastInstAddr();
        }
        if (std::optional<RegionSpec> spec =
                selector_->onInterpreted(sev)) {
            const Addr entry = spec->blocks.front()->startAddr();
            if (submitRegion(std::move(*spec)) &&
                entry == ev.block->startAddr()) {
                // "jump newT": the triggering execution continues
                // natively inside the new region.
                enterRegion(*cache_.lookup(entry), *ev.block);
                return;
            }
        }
    }
    ++interpEvents_;
    lastStep_ = StepTrace{};
    metrics_.onInterpretedBlock(*ev.block);
}

template <bool Armed>
std::size_t
DynOptSystem::consumeRegionRun(const EventSpan &events, std::size_t i)
{
    const BasicBlock *const progBlocks = prog_.blocks().data();
    const std::size_t first = i;

    // The span and the current-region context in locals, the latter
    // rebound on every chain: the loop's metric and I-cache stores
    // would otherwise force reloads through the span, the region and
    // the layout on every event.
    const BlockId *const ids = events.blockIds;
    const std::uint8_t *const takenFlags = events.takenFlags;
    const std::size_t n = events.size;
    const Region *region = nullptr;
    RegionId id = invalidRegion;
    RegionCursor cursor{};
    std::uint64_t base = 0;
    const std::uint32_t *offsets = nullptr;
    const auto bind = [&](const Region &r) {
        region = &r;
        id = r.id();
        cursor = r.cursor();
        const RegionLayout &layout = layouts_[id];
        base = layout.base;
        offsets = layout.blockOffsets.data();
    };
    bind(*curRegion_);

    std::size_t pos = regionPos_;
    const BasicBlock *prev = prevBlock_;
    std::uint64_t insts = 0;
    std::uint64_t restarts = 0;
    bool entered = false;

    for (; i < n; ++i) {
        const BasicBlock &b = progBlocks[ids[i]];
        const bool taken = takenFlags[i] != 0;
        // prev is never null here: a region block ran before b. The
        // edge is an architectural fact, recorded whatever the cache
        // state (see processEvent).
        metrics_.onEdge(prev->id(), b.id());
        if constexpr (Armed) {
            // A fault may flush or invalidate the region in flight;
            // it keeps executing (its object stays alive, exactly
            // like an evicted region) and only future lookups miss.
            injectEventFaults();
        }
        switch (cursor.step(pos, b, taken)) {
          case RegionStep::Internal:
            entered = false;
            break;
          case RegionStep::CycleRestart:
            // One region execution ended by a branch to the top;
            // the next begins immediately at the same region.
            ++restarts;
            entered = true;
            break;
          case RegionStep::Exit: {
            metrics_.addCachedRun(id, insts, restarts);
            insts = 0;
            restarts = 0;
            const Region *next = cache_.lookupEntry(b.id());
            if (next == nullptr) {
                // Exit to the interpreter: the landing block is the
                // target of a code-cache exit.
                metrics_.addEvents(i + 1 - first);
                curRegion_ = nullptr;
                prevBlock_ = &b;
                interpret(ExecEvent{&b, taken, events.branchAddrs[i]},
                          prev, true);
                return i + 1;
            }
            // Exit stub linked straight to another region (or back
            // to this one's own entry); the selector is not
            // consulted on this path.
            if (next != region)
                metrics_.onRegionTransition(id, next->id());
            bind(*next);
            metrics_.onRegionEntered(id);
            pos = 0;
            entered = true;
            break;
          }
        }
        insts += b.instCount();
        icache_.fetchRange(base + offsets[pos],
                           static_cast<std::uint32_t>(b.sizeBytes()));
        prev = &b;
    }

    metrics_.addEvents(i - first);
    metrics_.addCachedRun(id, insts, restarts);
    curRegion_ = region;
    regionPos_ = pos;
    prevBlock_ = prev;
    lastStep_.where = StepTrace::Where::Cached;
    lastStep_.region = id;
    lastStep_.pos = pos;
    lastStep_.enteredRegion = entered;
    return i;
}

template <bool Armed>
void
DynOptSystem::dispatchLoop(const EventSpan &events)
{
    const std::vector<BasicBlock> &blocks = prog_.blocks();
    std::size_t i = 0;
    while (i < events.size) {
        if (curRegion_ != nullptr) {
            i = consumeRegionRun<Armed>(events, i);
            continue;
        }
        processEvent<Armed>(ExecEvent{&blocks[events.blockIds[i]],
                                      events.takenFlags[i] != 0,
                                      events.branchAddrs[i]});
        ++i;
    }
}

std::size_t
DynOptSystem::onBatch(const EventBatch &batch)
{
    RSEL_ASSERT(!finished_, "events delivered after finish()");
    RSEL_ASSERT(selector_ != nullptr, "no selector attached");
    const EventSpan events{batch.blockIds.data(),
                           batch.takenFlags.data(),
                           batch.branchAddrs.data(), batch.size()};
    // An interpret-only system never ticks the injector again.
    if (injector_ && !interpretOnly_)
        dispatchLoop<true>(events);
    else
        dispatchLoop<false>(events);
    return batch.size();
}

SimResult
DynOptSystem::finish()
{
    RSEL_ASSERT(!finished_, "finish() may only be called once");
    finished_ = true;
    SimResult result = metrics_.finalize(prog_, cache_, *selector_);
    result.icacheAccesses = icache_.accesses();
    result.icacheMisses = icache_.misses();
    recovery_.retranslations = cache_.retranslations();
    result.recovery = recovery_;
    if (verify_) {
        // Static duplication accountant: the SimResult's expansion
        // and duplication totals must be re-derivable from the
        // cache contents alone.
        const std::size_t before = verifyDiag_.diagnostics().size();
        analysis::checkDuplicationAccounting(prog_, cache_, result,
                                             verifyDiag_);
        const std::string first =
            verifyDiag_.firstErrorAfter(before);
        if (!first.empty())
            throw analysis::VerifyError(
                "static verifier rejected the final cache state of "
                "selector " + selector_->name() + ": " + first);
    }
    return result;
}

std::string
algorithmName(Algorithm algo)
{
    switch (algo) {
      case Algorithm::Net:         return "NET";
      case Algorithm::Lei:         return "LEI";
      case Algorithm::NetCombined: return "NET+comb";
      case Algorithm::LeiCombined: return "LEI+comb";
      case Algorithm::Mojo:        return "Mojo";
      case Algorithm::Boa:         return "BOA";
      case Algorithm::Wrs:         return "WRS";
    }
    return "unknown";
}

void
attachAlgorithm(DynOptSystem &system, Algorithm algo,
                const SimOptions &opts)
{
    switch (algo) {
      case Algorithm::Net: {
        NetConfig cfg = opts.net;
        cfg.combine = false;
        system.useNet(cfg);
        break;
      }
      case Algorithm::NetCombined: {
        NetConfig cfg = opts.net;
        cfg.combine = true;
        system.useNet(cfg);
        break;
      }
      case Algorithm::Lei: {
        LeiConfig cfg = opts.lei;
        cfg.combine = false;
        system.useLei(cfg);
        break;
      }
      case Algorithm::LeiCombined: {
        LeiConfig cfg = opts.lei;
        cfg.combine = true;
        system.useLei(cfg);
        break;
      }
      case Algorithm::Mojo: {
        NetConfig cfg = opts.net;
        cfg.combine = false;
        if (cfg.exitThreshold == 0)
            cfg.exitThreshold = cfg.hotThreshold / 2;
        system.useNet(cfg);
        break;
      }
      case Algorithm::Boa:
        system.useBoa(opts.boa);
        break;
      case Algorithm::Wrs:
        system.useWrs(opts.wrs);
        break;
    }
}

SimResult
simulate(const Program &prog, Algorithm algo, const SimOptions &opts)
{
    DynOptSystem system(prog, opts.cache, opts.icache);
    attachAlgorithm(system, algo, opts);
    if (opts.verifyRegions)
        system.enableVerifyOnSubmit();
    system.armFaults(opts.faults, opts.faultSeed);

    Executor exec(prog, opts.seed);
    exec.run(opts.maxEvents, system, opts.batchSize);
    return system.finish();
}

} // namespace rsel
