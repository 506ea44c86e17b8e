#include "analysis/static_predictor.hpp"

#include <algorithm>
#include <unordered_set>

#include "analysis/dataflow.hpp"
#include "analysis/inline_opportunity.hpp"
#include "selection/formation_model.hpp"

namespace rsel {
namespace analysis {

namespace {

/** Unbiased band of the paper's Figure 4 (near-50/50 branches). */
constexpr double unbiasedLo = 0.35;
constexpr double unbiasedHi = 0.65;

bool
isUnbiasedBranch(const Program &prog, const BasicBlock &b)
{
    if (b.terminator() != BranchKind::CondDirect ||
        !prog.hasCondBehavior(b.id()))
        return false;
    const CondBehavior &cb = prog.condBehavior(b.id());
    if (cb.kind != CondBehavior::Kind::Bernoulli)
        return false;
    for (const double p : cb.takenProbByPhase)
        if (p >= unbiasedLo && p <= unbiasedHi)
            return true;
    return false;
}

/**
 * Most exit stubs one copy of this block can contribute to a region
 * (Region::computeStubs): a conditional
 * stubs at most both arms; direct/fall-through terminators at most
 * one target; indirect transfers and returns always exactly one
 * stub; halt never.
 */
std::uint32_t
maxStubsOf(const BasicBlock &b)
{
    switch (b.terminator()) {
    case BranchKind::CondDirect:
        return 2;
    case BranchKind::None:
    case BranchKind::Jump:
    case BranchKind::Call:
        return 1;
    case BranchKind::IndirectJump:
    case BranchKind::IndirectCall:
    case BranchKind::Return:
        return 1;
    case BranchKind::Halt:
        return 0;
    }
    return 2;
}

/** Fewest stubs one copy must contribute (indirects always stub). */
std::uint32_t
minStubsOf(const BasicBlock &b)
{
    switch (b.terminator()) {
    case BranchKind::IndirectJump:
    case BranchKind::IndirectCall:
    case BranchKind::Return:
        return 1;
    default:
        return 0;
    }
}

/** Heuristic expected stubs per copy (one arm of a conditional
 *  usually leaves the region; straight-line code mostly stays). */
double
estStubsOf(const BasicBlock &b)
{
    switch (b.terminator()) {
    case BranchKind::CondDirect:
        return 1.0;
    case BranchKind::None:
    case BranchKind::Jump:
    case BranchKind::Call:
        return 0.3;
    case BranchKind::IndirectJump:
    case BranchKind::IndirectCall:
    case BranchKind::Return:
        return 1.0;
    case BranchKind::Halt:
        return 0.0;
    }
    return 1.0;
}

/** The subgraph of forward edges (target above the branch): acyclic
 *  by construction, the domain of the tail-duplication estimate. */
DiGraph
forwardEdgeSubgraph(const ProgramFacts &pf)
{
    const Program &prog = *pf.prog;
    DiGraph fwd(pf.graph.size());
    for (const BasicBlock &b : prog.blocks())
        for (const std::uint32_t s : pf.graph.succs(b.id()))
            if (!b.isBackwardTransferTo(prog.block(s).startAddr()))
                fwd.addEdge(b.id(), s);
    return fwd;
}

} // namespace

StaticReport
computeStaticReport(AnalysisManager &mgr, const Program &prog)
{
    const ProgramFacts &pf = mgr.facts(prog);
    const std::uint32_t n = pf.graph.size();

    StaticReport rep;
    rep.blockCount = n;
    rep.reachableBlocks = pf.cfg.reachableCount;
    rep.staticInsts = prog.staticInstCount();
    for (const BasicBlock &b : prog.blocks())
        if (pf.cfg.reachable[b.id()])
            rep.reachableInsts += b.instCount();

    // Loop nesting: each natural loop adds one level to its body.
    rep.loopDepth.assign(n, 0);
    rep.loopCount = static_cast<std::uint32_t>(pf.cfg.loops.size());
    for (const NaturalLoop &loop : pf.cfg.loops)
        for (const std::uint32_t node : loop.body)
            ++rep.loopDepth[node];
    for (const std::uint32_t d : rep.loopDepth)
        rep.maxLoopDepth = std::max(rep.maxLoopDepth, d);
    {
        std::vector<std::uint8_t> inner(n, 0);
        for (const NaturalLoop &loop : pf.cfg.loops) {
            if (rep.loopDepth[loop.header] < 2)
                continue;
            ++rep.innerLoops;
            for (const std::uint32_t node : loop.body)
                inner[node] = 1;
        }
        for (std::uint32_t u = 0; u < n; ++u)
            if (inner[u])
                rep.innerLoopDupInsts += prog.block(u).instCount();
    }

    // Unbiased branches and their loop placement.
    rep.unbiasedBranch.assign(n, 0);
    for (const BasicBlock &b : prog.blocks()) {
        if (!pf.cfg.reachable[b.id()] || !isUnbiasedBranch(prog, b))
            continue;
        rep.unbiasedBranch[b.id()] = 1;
        ++rep.unbiasedBranches;
        if (rep.loopDepth[b.id()] > 0)
            ++rep.unbiasedInLoops;
    }

    // Forward-edge subgraph: the frontier (backward dataflow) and
    // the tail-duplication estimate (forward dataflow per branch).
    const DiGraph fwd = forwardEdgeSubgraph(pf);
    const CfgFacts fwdCfg = CfgFacts::compute(fwd, pf.cfg.entry);
    {
        const DataflowResult<std::uint8_t> frontier =
            reachesAnyOf(fwd, fwdCfg, rep.unbiasedBranch);
        rep.dataflowTransfers += frontier.transfersRun;
        for (std::uint32_t u = 0; u < n; ++u)
            if (pf.cfg.reachable[u] && frontier.out[u])
                ++rep.frontierBlocks;
    }
    for (const BasicBlock &b : prog.blocks()) {
        if (!rep.unbiasedBranch[b.id()])
            continue;
        const BasicBlock *tk = prog.blockAtAddr(b.takenTarget());
        const BasicBlock *ft = prog.fallThroughOf(b);
        if (tk == nullptr || ft == nullptr || tk == ft)
            continue;
        const DataflowResult<BitsetLattice::Value> reach =
            reachingSources(fwd, fwdCfg, {tk->id(), ft->id()});
        rep.dataflowTransfers += reach.transfersRun;
        for (std::uint32_t u = 0; u < n; ++u)
            if (BitsetLattice::testBit(reach.out[u], 0) &&
                BitsetLattice::testBit(reach.out[u], 1))
                rep.tailDupEstInsts += prog.block(u).instCount();
    }

    // Cyclic blocks and cross-function trace separation.
    std::vector<std::uint8_t> cyclic(n, 0);
    for (std::uint32_t u = 0; u < n; ++u)
        if (pf.cfg.reachable[u] &&
            pf.cfg.sccIsCycle[pf.cfg.sccId[u]]) {
            cyclic[u] = 1;
            ++rep.cyclicBlocks;
        }
    {
        std::vector<std::unordered_set<FuncId>> sccFuncs(
            pf.cfg.sccCount);
        for (std::uint32_t u = 0; u < n; ++u)
            if (cyclic[u])
                sccFuncs[pf.cfg.sccId[u]].insert(prog.block(u).func());
        for (const std::unordered_set<FuncId> &funcs : sccFuncs) {
            if (funcs.size() <= 1)
                continue;
            ++rep.crossFuncCycles;
            rep.maxSeparationFuncs = std::max(
                rep.maxSeparationFuncs,
                static_cast<std::uint32_t>(funcs.size()));
        }
    }

    // Per-selector predictions from the formation models.
    for (const FormationModel &model : allFormationModels()) {
        SelectorPrediction p;
        p.selector = model.selector;

        std::vector<std::uint32_t> entrances;
        std::uint32_t cyclicEntrances = 0;
        for (std::uint32_t u = 0; u < n; ++u) {
            if (!pf.cfg.reachable[u])
                continue;
            switch (model.entrance) {
            case FormationModel::Entrance::NeedsPredecessor:
                if (pf.cfg.preds[u].empty())
                    continue;
                break;
            case FormationModel::Entrance::OnCycle:
                if (!cyclic[u])
                    continue;
                break;
            case FormationModel::Entrance::AnyReachable:
                break;
            }
            entrances.push_back(u);
            if (cyclic[u])
                ++cyclicEntrances;
        }
        p.entranceCount =
            static_cast<std::uint32_t>(entrances.size());
        p.maxRegions = p.entranceCount;
        p.maxSpanningRegions = cyclicEntrances;
        p.spanningRatioEst =
            p.entranceCount == 0
                ? 0.0
                : static_cast<double>(cyclicEntrances) /
                      static_cast<double>(p.entranceCount);

        const DataflowResult<BitsetLattice::Value> reach =
            reachingSources(pf.graph, pf.cfg, entrances);
        rep.dataflowTransfers += reach.transfersRun;

        double estNum = 0.0, estDen = 0.0;
        double loopEstNum = 0.0, loopEstDen = 0.0;
        for (std::uint32_t u = 0; u < n; ++u) {
            const std::uint32_t copies =
                BitsetLattice::countBits(reach.out[u]);
            if (copies == 0)
                continue;
            const BasicBlock &b = prog.block(u);
            const std::uint64_t insts = b.instCount();
            p.expansionBoundInsts += copies * insts;
            if (copies > 1)
                p.dupBoundInsts += (copies - 1) * insts;
            const double instsD = static_cast<double>(insts);
            p.stubDensityMax = std::max(
                p.stubDensityMax,
                static_cast<double>(maxStubsOf(b)) / instsD);
            estNum += estStubsOf(b);
            estDen += instsD;
            if (rep.loopDepth[u] > 0) {
                loopEstNum += estStubsOf(b);
                loopEstDen += instsD;
            }
        }
        // Lower density bound: the loosest per-copy minimum over the
        // candidate member set.
        p.stubDensityMin = p.expansionBoundInsts == 0 ? 0.0 : 1e9;
        for (std::uint32_t u = 0; u < n; ++u) {
            if (BitsetLattice::countBits(reach.out[u]) == 0)
                continue;
            const BasicBlock &b = prog.block(u);
            p.stubDensityMin = std::min(
                p.stubDensityMin,
                static_cast<double>(minStubsOf(b)) /
                    static_cast<double>(b.instCount()));
        }
        // Estimate over loop blocks (where selection concentrates)
        // when the program has any, else over all candidates.
        const double num = loopEstDen > 0.0 ? loopEstNum : estNum;
        const double den = loopEstDen > 0.0 ? loopEstDen : estDen;
        p.stubDensityEst =
            den > 0.0 ? model.stubDiscount * num / den : 0.0;

        rep.predictions.push_back(std::move(p));
    }

    // Interprocedural layer: call-graph shape plus the aggregate
    // inlining-opportunity bound (per-site detail stays behind
    // rselect-analyze --interprocedural).
    const InterFacts &inf = mgr.interFacts(prog);
    const CallGraph &cg = inf.callGraph;
    rep.funcCount =
        static_cast<std::uint32_t>(prog.functions().size());
    rep.callSiteCount =
        static_cast<std::uint32_t>(cg.sites.size());
    for (FuncId f = 0; f < rep.funcCount; ++f) {
        if (cg.callReachable(f))
            ++rep.callReachableFuncs;
        if (cg.recursive[f])
            ++rep.recursiveFuncs;
    }
    const OpportunityReport opp = analyzeInlineOpportunities(inf);
    rep.hotCallSites = opp.hotLoopSites;
    rep.inlineDupGrowthBoundInsts = opp.totalDupGrowthBoundInsts;
    rep.dataflowTransfers += inf.dataflowTransfers;

    return rep;
}

const SelectorPrediction *
findPrediction(const StaticReport &report, const std::string &selector)
{
    for (const SelectorPrediction &p : report.predictions)
        if (p.selector == selector)
            return &p;
    return nullptr;
}

std::vector<std::string>
checkPrediction(const SelectorPrediction &p, const SimResult &res)
{
    std::vector<std::string> violations;
    const auto flag = [&violations](const std::string &msg) {
        violations.push_back(msg);
    };
    // Float bounds get a small absolute slack so exact-equality
    // cases (e.g. one stub per copied instruction) never flap.
    constexpr double eps = 1e-6;

    if (res.regionCount > p.maxRegions)
        flag("max-regions: selected " +
             std::to_string(res.regionCount) + " regions > bound " +
             std::to_string(p.maxRegions));
    if (res.spanningRegions > p.maxSpanningRegions)
        flag("spanning-bound: " + std::to_string(res.spanningRegions) +
             " spanning regions > bound " +
             std::to_string(p.maxSpanningRegions));
    if (res.duplicatedInsts > p.dupBoundInsts)
        flag("dup-bound: " + std::to_string(res.duplicatedInsts) +
             " duplicated insts > bound " +
             std::to_string(p.dupBoundInsts));
    if (res.expansionInsts > p.expansionBoundInsts)
        flag("expansion-bound: " + std::to_string(res.expansionInsts) +
             " expanded insts > bound " +
             std::to_string(p.expansionBoundInsts));
    const double expansion = static_cast<double>(res.expansionInsts);
    const double stubs = static_cast<double>(res.exitStubs);
    if (stubs > p.stubDensityMax * expansion + eps)
        flag("stub-density-max: " + std::to_string(res.exitStubs) +
             " stubs > " + std::to_string(p.stubDensityMax) +
             " per inst over " + std::to_string(res.expansionInsts) +
             " insts");
    if (stubs + eps < p.stubDensityMin * expansion)
        flag("stub-density-min: " + std::to_string(res.exitStubs) +
             " stubs < " + std::to_string(p.stubDensityMin) +
             " per inst over " + std::to_string(res.expansionInsts) +
             " insts");
    for (const RegionStats &r : res.regions)
        if (r.exitStubs > 2u * r.blockCount) {
            flag("per-region-stubs: region " + std::to_string(r.id) +
                 " has " + std::to_string(r.exitStubs) +
                 " stubs over " + std::to_string(r.blockCount) +
                 " blocks");
            break;
        }
    return violations;
}

void
emitStaticFacts(const StaticReport &rep, const Program &prog,
                const ProgramFacts &pf, DiagnosticEngine &diag)
{
    diag.note("loop-nesting", "program",
              "loops=" + std::to_string(rep.loopCount) +
                  " maxDepth=" + std::to_string(rep.maxLoopDepth) +
                  " innerLoops=" + std::to_string(rep.innerLoops));
    diag.note("unbiased-frontier", "program",
              "unbiased=" + std::to_string(rep.unbiasedBranches) +
                  " inLoops=" + std::to_string(rep.unbiasedInLoops) +
                  " frontierBlocks=" +
                  std::to_string(rep.frontierBlocks));
    diag.note("net-duplication", "program",
              "tailDupEstInsts=" +
                  std::to_string(rep.tailDupEstInsts) +
                  " innerLoopDupInsts=" +
                  std::to_string(rep.innerLoopDupInsts));
    if (const SelectorPrediction *lei = findPrediction(rep, "LEI"))
        diag.note("lei-coverage", "program",
                  "cyclicEntrances=" +
                      std::to_string(lei->entranceCount) +
                      " maxSpanning=" +
                      std::to_string(lei->maxSpanningRegions));
    for (const SelectorPrediction &p : rep.predictions)
        diag.note("exit-stubs", "selector " + p.selector,
                  "densityMin=" + std::to_string(p.stubDensityMin) +
                      " densityMax=" +
                      std::to_string(p.stubDensityMax) +
                      " est=" + std::to_string(p.stubDensityEst));
    diag.note("trace-separation", "program",
              "crossFuncCycles=" +
                  std::to_string(rep.crossFuncCycles) +
                  " maxFuncs=" +
                  std::to_string(rep.maxSeparationFuncs));
    diag.note("interprocedural", "program",
              "funcs=" + std::to_string(rep.funcCount) +
                  " callSites=" + std::to_string(rep.callSiteCount) +
                  " callReachable=" +
                  std::to_string(rep.callReachableFuncs) +
                  " recursive=" +
                  std::to_string(rep.recursiveFuncs));
    diag.note("inline-opportunity", "program",
              "hotCallSites=" + std::to_string(rep.hotCallSites) +
                  " dupGrowthBoundInsts=" +
                  std::to_string(rep.inlineDupGrowthBoundInsts));

    // Lint: predicted duplication dwarfing the program itself.
    if (rep.reachableInsts > 0 &&
        rep.tailDupEstInsts + rep.innerLoopDupInsts >
            rep.reachableInsts)
        diag.warning("duplication-explosion", "program",
                     "predicted tail/inner-loop duplication (" +
                         std::to_string(rep.tailDupEstInsts +
                                        rep.innerLoopDupInsts) +
                         " insts) exceeds the reachable code (" +
                         std::to_string(rep.reachableInsts) +
                         " insts)");
    // Lint: k unbiased branches in one loop body = 2^k trace paths.
    for (const NaturalLoop &loop : pf.cfg.loops) {
        std::uint32_t unbiased = 0;
        for (const std::uint32_t node : loop.body)
            if (rep.unbiasedBranch[node])
                ++unbiased;
        if (unbiased >= 3)
            diag.warning(
                "duplication-explosion",
                "loop at block " + std::to_string(loop.header),
                std::to_string(unbiased) +
                    " unbiased branches in one loop body (path "
                    "explosion risk)");
    }
    // Lint: separation-prone call chains (cycles through >= 3
    // functions force every selector to fragment traces).
    if (rep.maxSeparationFuncs >= 3) {
        std::uint32_t witness = invalidNode;
        std::uint32_t funcsSpanned = 0;
        std::vector<std::unordered_set<FuncId>> sccFuncs(
            pf.cfg.sccCount);
        for (const BasicBlock &b : prog.blocks())
            if (pf.cfg.reachable[b.id()] &&
                pf.cfg.sccIsCycle[pf.cfg.sccId[b.id()]])
                sccFuncs[pf.cfg.sccId[b.id()]].insert(b.func());
        for (const BasicBlock &b : prog.blocks()) {
            const std::uint32_t funcs = static_cast<std::uint32_t>(
                sccFuncs[pf.cfg.sccId[b.id()]].size());
            if (funcs >= 3 && funcs > funcsSpanned) {
                witness = b.id();
                funcsSpanned = funcs;
            }
        }
        if (witness != invalidNode)
            diag.warning("separation-prone",
                         "scc containing block " +
                             std::to_string(witness),
                         "call-chain cycle spans " +
                             std::to_string(funcsSpanned) +
                             " functions; traces will separate at "
                             "every call boundary");
    }
}

const std::vector<std::string> &
analyzePassNames()
{
    static const std::vector<std::string> names = {
        "loop-nesting",
        "unbiased-frontier",
        "net-duplication",
        "lei-coverage",
        "exit-stubs",
        "trace-separation",
        "interprocedural",
        "inline-opportunity",
        "duplication-explosion",
        "separation-prone",
    };
    return names;
}

} // namespace analysis
} // namespace rsel
